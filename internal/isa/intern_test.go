package isa

import "testing"

func TestRegInternerDenseIDs(t *testing.T) {
	var ri RegInterner
	a := RegKey{Class: ClassGPR, ID: 3}
	b := RegKey{Class: ClassVec, ID: 3}
	c := RegKey{Class: ClassFlags, ID: 0}
	if got := ri.Intern(a); got != 0 {
		t.Errorf("first key id = %d, want 0", got)
	}
	if got := ri.Intern(b); got != 1 {
		t.Errorf("second key id = %d, want 1", got)
	}
	if got := ri.Intern(a); got != 0 {
		t.Errorf("re-intern changed id: %d", got)
	}
	if got := ri.Intern(c); got != 2 {
		t.Errorf("third key id = %d, want 2", got)
	}
	if ri.Len() != 3 {
		t.Errorf("Len = %d, want 3", ri.Len())
	}
}

func TestRegInternerDeterministic(t *testing.T) {
	keys := []RegKey{
		{Class: ClassVec, ID: 0}, {Class: ClassGPR, ID: 5},
		{Class: ClassVec, ID: 0}, {Class: ClassPred, ID: 1},
	}
	var a, b RegInterner
	ia := a.InternAll(nil, keys)
	ib := b.InternAll(make([]int32, 0, len(keys)), keys)
	for i := range ia {
		if ia[i] != ib[i] {
			t.Fatalf("interner not deterministic at %d: %d vs %d", i, ia[i], ib[i])
		}
	}
	if a.Len() != 3 {
		t.Errorf("unique keys = %d, want 3", a.Len())
	}
}
