package isa

// RegInterner assigns dense small-integer IDs to RegKeys so hot loops can
// replace map[RegKey] lookups with slice indexing. A block touches a few
// dozen architectural storage locations at most, so consumers (the
// simulator's compiled programs, depgraph construction) size per-register
// state as flat slices of Len() entries.
//
// The zero value is ready to use. IDs are assigned in first-Intern order
// starting at 0, so two interners fed the same key sequence agree — which
// keeps anything derived from IDs deterministic.
type RegInterner struct {
	ids map[RegKey]int32
}

// Intern returns the dense ID for k, assigning the next free one on first
// sight.
func (ri *RegInterner) Intern(k RegKey) int32 {
	if id, ok := ri.ids[k]; ok {
		return id
	}
	if ri.ids == nil {
		ri.ids = make(map[RegKey]int32, 16)
	}
	id := int32(len(ri.ids))
	ri.ids[k] = id
	return id
}

// Len returns the number of interned registers (IDs are 0..Len()-1).
func (ri *RegInterner) Len() int { return len(ri.ids) }

// InternAll interns every key in ks and returns their IDs appended to dst
// (avoiding an allocation when dst has capacity).
func (ri *RegInterner) InternAll(dst []int32, ks []RegKey) []int32 {
	for _, k := range ks {
		dst = append(dst, ri.Intern(k))
	}
	return dst
}

// Reset forgets all assignments while keeping the allocated capacity, so
// a pooled interner can be reused across blocks without reallocating its
// table. IDs restart at 0.
func (ri *RegInterner) Reset() {
	clear(ri.ids)
}
