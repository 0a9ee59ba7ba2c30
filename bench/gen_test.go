package main

import (
	"strings"
	"testing"

	"incore/internal/isa"
	"incore/internal/kernels"
	"incore/internal/pipeline"
)

func testSuite(t *testing.T) []kernels.TestBlock {
	t.Helper()
	suite, err := kernels.FullSuite()
	if err != nil {
		t.Fatal(err)
	}
	return suite
}

func TestGeneratorIsSeeded(t *testing.T) {
	suite := testSuite(t)
	a, err := newGenerator(42, suite).take(200)
	if err != nil {
		t.Fatal(err)
	}
	b, err := newGenerator(42, suite).take(200)
	if err != nil {
		t.Fatal(err)
	}
	c, err := newGenerator(43, suite).take(200)
	if err != nil {
		t.Fatal(err)
	}
	same := 0
	for i := range a {
		if a[i].Name != b[i].Name || a[i].Text != b[i].Text {
			t.Fatalf("block %d differs between two generators with seed 42:\n%s\n%s", i, a[i].Text, b[i].Text)
		}
		if a[i].Text == c[i].Text {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("seeds 42 and 43 generated the same blocks")
	}
}

func TestGeneratedBlocksParseAndAreUnique(t *testing.T) {
	suite := testSuite(t)
	keys := map[string]bool{}
	for _, tb := range suite {
		keys[pipeline.BlockKey(tb.Block)] = true
	}
	blocks, err := newGenerator(7, suite).take(3000)
	if err != nil {
		t.Fatal(err)
	}
	kernelsSeen := map[string]bool{}
	divides := 0
	for _, g := range blocks {
		b, err := isa.ParseBlock(g.Name, g.Model.Key, g.Model.Dialect, g.Text)
		if err != nil {
			t.Fatalf("%s does not parse: %v\n%s", g.Name, err, g.Text)
		}
		key := pipeline.BlockKey(b)
		if keys[key] {
			t.Fatalf("%s repeats the content key of a suite or earlier generated block:\n%s", g.Name, g.Text)
		}
		keys[key] = true
		kernelsSeen[strings.SplitN(g.Name, "-", 2)[0]] = true
		if strings.Contains(g.Text, "div") {
			divides++
		}
	}
	if len(kernelsSeen) != len(kernels.Kernels) {
		t.Errorf("generated blocks cover %d kernels, want all %d", len(kernelsSeen), len(kernels.Kernels))
	}
	if divides == 0 {
		t.Error("no generated block divides")
	}
}
