package ecm

import (
	"testing"

	"incore/internal/isa"
	"incore/internal/kernels"
	"incore/internal/uarch"
)

func TestTrafficForBlockTriad(t *testing.T) {
	m := uarch.MustGet("goldencove")
	src := `
	vmovupd (%rsi,%rax,8), %zmm0
	vfmadd231pd (%rdx,%rax,8), %zmm15, %zmm0
	vmovupd %zmm0, (%rdi,%rax,8)
	addq $8, %rax
	cmpq %rbx, %rax
	jne .L0
`
	b, err := isa.ParseBlock("triad", "goldencove", m.Dialect, src)
	if err != nil {
		t.Fatal(err)
	}
	tr := TrafficForBlock(b)
	if tr.LoadBytes != 128 {
		t.Errorf("triad load streams: %f B, want 128 (2 streams)", tr.LoadBytes)
	}
	if tr.StoreBytes != 64 {
		t.Errorf("triad store streams: %f B, want 64", tr.StoreBytes)
	}
}

func TestTrafficForBlockStencilNeighborsShareStream(t *testing.T) {
	// A 2D 5-point stencil has 4 loads but only 3 distinct streams
	// (i±1 share the center row's base/index).
	k, err := kernels.ByName("j2d5")
	if err != nil {
		t.Fatal(err)
	}
	b, err := kernels.Generate(k, kernels.Config{Target: kernels.TargetOf(uarch.MustGet("goldencove")), Compiler: kernels.GCC, Opt: kernels.O2})
	if err != nil {
		t.Fatal(err)
	}
	tr := TrafficForBlock(b)
	if tr.LoadBytes != 3*64 {
		t.Errorf("j2d5 load streams: %f B, want 192 (3 streams)", tr.LoadBytes)
	}
}

// kernelStreams is each kernel's distinct (load, store) array streams,
// read off its C loop body.
var kernelStreams = map[string][2]int{
	"copy": {1, 1}, "init": {0, 1}, "update": {1, 1}, "add": {2, 1},
	"striad": {2, 1}, "schtriad": {3, 1}, "sum": {1, 0}, "pi": {0, 0},
	"j2d5": {3, 1}, "j3d7": {5, 1}, "j3d11": {7, 1}, "j3d27": {9, 1},
	"gs2d5": {3, 1},
}

func TestTrafficForBlockMatchesKernelDescriptors(t *testing.T) {
	// For every generated variant, the block-derived stream counts must
	// equal the kernel's stream counts read off its loop body.
	full, err := kernels.FullSuite()
	if err != nil {
		t.Fatal(err)
	}
	if len(kernelStreams) != len(kernels.Kernels) {
		t.Fatalf("oracle covers %d kernels, suite has %d", len(kernelStreams), len(kernels.Kernels))
	}
	for _, tb := range full {
		want, ok := kernelStreams[tb.Kernel.Name]
		if !ok {
			t.Fatalf("no stream counts for kernel %s", tb.Kernel.Name)
		}
		tr := TrafficForBlock(tb.Block)
		if tr.LoadBytes != float64(64*want[0]) || tr.StoreBytes != float64(64*want[1]) {
			t.Errorf("%s: streams loads=%.0f stores=%.0f, want %d/%d",
				tb.Block.Name, tr.LoadBytes/64, tr.StoreBytes/64, want[0], want[1])
		}
	}
}

// TestElemsPerIterMatchesKernels: on every suite block that touches
// memory, the element count read off the block equals the generator's.
// The blocks that move no data (the pi variants) have no element count
// the block could tell, and get 0.
func TestElemsPerIterMatchesKernels(t *testing.T) {
	full, err := kernels.FullSuite()
	if err != nil {
		t.Fatal(err)
	}
	touching, free := 0, 0
	for _, tb := range full {
		want := tb.ElemsPerIter
		if tr := TrafficForBlock(tb.Block); tr.LoadBytes == 0 && tr.StoreBytes == 0 {
			free++
			want = 0
		} else {
			touching++
		}
		if got := ElemsPerIter(tb.Block); got != want {
			t.Errorf("%s: %d elements/iteration, want %d", tb.Block.Name, got, want)
		}
	}
	if touching != 384 || free != 32 {
		t.Errorf("checked %d memory-touching and %d memory-free blocks, want 384 and 32", touching, free)
	}
}
