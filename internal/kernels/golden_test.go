package kernels

import (
	"strings"
	"testing"
)

// Golden snapshots of representative generated variants. These pin the
// compiler personalities: a change to the code generators that alters any
// of these bodies must be deliberate (update the snapshot alongside the
// generator change).

var goldens = []struct {
	kernel string
	cfg    Config
	want   string
}{
	{
		kernel: "striad",
		cfg:    Config{Target: target("goldencove"), Compiler: GCC, Opt: O3},
		want: `.L0:
	vmovupd (%rsi,%rax,8), %zmm0
	vfmadd231pd (%rdx,%rax,8), %zmm15, %zmm0
	vmovupd %zmm0, (%rdi,%rax,8)
	vmovupd 64(%rsi,%rax,8), %zmm1
	vfmadd231pd 64(%rdx,%rax,8), %zmm15, %zmm1
	vmovupd %zmm1, 64(%rdi,%rax,8)
	addq $16, %rax
	cmpq %rbx, %rax
	jne .L0
`,
	},
	{
		kernel: "add",
		cfg:    Config{Target: target("neoversev2"), Compiler: ArmClang, Opt: O2},
		want: `.L0:
	ld1d { z0.d }, p0/z, [x1, x3, lsl #3]
	ld1d { z1.d }, p0/z, [x2, x3, lsl #3]
	fadd z0.d, z0.d, z1.d
	st1d { z0.d }, p0, [x0, x3, lsl #3]
	incd x3
	whilelo p0.d, x3, x4
	b.first .L0
`,
	},
	{
		kernel: "gs2d5",
		cfg:    Config{Target: target("zen4"), Compiler: GCC, Opt: O1},
		want: `.L0:
	vmovsd -8(%rsi,%rax,8), %xmm1
	vaddsd 8(%rsi,%rax,8), %xmm1, %xmm1
	vaddsd (%r8,%rax,8), %xmm1, %xmm1
	vaddsd (%r9,%rax,8), %xmm1, %xmm1
	vmulsd %xmm15, %xmm1, %xmm1
	vmovsd %xmm1, (%rsi,%rax,8)
	incq %rax
	cmpq %rbx, %rax
	jne .L0
`,
	},
	{
		kernel: "sum",
		cfg:    Config{Target: target("goldencove"), Compiler: Clang, Opt: Ofast},
		want: `.L0:
	vmovupd (%rsi), %ymm4
	vaddpd %ymm4, %ymm0, %ymm0
	vmovupd 32(%rsi), %ymm5
	vaddpd %ymm5, %ymm1, %ymm1
	vmovupd 64(%rsi), %ymm6
	vaddpd %ymm6, %ymm2, %ymm2
	vmovupd 96(%rsi), %ymm7
	vaddpd %ymm7, %ymm3, %ymm3
	addq $128, %rsi
	cmpq %rbx, %rsi
	jne .L0
`,
	},
	{
		kernel: "pi",
		cfg:    Config{Target: target("neoversev2"), Compiler: GCC, Opt: O2},
		want: `.L0:
	scvtf d1, x3
	fadd d1, d1, d13
	fmul d1, d1, d14
	fmadd d1, d1, d1, d12
	fdiv d1, d11, d1
	fadd d0, d0, d1
	add x3, x3, #1
	cmp x3, x4
	b.ne .L0
`,
	},
}

func TestGoldenBodies(t *testing.T) {
	for _, g := range goldens {
		k, err := ByName(g.kernel)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Generate(k, g.cfg)
		if err != nil {
			t.Fatalf("%s %v: %v", g.kernel, g.cfg, err)
		}
		got := b.Text()
		if got != g.want {
			t.Errorf("%s-%s-%s-%s body changed.\n--- want:\n%s--- got:\n%s",
				g.kernel, g.cfg.Compiler, g.cfg.Opt, g.cfg.Arch, g.want, got)
		}
	}
}

// TestClangSumWaitNote: clang's sum reduction at Ofast carries a subtle
// detail — the load is folded on gcc/icx but split on clang. The golden
// above uses folds because arith2Mem folds only for gcc/icx; verify the
// distinction explicitly.
func TestFoldingDistinction(t *testing.T) {
	k, _ := ByName("sum")
	gcc, err := Generate(k, Config{Target: target("goldencove"), Compiler: GCC, Opt: Ofast})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(gcc.Text(), "vaddpd (%rsi,%rax,8)") {
		t.Errorf("gcc must fold the load into the add:\n%s", gcc.Text())
	}
}
