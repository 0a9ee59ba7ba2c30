package isa_test

import (
	"reflect"
	"testing"

	"incore/internal/isa"
	"incore/internal/kernels"
)

// Fuzz targets: the parsers must never panic on arbitrary input, must
// agree with the oracle parser (oracle_test.go) on every input — a
// reflect.DeepEqual block or the identical error string — and any block
// they accept must validate and survive a Text() -> re-parse round trip
// without changing length. Both parse targets are also seeded with the
// generated validation suite's 416 texts, in both dialects.

func addSuiteSeeds(f *testing.F) {
	full, err := kernels.FullSuite()
	if err != nil {
		f.Fatal(err)
	}
	for _, tb := range full {
		f.Add(tb.Block.Text())
	}
}

func checkParse(t *testing.T, arch string, d isa.Dialect, src string) {
	b, err := isa.ParseBlock("fuzz", arch, d, src)
	want, werr := isa.OracleParseBlock("fuzz", arch, d, src)
	if (err == nil) != (werr == nil) || (err != nil && err.Error() != werr.Error()) {
		t.Fatalf("parser error %v, oracle error %v", err, werr)
	}
	if !reflect.DeepEqual(b, want) {
		t.Fatalf("parsed block differs from the oracle's:\n got %+v\nwant %+v", b, want)
	}
	if err != nil {
		return // rejected input is fine; panics are not
	}
	if err := b.Validate(); err != nil {
		t.Fatalf("accepted block does not validate: %v", err)
	}
	for i := range b.Instrs {
		_ = isa.InstrEffects(&b.Instrs[i], d)
	}
	b2, err := isa.ParseBlock("fuzz2", arch, d, b.Text())
	if err != nil {
		t.Fatalf("rendered block does not re-parse: %v\n%s", err, b.Text())
	}
	if b2.Len() != b.Len() {
		t.Fatalf("round trip changed length %d -> %d", b.Len(), b2.Len())
	}
}

func FuzzParseX86(f *testing.F) {
	seeds := []string{
		"\tvmovupd (%rsi,%rax,8), %zmm0\n",
		"\tvfmadd231pd 64(%rdx,%rax,8), %zmm15, %zmm0\n",
		"\taddq $8, %rax\n\tcmpq %rbx, %rax\n\tjne .L0\n",
		".L0:\n\tvaddpd %ymm1, %ymm2, %ymm3\n",
		"\tvgatherqpd (%rsi,%zmm1,8), %zmm0 {%k1}\n",
		"\tvmovntpd %zmm0, (%rdi)\n",
		"# comment\n\txorq %rax, %rax\n",
		"\tvdivsd %xmm1, %xmm11, %xmm1\n",
		"garbage input (((",
		"\tmov %, %\n",
		"\tvaddpd 0x40(%rsi), %ymm0, %ymm1\n",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	addSuiteSeeds(f)
	f.Fuzz(func(t *testing.T, src string) {
		checkParse(t, "goldencove", isa.DialectX86, src)
	})
}

func FuzzParseAArch64(f *testing.F) {
	seeds := []string{
		"\tldr q0, [x1, x3]\n",
		"\tld1d { z0.d }, p0/z, [x1, x3, lsl #3]\n",
		"\tld1d { z0.d }, p0/z, [x1, z1.d]\n",
		"\tfmla v0.2d, v1.2d, v2.2d\n",
		"\tfmadd d0, d1, d2, d3\n",
		"\tstr q0, [x0], #16\n",
		"\tldr d0, [x1, #8]!\n",
		"\twhilelo p0.d, x3, x4\n\tb.first .L0\n",
		"\tsubs x4, x4, #1\n\tb.ne .L0\n",
		"junk [[[",
		"\tldur d0, [x1, #-8]\n",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	addSuiteSeeds(f)
	f.Fuzz(func(t *testing.T, src string) {
		checkParse(t, "neoversev2", isa.DialectAArch64, src)
	})
}

func FuzzExtractMarkedRegion(f *testing.F) {
	f.Add("# OSACA-BEGIN\n\tnop\n# OSACA-END\n")
	f.Add("no markers at all")
	f.Add("# IACA START\nx\n# IACA END\n")
	f.Fuzz(func(t *testing.T, src string) {
		// Must never panic; errors are fine.
		_, _ = isa.ExtractMarkedRegion(src)
	})
}
