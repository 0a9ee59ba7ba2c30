package main

import (
	"fmt"
	"math/rand"
	"regexp"
	"strconv"
	"strings"

	"incore/internal/isa"
	"incore/internal/kernels"
	"incore/internal/pipeline"
	"incore/internal/uarch"
)

// genBlock is one generated input: the assembly text a client would send
// and its parse, which the benchmark's reference checks use.
type genBlock struct {
	Name  string
	Model *uarch.Model
	Text  string
	Block *isa.Block
}

// generator derives never-seen blocks from the kernel suite. It walks the
// suite in seeded random order, reshuffled on every pass, so that the
// blocks keep the suite's mix of the 13 kernels, divides included.
// Each body is mutated three ways: registers are renamed consistently, the
// displacements off each base register shift by one amount, and one
// non-branch instruction is duplicated or dropped. Content keys are unique
// within one generator, and never equal a suite block's key.
type generator struct {
	rng   *rand.Rand
	suite []kernels.TestBlock
	order []int // the current pass over the suite
	seen  map[string]bool
	n     int
}

func newGenerator(seed int64, suite []kernels.TestBlock) *generator {
	g := &generator{rng: rand.New(rand.NewSource(seed)), suite: suite, seen: map[string]bool{}}
	for _, tb := range suite {
		g.seen[pipeline.BlockKey(tb.Block)] = true
	}
	return g
}

// next returns a block whose content key no earlier call returned. Every
// len(suite) consecutive calls derive from each suite body exactly once.
func (g *generator) next() (genBlock, error) {
	if len(g.order) == 0 {
		g.order = g.rng.Perm(len(g.suite))
	}
	src := g.suite[g.order[0]].Block
	g.order = g.order[1:]
	m, err := uarch.Get(src.Arch)
	if err != nil {
		return genBlock{}, err
	}
	for attempt := 0; attempt < 64; attempt++ {
		text := mutate(g.rng, src)
		name := fmt.Sprintf("%s~g%d", src.Name, g.n)
		b, err := isa.ParseBlock(name, src.Arch, src.Dialect, text)
		if err != nil {
			return genBlock{}, fmt.Errorf("gen: mutation of %s does not parse: %w\n%s", src.Name, err, text)
		}
		key := pipeline.BlockKey(b)
		if g.seen[key] {
			continue
		}
		g.seen[key] = true
		g.n++
		return genBlock{Name: name, Model: m, Text: text, Block: b}, nil
	}
	return genBlock{}, fmt.Errorf("gen: no unseen mutation of %s after 64 attempts", src.Name)
}

// take returns n generated blocks.
func (g *generator) take(n int) ([]genBlock, error) {
	out := make([]genBlock, n)
	for i := range out {
		var err error
		if out[i], err = g.next(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

var (
	x86Reg        = regexp.MustCompile(`%([a-z][a-z0-9]*)`)
	x86Mem        = regexp.MustCompile(`(-?[0-9]+)?\((%[a-z0-9]+)`)
	aarch64Reg    = regexp.MustCompile(`\b([xwvqdsz])([0-9]+)\b`)
	aarch64Mem    = regexp.MustCompile(`\[([xw][0-9]+|sp)(, #(-?[0-9]+))?\]`)
	x86GPR64      = []string{"rax", "rcx", "rdx", "rbx", "rsp", "rbp", "rsi", "rdi", "r8", "r9", "r10", "r11", "r12", "r13", "r14", "r15"}
	x86GPR32      = []string{"eax", "ecx", "edx", "ebx", "esp", "ebp", "esi", "edi", "r8d", "r9d", "r10d", "r11d", "r12d", "r13d", "r14d", "r15d"}
	x86Renameable = []int{0, 1, 2, 3, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15} // all but rsp and rbp
)

// permutation returns a random bijection over ids, as a map.
func permutation(rng *rand.Rand, ids []int) map[int]int {
	perm := rng.Perm(len(ids))
	out := make(map[int]int, len(ids))
	for i, id := range ids {
		out[id] = ids[perm[i]]
	}
	return out
}

func idRange(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// mutate renders a mutated copy of b's assembly text.
func mutate(rng *rand.Rand, b *isa.Block) string {
	var label string
	lines := make([]string, 0, len(b.Instrs)+1)
	var candidates []int // indices into lines of non-branch instructions
	for i := range b.Instrs {
		in := &b.Instrs[i]
		if in.Label != "" {
			label = in.Label
		}
		if !in.IsBranch() {
			candidates = append(candidates, len(lines))
		}
		lines = append(lines, in.String())
	}
	if len(candidates) > 0 {
		i := candidates[rng.Intn(len(candidates))]
		if rng.Intn(2) == 0 || len(candidates) < 3 {
			lines = append(lines[:i+1], lines[i:]...)
		} else {
			lines = append(lines[:i], lines[i+1:]...)
		}
	}

	// One displacement shift per base register keeps the aliasing between
	// accesses off the same base, as moving an array would.
	shifts := map[string]int64{}
	shift := func(base string) int64 {
		s, ok := shifts[base]
		if !ok {
			s = 8 * int64(rng.Intn(8))
			shifts[base] = s
		}
		return s
	}
	var gprs, vecs map[int]int
	if b.Dialect == isa.DialectAArch64 {
		gprs, vecs = permutation(rng, idRange(29)), permutation(rng, idRange(32))
	} else {
		gprs, vecs = permutation(rng, x86Renameable), permutation(rng, idRange(16))
	}
	for i, line := range lines {
		mn, ops, _ := strings.Cut(line, " ")
		if b.Dialect == isa.DialectAArch64 {
			ops = aarch64Mem.ReplaceAllStringFunc(ops, func(s string) string {
				sm := aarch64Mem.FindStringSubmatch(s)
				disp, _ := strconv.ParseInt(sm[3], 10, 64)
				return fmt.Sprintf("[%s, #%d]", sm[1], disp+shift(sm[1]))
			})
			ops = aarch64Reg.ReplaceAllStringFunc(ops, func(s string) string {
				num, _ := strconv.Atoi(s[1:])
				to, ok := vecs[num]
				if s[0] == 'x' || s[0] == 'w' {
					to, ok = gprs[num]
				}
				if !ok {
					return s
				}
				return s[:1] + strconv.Itoa(to)
			})
		} else {
			ops = x86Mem.ReplaceAllStringFunc(ops, func(s string) string {
				sm := x86Mem.FindStringSubmatch(s)
				disp, _ := strconv.ParseInt(sm[1], 10, 64)
				return fmt.Sprintf("%d(%s", disp+shift(sm[2]), sm[2])
			})
			ops = x86Reg.ReplaceAllStringFunc(ops, func(s string) string {
				r := isa.ParseX86Register(s[1:])
				switch {
				case r.Class == isa.ClassGPR:
					if to, ok := gprs[r.ID]; ok {
						if r.Width == 32 {
							return "%" + x86GPR32[to]
						}
						return "%" + x86GPR64[to]
					}
				case r.Class == isa.ClassVec && r.ID < 16:
					return "%" + s[1:4] + strconv.Itoa(vecs[r.ID])
				}
				return s
			})
		}
		if ops != "" {
			lines[i] = mn + " " + ops
		}
	}

	var sb strings.Builder
	if label != "" {
		sb.WriteString(label + ":\n")
	}
	for _, l := range lines {
		sb.WriteString("\t" + l + "\n")
	}
	return sb.String()
}
