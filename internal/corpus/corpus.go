// Package corpus ingests real-world assembly listings — compiler output
// from `gcc -S`, `go build -gcflags=-S`, objdump, or hand-written
// kernels — into the suite's block format and batch-analyzes them with
// per-block coverage accounting.
//
// A real listing is not a curated suite block: it mixes directives,
// prologue/epilogue code, several functions, and mnemonics outside the
// machine model's tables. The ingester handles that by
//
//  1. honoring explicit OSACA/LLVM-MCA/IACA region markers when present,
//  2. otherwise extracting every innermost backward-branch loop (a label
//     later reached by a branch back to it) as its own block, and
//  3. analyzing each block in degraded mode, so unknown mnemonics are
//     accounted in the coverage report instead of rejecting the block.
//
// The result per block is the same lower-bound analysis cmd/osaca
// prints, plus the coverage triple (exact / fallback / unknown) that
// tells the caller how much of the prediction rests on measured tables.
package corpus

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"

	"incore/internal/core"
	"incore/internal/isa"
	"incore/internal/pipeline"
	"incore/internal/uarch"
)

// Loop is one extracted backward-branch region of a source listing.
type Loop struct {
	// Label names the loop head (the backward branch's target).
	Label string
	// Start and End are 1-based source line numbers of the label line
	// and the backward branch, inclusive.
	Start, End int
	// Source is the region's text (label line through branch line).
	Source string
}

// ExtractLoops finds the innermost backward-branch loops in an assembly
// listing: regions from a label line to a later branch instruction
// targeting that label, keeping only regions that do not contain another
// such region (the innermost loops are the throughput-relevant ones; an
// outer loop's body is dominated by its inner loop anyway). Loops come
// back in source order.
func ExtractLoops(src string, d isa.Dialect) []Loop {
	lines := strings.Split(src, "\n")
	labelLine := map[string]int{}
	var cands []Loop
	for i, raw := range lines {
		line := strings.TrimSpace(isa.StripComment(raw, d))
		if line == "" {
			continue
		}
		if strings.HasSuffix(line, ":") && !strings.Contains(line, " ") {
			labelLine[strings.TrimSuffix(line, ":")] = i
			continue
		}
		mn, target := branchTarget(line)
		if mn == "" || target == "" {
			continue
		}
		if at, ok := labelLine[target]; ok {
			cands = append(cands, Loop{Label: target, Start: at + 1, End: i + 1})
		}
	}
	// Keep innermost regions only: drop any candidate strictly containing
	// another candidate.
	var out []Loop
	for _, c := range cands {
		inner := false
		for _, o := range cands {
			if o != c && c.Start <= o.Start && o.End <= c.End {
				inner = true
				break
			}
		}
		if !inner {
			c.Source = strings.Join(lines[c.Start-1:c.End], "\n")
			out = append(out, c)
		}
	}
	return out
}

// branchTarget reports a line's branch mnemonic and label target, or
// empty strings when the line is not a direct branch.
func branchTarget(line string) (mn, target string) {
	fields := strings.Fields(line)
	if len(fields) == 0 {
		return "", ""
	}
	in := isa.Instruction{Mnemonic: strings.ToLower(fields[0])}
	if !in.IsBranch() {
		return "", ""
	}
	ops := strings.Join(fields[1:], " ")
	if i := strings.LastIndex(ops, ","); i >= 0 {
		ops = ops[i+1:]
	}
	target = strings.TrimSpace(ops)
	// Indirect targets (*%rax, x30) and no-operand returns are not loops.
	if target == "" || strings.HasPrefix(target, "*") {
		return "", ""
	}
	return in.Mnemonic, target
}

// BlockResult is the analysis outcome of one extracted block. Exactly
// one of Err or the analysis fields is meaningful.
type BlockResult struct {
	// Name labels the block: "file#label" for extracted loops,
	// "file" for whole-file and marked-region blocks.
	Name string
	// Label and Lines locate the block in its source file; Label is
	// empty for whole-file and marked-region blocks.
	Label      string
	Start, End int
	// Instrs counts the block's parsed instructions.
	Instrs int
	// Err is the parse or analysis failure, nil on success.
	Err error

	Coverage   core.Coverage
	Prediction float64
	Bound      string
}

// MarshalJSON renders the error as its message (an error interface
// would otherwise encode as an empty object).
func (b BlockResult) MarshalJSON() ([]byte, error) {
	w := struct {
		Name       string        `json:"name"`
		Label      string        `json:"label,omitempty"`
		Start      int           `json:"start,omitempty"`
		End        int           `json:"end,omitempty"`
		Instrs     int           `json:"instrs"`
		Error      string        `json:"error,omitempty"`
		Coverage   core.Coverage `json:"coverage"`
		Prediction float64       `json:"prediction"`
		Bound      string        `json:"bound,omitempty"`
	}{
		Name: b.Name, Label: b.Label, Start: b.Start, End: b.End,
		Instrs: b.Instrs, Coverage: b.Coverage,
		Prediction: b.Prediction, Bound: b.Bound,
	}
	if b.Err != nil {
		w.Error = b.Err.Error()
	}
	return json.Marshal(w)
}

// FileResult is the ingestion outcome of one source file.
type FileResult struct {
	Path string
	// Blocks holds one result per extracted block, in source order.
	Blocks []BlockResult
}

// Failures counts blocks that failed to parse or analyze.
func (f FileResult) Failures() int {
	n := 0
	for _, b := range f.Blocks {
		if b.Err != nil {
			n++
		}
	}
	return n
}

// Ingester turns source listings into analyzed blocks against one model.
type Ingester struct {
	Model *uarch.Model
}

// IngestSource ingests one listing already in memory. Marker pairs take
// precedence; otherwise every innermost backward-branch loop becomes a
// block; a listing with neither is analyzed whole.
func (ig *Ingester) IngestSource(name, src string) FileResult {
	res := FileResult{Path: name}
	m := ig.Model
	an := core.New() // degraded mode: the right default for real-world input

	marked, err := isa.ExtractMarkedRegion(src)
	if err != nil {
		res.Blocks = append(res.Blocks, BlockResult{Name: name, Err: err})
		return res
	}
	if marked != src {
		res.Blocks = append(res.Blocks, ig.analyzeOne(an, BlockResult{Name: name}, marked))
		return res
	}
	loops := ExtractLoops(src, m.Dialect)
	if len(loops) == 0 {
		res.Blocks = append(res.Blocks, ig.analyzeOne(an, BlockResult{Name: name}, src))
		return res
	}
	for _, l := range loops {
		br := BlockResult{
			Name:  fmt.Sprintf("%s#%s", name, l.Label),
			Label: l.Label, Start: l.Start, End: l.End,
		}
		res.Blocks = append(res.Blocks, ig.analyzeOne(an, br, l.Source))
	}
	return res
}

// IngestFile reads and ingests one .s file.
func (ig *Ingester) IngestFile(path string) FileResult {
	src, err := os.ReadFile(path)
	if err != nil {
		return FileResult{Path: path, Blocks: []BlockResult{{Name: path, Err: err}}}
	}
	return ig.IngestSource(path, string(src))
}

// analyzeOne parses and analyzes one block's source through the shared
// pipeline memo (identical blocks across files compute once, and an
// attached persistent store serves warm results across runs).
func (ig *Ingester) analyzeOne(an *core.Analyzer, br BlockResult, src string) BlockResult {
	b, err := isa.ParseBlock(br.Name, ig.Model.Key, ig.Model.Dialect, src)
	if err != nil {
		br.Err = err
		return br
	}
	br.Instrs = len(b.Instrs)
	r, err := pipeline.Analyze(an, b, ig.Model)
	if err != nil {
		br.Err = err
		return br
	}
	br.Coverage = r.Coverage
	br.Prediction = r.Prediction
	br.Bound = r.Bound
	return br
}

// Summary aggregates coverage over many file results.
type Summary struct {
	Files    int           `json:"files"`
	Blocks   int           `json:"blocks"`
	Failures int           `json:"failures"`
	Coverage core.Coverage `json:"coverage"`
}

// Fraction returns the aggregate covered share across all instructions.
func (s Summary) Fraction() float64 { return s.Coverage.Fraction() }

// Summarize folds per-file results into one aggregate.
func Summarize(files []FileResult) Summary {
	var s Summary
	s.Files = len(files)
	for _, f := range files {
		s.Blocks += len(f.Blocks)
		s.Failures += f.Failures()
		for _, b := range f.Blocks {
			s.Coverage.Exact += b.Coverage.Exact
			s.Coverage.Fallback += b.Coverage.Fallback
			s.Coverage.Unknown += b.Coverage.Unknown
			for _, mn := range b.Coverage.UnknownMnemonics {
				s.Coverage.AddUnknownMnemonic(mn)
			}
		}
	}
	return s
}
