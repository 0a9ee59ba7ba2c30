// Command modelinfo dumps a machine model: ports, frontend parameters,
// memory pipeline, node-level calibration, and (optionally) the full
// instruction table with latencies, reciprocal throughputs, and port
// assignments — the data OSACA ships as machine files.
//
// Usage:
//
//	modelinfo                              # list registered models
//	modelinfo -keys                        # registered keys, one per line
//	modelinfo -arch zen4 [-instrs] [-mnemonic vaddpd]
//	modelinfo -arch zen4 -export zen4.json # write the machine file
//	modelinfo -machine custom.json         # inspect a machine file
//	modelinfo -machine-dir models/ -arch mykey
//	modelinfo -check a.json b.json ...     # validate machine files
//	modelinfo -diff a.json b.json          # parameter delta between two models
//
// -check loads every named machine file, validates it, and runs one
// smoke analysis through the in-core analyzer per loaded model, so a CI
// gate can prove exported/edited machine files stay loadable end to end.
// It exits non-zero on the first file that fails.
//
// -diff compares two machine files (or registered keys) field by field
// on their canonical wire forms and reports whether their fingerprints
// and port signatures agree — i.e. whether the two models would share
// result-cache entries (identical fingerprints) and whether a sweep or
// server would share compiled artifacts between them (identical port
// signatures; a node-only delta keeps the signature).
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"sort"
	"strings"

	"incore/internal/core"
	"incore/internal/isa"
	"incore/internal/uarch"
)

func main() {
	arch := flag.String("arch", "", "machine model key (empty: list all)")
	machineFile := flag.String("machine", "", "inspect this JSON machine file instead of a registered model")
	machineDir := flag.String("machine-dir", "", "load every *.json machine file in this directory, for this run only, before resolving -arch")
	keys := flag.Bool("keys", false, "print the registered model keys, one per line")
	check := flag.Bool("check", false, "validate the machine files named as arguments (load + smoke analysis)")
	diff := flag.Bool("diff", false, "compare the two machine files (or registered keys) named as arguments")
	instrs := flag.Bool("instrs", false, "dump the instruction table")
	mnemonic := flag.String("mnemonic", "", "show only entries for this mnemonic")
	export := flag.String("export", "", "write the model as a JSON machine file to this path")
	flag.Parse()

	models := uarch.NewRegistry()
	if *machineDir != "" {
		if _, err := models.LoadDir(*machineDir); err != nil {
			fmt.Fprintf(os.Stderr, "modelinfo: %v\n", err)
			os.Exit(1)
		}
	}
	if *check {
		if flag.NArg() == 0 {
			fmt.Fprintln(os.Stderr, "modelinfo: -check needs machine-file arguments")
			os.Exit(2)
		}
		for _, path := range flag.Args() {
			if err := checkFile(path); err != nil {
				fmt.Fprintf(os.Stderr, "modelinfo: %s: FAIL: %v\n", path, err)
				os.Exit(1)
			}
		}
		return
	}
	if *diff {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "modelinfo: -diff needs exactly two machine files or keys")
			os.Exit(2)
		}
		if err := diffModels(models, flag.Arg(0), flag.Arg(1)); err != nil {
			fmt.Fprintf(os.Stderr, "modelinfo: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *keys {
		for _, k := range models.Keys() {
			fmt.Println(k)
		}
		return
	}

	var m *uarch.Model
	if *machineFile != "" {
		var err error
		// -arch defaults to "", so any non-empty value is explicit.
		m, err = uarch.ReadFile(*machineFile, *arch)
		if err != nil {
			fmt.Fprintf(os.Stderr, "modelinfo: %v\n", err)
			os.Exit(1)
		}
	} else if *arch == "" {
		for _, rm := range models.All() {
			fmt.Printf("%-12s %s (%s), %d ports, %d entries\n",
				rm.Key, rm.Name, rm.CPU, len(rm.Ports), len(rm.Entries))
		}
		return
	} else {
		var err error
		m, err = models.Get(*arch)
		if err != nil {
			fmt.Fprintf(os.Stderr, "modelinfo: %v\n", err)
			os.Exit(1)
		}
	}
	if *export != "" {
		f, err := os.Create(*export)
		if err != nil {
			fmt.Fprintf(os.Stderr, "modelinfo: %v\n", err)
			os.Exit(1)
		}
		if err := m.WriteJSON(f); err != nil {
			fmt.Fprintf(os.Stderr, "modelinfo: %v\n", err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "modelinfo: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("machine file written to %s\n", *export)
		return
	}
	fmt.Printf("%s — %s (%s, %s)\n", m.Key, m.Name, m.CPU, m.Vendor)
	fmt.Printf("fingerprint: %s\n", m.Fingerprint())
	if ck := m.CacheKey(); ck != m.Key {
		fmt.Printf("cache key: %s\n", ck)
	}
	fmt.Printf("ports (%d): %s\n", len(m.Ports), strings.Join(m.Ports, " "))
	fmt.Printf("frontend: decode %d, issue %d µops/cy, retire %d, ROB %d, scheduler %d\n",
		m.DecodeWidth, m.IssueWidth, m.RetireWidth, m.ROBSize, m.SchedSize)
	fmt.Printf("memory: load ports %s (L1 lat %d cy, %d-bit), store AGU %s, store data %s (%d-bit)\n",
		portNames(m, m.LoadPorts), m.LoadLat, m.LoadWidthBits,
		portNames(m, m.StoreAGUPorts), portNames(m, m.StoreDataPorts), m.StoreWidthBits)
	if m.WideLoadBits > 0 {
		fmt.Printf("        loads >= %d bit restricted to %s\n", m.WideLoadBits, portNames(m, m.WideLoadPorts))
	}
	fmt.Printf("SIMD: %d bit native, %d FP vector units, %d integer units\n",
		m.VecWidth, m.FPVectorUnits, m.IntUnits)
	fmt.Printf("chip: %d cores, %.2f GHz base / %.2f GHz max\n",
		m.CoresPerChip, m.BaseFreqGHz, m.MaxFreqGHz)
	if np := m.Node; np != nil {
		fmt.Printf("node: %.1f GB/s sustained, %d flops/cy/core", np.MemBWGBs, np.FlopsPerCycle)
		if np.ECM != nil {
			fmt.Printf(", ECM %g/%g B/cy", np.ECM.L1L2BytesPerCycle, np.ECM.L2L3BytesPerCycle)
		}
		if np.Freq != nil {
			fmt.Printf(", governor TDP %.0f W", np.Freq.TDPWatts)
			if np.Freq.WidestVectorExt != "" {
				fmt.Printf(" (widest %s)", np.Freq.WidestVectorExt)
			}
		}
		fmt.Println()
	}

	if !*instrs && *mnemonic == "" {
		return
	}
	fmt.Printf("\n%-16s %-10s %5s %4s %6s  %s\n", "mnemonic", "sig", "width", "lat", "rtp", "ports")
	entries := append([]uarch.Entry(nil), m.Entries...)
	sort.SliceStable(entries, func(i, j int) bool {
		if entries[i].Mnemonic != entries[j].Mnemonic {
			return entries[i].Mnemonic < entries[j].Mnemonic
		}
		return entries[i].Width < entries[j].Width
	})
	for _, e := range entries {
		if *mnemonic != "" && e.Mnemonic != *mnemonic {
			continue
		}
		var ports []string
		rtp := 0.0
		for _, u := range e.Uops {
			ports = append(ports, fmt.Sprintf("%s:%.1f", portNames(m, u.Ports), u.Cycles))
			share := u.Cycles / float64(u.Ports.Count())
			if share > rtp {
				rtp = share
			}
		}
		fmt.Printf("%-16s %-10s %5d %4d %6.2f  %s\n",
			e.Mnemonic, e.Sig, e.Width, e.Lat, rtp, strings.Join(ports, " "))
	}
}

// smokeBlocks are minimal per-dialect loop bodies every plausible
// machine model can describe; -check runs one through the analyzer to
// prove a loaded file works end to end, not just structurally.
var smokeBlocks = map[isa.Dialect]string{
	isa.DialectX86:     "\taddq $8, %rax\n\tcmpq %rbx, %rax\n\tjb .L0\n",
	isa.DialectAArch64: "\tadd x0, x0, #8\n\tcmp x0, x1\n\tb.lt .L0\n",
}

// checkFile validates one machine file: parse + Validate (ReadJSON), a
// write→read round trip that must preserve the fingerprint, and one
// smoke analysis.
func checkFile(path string) error {
	m, err := uarch.ReadFile(path, "")
	if err != nil {
		return err
	}
	var buf strings.Builder
	if err := m.WriteJSON(&buf); err != nil {
		return err
	}
	reloaded, err := uarch.ReadJSON(strings.NewReader(buf.String()))
	if err != nil {
		return fmt.Errorf("re-load of canonical form: %w", err)
	}
	if reloaded.Fingerprint() != m.Fingerprint() {
		return fmt.Errorf("fingerprint not stable across round trip: %s vs %s", m.Fingerprint(), reloaded.Fingerprint())
	}
	src, ok := smokeBlocks[m.Dialect]
	if !ok {
		return fmt.Errorf("no smoke block for dialect %v", m.Dialect)
	}
	b, err := isa.ParseBlock("smoke", m.Key, m.Dialect, src)
	if err != nil {
		return err
	}
	res, err := core.New().Analyze(b, m)
	if err != nil {
		return fmt.Errorf("smoke analysis: %w", err)
	}
	fmt.Printf("OK %s: %s fingerprint=%s cache-key=%s smoke=%.2f cy/it\n",
		path, m.Key, m.Fingerprint()[:12], m.CacheKey(), res.Prediction)
	return nil
}

// loadModelArg resolves one -diff argument: a machine-file path if the
// file exists, a key registered in models otherwise. Files go through
// ReadFile (not LoadFile) so diffing never mutates the registry.
func loadModelArg(models *uarch.Registry, arg string) (*uarch.Model, error) {
	m, err := uarch.ReadFile(arg, "")
	if errors.Is(err, fs.ErrNotExist) {
		if m, gerr := models.Get(arg); gerr == nil {
			return m, nil
		}
		return nil, fmt.Errorf("%s: not a readable machine file (%v) or registered key", arg, err)
	}
	return m, err
}

// wireMap renders a model's canonical machine-file form as a generic
// map, so the diff compares exactly what the fingerprint hashes.
func wireMap(m *uarch.Model) (map[string]json.RawMessage, error) {
	var buf strings.Builder
	if err := m.WriteJSON(&buf); err != nil {
		return nil, err
	}
	var out map[string]json.RawMessage
	if err := json.Unmarshal([]byte(buf.String()), &out); err != nil {
		return nil, err
	}
	return out, nil
}

// diffModels prints the field-level delta between two models' canonical
// wire forms, an instruction-table summary, and the two identity
// verdicts: fingerprint (result-cache sharing) and port signature
// (compiled-artifact sharing).
func diffModels(models *uarch.Registry, aArg, bArg string) error {
	a, err := loadModelArg(models, aArg)
	if err != nil {
		return err
	}
	b, err := loadModelArg(models, bArg)
	if err != nil {
		return err
	}
	wa, err := wireMap(a)
	if err != nil {
		return err
	}
	wb, err := wireMap(b)
	if err != nil {
		return err
	}

	fields := map[string]bool{}
	for k := range wa {
		fields[k] = true
	}
	for k := range wb {
		fields[k] = true
	}
	names := make([]string, 0, len(fields))
	for k := range fields {
		names = append(names, k)
	}
	sort.Strings(names)

	changed := 0
	render := func(raw json.RawMessage, ok bool) string {
		if !ok {
			return "(absent)"
		}
		var buf bytes.Buffer
		s := string(raw)
		if json.Compact(&buf, raw) == nil {
			s = buf.String()
		}
		if len(s) > 64 {
			s = s[:61] + "..."
		}
		return s
	}
	for _, k := range names {
		if k == "instructions" {
			continue
		}
		va, oka := wa[k]
		vb, okb := wb[k]
		if oka == okb && string(va) == string(vb) {
			continue
		}
		changed++
		fmt.Printf("%-20s %s -> %s\n", k, render(va, oka), render(vb, okb))
	}

	added, removed, edited := diffEntries(a.Entries, b.Entries)
	if added+removed+edited > 0 {
		changed++
		fmt.Printf("%-20s %d entries -> %d entries (%d added, %d removed, %d changed)\n",
			"instructions", len(a.Entries), len(b.Entries), added, removed, edited)
	}
	if changed == 0 {
		fmt.Println("models are identical")
	}

	if a.Fingerprint() == b.Fingerprint() {
		fmt.Printf("fingerprints: identical (%s) — the models share result-cache entries\n", a.Fingerprint()[:12])
	} else {
		fmt.Printf("fingerprints: differ (%s vs %s) — results are cached separately\n",
			a.Fingerprint()[:12], b.Fingerprint()[:12])
	}
	if a.PortSignature() == b.PortSignature() {
		fmt.Printf("port signatures: identical (%s) — compiled artifacts (descriptors, schedules, programs) are shared\n",
			a.PortSignature()[:12])
	} else {
		fmt.Printf("port signatures: differ (%s vs %s) — port-dependent artifacts compile per model\n",
			a.PortSignature()[:12], b.PortSignature()[:12])
	}
	return nil
}

// diffEntries summarizes the instruction-table delta, keyed by
// (mnemonic, sig, width).
func diffEntries(ea, eb []uarch.Entry) (added, removed, edited int) {
	type key struct {
		mnemonic, sig string
		width         int
	}
	index := func(es []uarch.Entry) map[key]string {
		m := make(map[key]string, len(es))
		for _, e := range es {
			j, _ := json.Marshal(e)
			m[key{e.Mnemonic, e.Sig, e.Width}] = string(j)
		}
		return m
	}
	ma, mb := index(ea), index(eb)
	for k, vb := range mb {
		va, ok := ma[k]
		switch {
		case !ok:
			added++
		case va != vb:
			edited++
		}
	}
	for k := range ma {
		if _, ok := mb[k]; !ok {
			removed++
		}
	}
	return added, removed, edited
}

func portNames(m *uarch.Model, mask uarch.PortMask) string {
	var names []string
	for _, i := range mask.Indices() {
		names = append(names, m.Ports[i])
	}
	return "[" + strings.Join(names, ",") + "]"
}
