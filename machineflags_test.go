package incore_test

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"incore/internal/uarch"
)

// machineTools are the CLIs that take -machine and -machine-dir, each
// with arguments that make one cheap run against the resolved model.
var machineTools = []struct {
	name string
	args func(asm string) []string
}{
	{"osaca", func(asm string) []string { return []string{asm} }},
	{"corpus", func(asm string) []string { return []string{asm} }},
	{"ibench", func(string) []string { return []string{"-instr", "vecadd", "-dump-asm"} }},
	{"modelinfo", func(string) []string { return nil }},
}

// TestMachineFlags drives the built CLIs: a -machine-dir model resolves
// by its key in every tool, -machine honours only an explicit -arch, and
// a -machine-dir file that reuses a built-in key with other content is
// refused with one error prefix. sweep, which takes -machine but no
// -machine-dir, sweeps an edited built-in under its fingerprinted cache
// key and reports a truncated file with the same single prefix; a
// goldencove export under another key sweeps the kernel suite generated
// from the file and predicts what -arch goldencove does. osaca
// -ecm refuses a loop without memory access, whose element count the
// block cannot tell. The committed zen4 machine file given to -machine
// is the built-in, quirks included: osaca -sim -compare prints the same
// bytes for it as for -arch zen4.
func TestMachineFlags(t *testing.T) {
	bin := t.TempDir()
	pkgs := []string{"./cmd/sweep"}
	for _, tool := range machineTools {
		pkgs = append(pkgs, "./cmd/"+tool.name)
	}
	goCmd(t, ".", append([]string{"build", "-o", bin + string(filepath.Separator)}, pkgs...)...)

	data := t.TempDir()
	asm := filepath.Join(data, "loop.s")
	if err := os.WriteFile(asm, []byte(".L0:\n\taddq $8, %rax\n\tcmpq %rbx, %rax\n\tjb .L0\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(data, "models")
	rekeyed := writeVariant(t, "zen4", dir, "sd2.json", func(m *uarch.Model) { m.Key = "zen4-sd2" })
	clash := filepath.Join(data, "clash")
	writeVariant(t, "zen4", clash, "z.json", func(m *uarch.Model) { m.Name = "Zen 4 edited" })
	whole, err := os.ReadFile(rekeyed)
	if err != nil {
		t.Fatal(err)
	}
	truncated := filepath.Join(data, "truncated.json")
	if err := os.WriteFile(truncated, whole[:len(whole)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	run := func(tool string, args ...string) (string, error) {
		cmd := exec.Command(filepath.Join(bin, tool), args...)
		var out bytes.Buffer
		cmd.Stdout, cmd.Stderr = &out, &out
		err := cmd.Run()
		return out.String(), err
	}
	for _, tool := range machineTools {
		if out, err := run(tool.name, append([]string{"-machine-dir", dir, "-arch", "zen4-sd2"}, tool.args(asm)...)...); err != nil {
			t.Errorf("%s -machine-dir -arch zen4-sd2: %v\n%s", tool.name, err, out)
		}
		if out, err := run(tool.name, append([]string{"-machine", rekeyed}, tool.args(asm)...)...); err != nil {
			t.Errorf("%s -machine with the default -arch: %v\n%s", tool.name, err, out)
		}
		out, err := run(tool.name, append([]string{"-machine", rekeyed, "-arch", "zen4"}, tool.args(asm)...)...)
		if err == nil || !strings.Contains(out, "does not match") {
			t.Errorf("%s -machine with -arch zen4: err %v, want a \"does not match\" failure\n%s", tool.name, err, out)
		}
		out, err = run(tool.name, append([]string{"-machine-dir", clash, "-arch", "zen4"}, tool.args(asm)...)...)
		if err == nil || !strings.Contains(out, "already registered with different content") {
			t.Errorf("%s -machine-dir with an edited zen4: err %v, want a key collision\n%s", tool.name, err, out)
		} else if n := strings.Count(out, "uarch:"); n != 1 {
			t.Errorf("%s: the collision error carries the uarch: prefix %d times, want once\n%s", tool.name, n, out)
		}
		out, err = run(tool.name, append([]string{"-machine", truncated}, tool.args(asm)...)...)
		if err == nil || !strings.Contains(out, "unexpected EOF") {
			t.Errorf("%s -machine with a truncated file: err %v, want an unexpected EOF\n%s", tool.name, err, out)
		} else if n := strings.Count(out, "uarch:"); n != 1 {
			t.Errorf("%s: the truncated-file error carries the uarch: prefix %d times, want once\n%s", tool.name, n, out)
		}
	}
	out, err := run("osaca", "-arch", "zen4", "-ecm", "MEM", asm)
	if err == nil || !strings.Contains(out, "has no memory access") || strings.Contains(out, "T_ECM") {
		t.Errorf("osaca -ecm on a loop without memory access: err %v, want a refusal and no ECM numbers\n%s", err, out)
	}
	div := filepath.Join(data, "div.s")
	if err := os.WriteFile(div, []byte(".L0:\n\tvdivsd %xmm1, %xmm2, %xmm3\n\tvdivsd %xmm4, %xmm5, %xmm6\n\taddq $8, %rax\n\tcmpq %rbx, %rax\n\tjb .L0\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	builtin, err := exec.Command(filepath.Join(bin, "osaca"), "-arch", "zen4", "-sim", "-compare", div).Output()
	if err != nil {
		t.Fatalf("osaca -arch zen4 -sim -compare: %v", err)
	}
	for _, line := range []string{"prediction       :   10.00 cy/it", "llvm-mca-style     :   10.08 cy/it", "simulated measured :    7.00 cy/it"} {
		if !bytes.Contains(builtin, []byte(line)) {
			t.Errorf("osaca -arch zen4 -sim -compare on two vdivsd: want %q\n%s", line, builtin)
		}
	}
	file, err := exec.Command(filepath.Join(bin, "osaca"), "-machine", filepath.Join("internal", "uarch", "machines", "zen4.json"), "-sim", "-compare", div).Output()
	if err != nil || !bytes.Equal(file, builtin) {
		t.Errorf("osaca -machine internal/uarch/machines/zen4.json -sim -compare: err %v, want the -arch zen4 bytes\n%s", err, file)
	}
	out, err = run("modelinfo", "-machine-dir", dir, "-keys")
	if err != nil || !strings.Contains("\n"+out, "\nzen4-sd2\n") {
		t.Errorf("modelinfo -machine-dir -keys: err %v, want zen4-sd2 listed\n%s", err, out)
	}

	edited := filepath.Join(clash, "z.json")
	cmd := exec.Command(filepath.Join(bin, "sweep"), "-machine", edited, "-axis", "tdp_watts=300,400", "-format", "json")
	stdout, err := cmd.Output()
	var res struct {
		BaseCacheKey string `json:"base_cache_key"`
	}
	if err != nil {
		t.Errorf("sweep -machine with an edited zen4: %v", err)
	} else if err := json.Unmarshal(stdout, &res); err != nil || !strings.HasPrefix(res.BaseCacheKey, "zen4@") {
		t.Errorf("sweep -machine with an edited zen4: base_cache_key %q (%v), want zen4@…", res.BaseCacheKey, err)
	}
	gc2 := writeVariant(t, "goldencove", data, "gc2.json", func(m *uarch.Model) { m.Key = "gc2" })
	var byKey, byFile sweepJSON
	sweepInto(t, &byKey, filepath.Join(bin, "sweep"), "-arch", "goldencove", "-axis", "issue_width=6", "-format", "json")
	sweepInto(t, &byFile, filepath.Join(bin, "sweep"), "-machine", gc2, "-axis", "issue_width=6", "-format", "json")
	if !strings.HasPrefix(byFile.BaseCacheKey, "gc2@") || len(byFile.Blocks) != 156 || len(byKey.Blocks) != 156 {
		t.Errorf("sweep -machine gc2.json: base_cache_key %q over %d blocks, want gc2@… over the %d of -arch goldencove",
			byFile.BaseCacheKey, len(byFile.Blocks), len(byKey.Blocks))
	} else {
		for i, name := range byKey.Blocks {
			if want := strings.TrimSuffix(name, "-goldencove") + "-gc2"; byFile.Blocks[i] != want {
				t.Errorf("sweep -machine gc2.json: block %d is %q, want %q", i, byFile.Blocks[i], want)
			}
		}
	}
	if len(byFile.Variants) != 1 || len(byKey.Variants) != 1 {
		t.Fatalf("sweep over one issue_width: %d and %d variants, want 1", len(byFile.Variants), len(byKey.Variants))
	}
	if got, want := byFile.Variants[0], byKey.Variants[0]; !reflect.DeepEqual(got, want) {
		t.Errorf("sweep -machine gc2.json predicts\n%+v\nwant -arch goldencove's\n%+v", got, want)
	}
	out, err = run("sweep", "-machine", truncated, "-axis", "tdp_watts=300,400")
	if err == nil || !strings.Contains(out, "sweep: uarch: "+truncated+": machine file: unexpected EOF") {
		t.Errorf("sweep -machine with a truncated file: err %v, want a one-prefix unexpected EOF\n%s", err, out)
	} else if n := strings.Count(out, "uarch:"); n != 1 {
		t.Errorf("sweep: the truncated-file error carries the uarch: prefix %d times, want once\n%s", n, out)
	}
	out, err = run("sweep", "-machine", rekeyed, "-arch", "zen4", "-axis", "tdp_watts=300,400")
	if err == nil || !strings.Contains(out, "mutually exclusive") {
		t.Errorf("sweep -machine with -arch: err %v, want \"mutually exclusive\"\n%s", err, out)
	}
}

// sweepJSON is the part of cmd/sweep's JSON that a machine file under
// another key must reproduce: everything a variant predicts, and the
// block names.
type sweepJSON struct {
	BaseCacheKey string   `json:"base_cache_key"`
	Blocks       []string `json:"blocks"`
	Variants     []struct {
		PortSignature   string    `json:"port_signature"`
		Predictions     []float64 `json:"predictions"`
		TotalCycles     float64   `json:"total_cycles"`
		SustainedGHz    float64   `json:"sustained_ghz"`
		SustainedGFLOPs float64   `json:"sustained_gflops"`
	} `json:"variants"`
}

// sweepInto runs the sweep binary with args and decodes its JSON into v.
func sweepInto(t *testing.T, v *sweepJSON, bin string, args ...string) {
	t.Helper()
	out, err := exec.Command(bin, args...).Output()
	if err != nil {
		t.Fatalf("sweep %s: %v", strings.Join(args, " "), err)
	}
	if err := json.Unmarshal(out, v); err != nil {
		t.Fatalf("sweep %s: %v", strings.Join(args, " "), err)
	}
}

// writeVariant writes a copy of the built-in base, changed by edit, as
// dir/name and returns its path.
func writeVariant(t *testing.T, base, dir, name string, edit func(*uarch.Model)) string {
	t.Helper()
	var buf bytes.Buffer
	if err := uarch.MustGet(base).WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	m, err := uarch.ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	edit(m)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.WriteJSON(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}
