// Reachability guard: every non-test function in this module must be
// linked into at least one program. The roots are the main packages under
// cmd/, examples/ and the separate bench/ module; each is built with
// inlining off, its function symbols are read back with "go tool nm", and
// every func declaration the linker dropped is reported. What only tests
// call belongs in a _test.go file.
package incore_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// unreachedAllowed lists functions no program calls that stay anyway,
// each with the reason it stays. Keys read as unreachedFuncs reports them.
var unreachedAllowed = map[string]string{
	"incore/internal/memsim.(*System).RunCopy": "copy runs are pinned by golden_memsim.json; no figure or table prints one",
}

func TestEveryFuncReachable(t *testing.T) {
	var dead []string
	allowed := 0
	for _, fn := range unreachedFuncs(t, ".", "bench") {
		if _, ok := unreachedAllowed[fn]; ok {
			allowed++
		} else {
			dead = append(dead, fn)
		}
	}
	if allowed != len(unreachedAllowed) {
		t.Errorf("unreachedAllowed lists %d functions but only %d are unreached; drop the entries a program now calls",
			len(unreachedAllowed), allowed)
	}
	if len(dead) > 0 {
		t.Errorf("%d functions are linked into no program under cmd/, examples/ or bench/; "+
			"delete them, move them into a _test.go file, or list them with a reason in unreachedAllowed:\n\t%s",
			len(dead), strings.Join(dead, "\n\t"))
	}
}

// TestUnreachedFuncsFixture runs the scan over a module with one main, an
// exported function nothing calls and a method only an interface call
// reaches: exactly the uncalled function may be reported, so the guard
// cannot pass because symbols or declarations silently came back empty.
func TestUnreachedFuncsFixture(t *testing.T) {
	got := unreachedFuncs(t, filepath.Join("testdata", "reachfix"))
	want := []string{"reachfix/shape.Unused"}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("unreached = %q, want %q", got, want)
	}
}

// goPackage is the part of "go list -json" the scan reads.
type goPackage struct {
	Dir, ImportPath, Name string
	GoFiles               []string
}

// unreachedFuncs builds every main package of the module at dir, and the
// main package of each extra module directory under it (a root only: its
// own functions are not checked), and returns the sorted symbol names of
// the module's non-test func declarations that none of the programs
// contains. A main package's functions are looked up in its own program.
func unreachedFuncs(t *testing.T, dir string, extraRoots ...string) []string {
	t.Helper()
	bin := t.TempDir()
	pkgs := listPackages(t, dir)
	var mains []string
	for _, p := range pkgs {
		if p.Name == "main" {
			mains = append(mains, p.ImportPath)
		}
	}
	if len(mains) == 0 {
		t.Fatalf("no main package in %s", dir)
	}
	goCmd(t, dir, append([]string{"build", "-gcflags=all=-l", "-o", bin + string(filepath.Separator)}, mains...)...)
	for _, root := range extraRoots {
		goCmd(t, filepath.Join(dir, root), "build", "-gcflags=all=-l", "-o", filepath.Join(bin, "extra-"+filepath.Base(root)), ".")
	}

	all := map[string]bool{}
	perMain := map[string]map[string]bool{}
	entries, err := os.ReadDir(bin)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		syms := funcSymbols(t, filepath.Join(bin, e.Name()))
		perMain[strings.TrimSuffix(e.Name(), ".exe")] = syms
		for s := range syms {
			all[s] = true
		}
	}

	var out []string
	fset := token.NewFileSet()
	for _, p := range pkgs {
		prefix, have := p.ImportPath, all
		if p.Name == "main" {
			prefix, have = "main", perMain[path.Base(p.ImportPath)]
		}
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Name.Name == "_" || (fd.Recv == nil && fd.Name.Name == "init") {
					continue
				}
				declared, wrapper := symbolNames(prefix, fd)
				if !have[declared] && !have[wrapper] {
					out = append(out, strings.Replace(declared, "main.", p.ImportPath+".", 1))
				}
			}
		}
	}
	sort.Strings(out)
	return out
}

// symbolNames gives the linker's name for fd in package prefix, with type
// arguments dropped, and for a method on a value receiver T also the name
// of the wrapper the compiler generates for *T, which may be linked in its
// place.
func symbolNames(prefix string, fd *ast.FuncDecl) (declared, wrapper string) {
	if fd.Recv == nil {
		return prefix + "." + fd.Name.Name, ""
	}
	typ := fd.Recv.List[0].Type
	star, isPointer := typ.(*ast.StarExpr)
	if isPointer {
		typ = star.X
	}
	switch g := typ.(type) {
	case *ast.IndexExpr:
		typ = g.X
	case *ast.IndexListExpr:
		typ = g.X
	}
	recv := typ.(*ast.Ident).Name
	if isPointer {
		return prefix + ".(*" + recv + ")." + fd.Name.Name, ""
	}
	return prefix + "." + recv + "." + fd.Name.Name, prefix + ".(*" + recv + ")." + fd.Name.Name
}

// funcSymbols returns the text symbols of the program at file, with
// bracketed type arguments removed. A line of "go tool nm" output is an
// address, a type letter and a name, which may itself contain spaces
// (shape types such as go.shape.struct { X int }).
func funcSymbols(t *testing.T, file string) map[string]bool {
	t.Helper()
	out := goCmd(t, ".", "tool", "nm", file)
	syms := map[string]bool{}
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		f := strings.SplitN(strings.TrimSpace(sc.Text()), " ", 3)
		if len(f) == 3 && (f[1] == "T" || f[1] == "t") {
			syms[dropTypeArgs(f[2])] = true
		}
	}
	return syms
}

func dropTypeArgs(sym string) string {
	var b strings.Builder
	depth := 0
	for _, r := range sym {
		switch {
		case r == '[':
			depth++
		case r == ']':
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	return b.String()
}

func listPackages(t *testing.T, dir string) []goPackage {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(goCmd(t, dir, "list", "-json=Dir,ImportPath,Name,GoFiles", "./...")))
	var pkgs []goPackage
	for {
		var p goPackage
		if err := dec.Decode(&p); err == io.EOF {
			return pkgs
		} else if err != nil {
			t.Fatal(err)
		}
		pkgs = append(pkgs, p)
	}
}

func goCmd(t *testing.T, dir string, args ...string) []byte {
	t.Helper()
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go %s (in %s): %v\n%s", strings.Join(args, " "), dir, err, stderr.Bytes())
	}
	return out
}
