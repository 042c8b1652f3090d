package lint_test

import (
	"go/types"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"helios/internal/lint"
)

// writeTree lays a synthetic module out in a temporary directory and
// returns its root.
func writeTree(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	for name, src := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// TestLoadSyntheticModule: `app` imports both its sibling `util` (the
// in-module importer) and the standard library's strings (the source
// importer).
func TestLoadSyntheticModule(t *testing.T) {
	dir := writeTree(t, map[string]string{
		"go.mod": "module loadtest\n\ngo 1.22\n",
		"util/util.go": `package util

// Shout is imported by app, so the loader must check util first.
func Shout(s string) string { return s + "!" }
`,
		"app/app.go": `package app

import (
	"strings"

	"loadtest/util"
)

// Banner leans on a stdlib function, forcing the loader's
// source-importer fallback to type-check strings from GOROOT source.
func Banner(s string) string { return util.Shout(strings.ToUpper(s)) }
`,
	})

	pkgs, err := lint.Load(dir)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(pkgs) != 2 {
		t.Fatalf("loaded %d packages, want 2", len(pkgs))
	}
	// Dependency-first order: util must be checked before app imports it.
	if pkgs[0].Path != "loadtest/util" || pkgs[1].Path != "loadtest/app" {
		t.Fatalf("topo order = [%s %s], want [loadtest/util loadtest/app]", pkgs[0].Path, pkgs[1].Path)
	}
	app, util := pkgs[1], pkgs[0]

	// The in-module import must resolve to the very *types.Package the
	// loader checked — pointer identity is what lets the call graph match
	// type objects across packages.
	var sawUtil, sawStrings bool
	for _, imp := range app.Types.Imports() {
		switch imp.Path() {
		case "loadtest/util":
			sawUtil = true
			if imp != util.Types {
				t.Error("app's util import is not the loader-checked *types.Package (identity broken)")
			}
		case "strings":
			sawStrings = true
			if !imp.Complete() {
				t.Error("strings was not fully type-checked by the source-importer fallback")
			}
		}
	}
	if !sawUtil || !sawStrings {
		t.Fatalf("app imports = %v, want both loadtest/util and strings", app.Types.Imports())
	}

	// The fallback-resolved object must be a real, typed function.
	strPkg := func() *types.Package {
		for _, imp := range app.Types.Imports() {
			if imp.Path() == "strings" {
				return imp
			}
		}
		return nil
	}()
	fn, ok := strPkg.Scope().Lookup("ToUpper").(*types.Func)
	if !ok {
		t.Fatal("strings.ToUpper missing from the fallback-imported package scope")
	}
	if fn.Type().(*types.Signature).Results().Len() != 1 {
		t.Errorf("strings.ToUpper signature = %s, want one result", fn.Type())
	}
}

// TestLoadWholeModuleFromSubdir loads a module from one package's
// directory. srv assigns samp's sampler to tel's interface, whose
// method names a tel type, so it type-checks only if srv and samp see
// one tel. The whole module must come back, with one *types.Package
// per import path.
func TestLoadWholeModuleFromSubdir(t *testing.T) {
	dir := writeTree(t, map[string]string{
		"go.mod": "module loadtest\n\ngo 1.22\n",
		"tel/tel.go": `package tel

type Info struct{ Slow bool }

type Sampler interface{ Sample(Info) bool }
`,
		"samp/samp.go": `package samp

import "loadtest/tel"

type Tail struct{}

func (*Tail) Sample(i tel.Info) bool { return i.Slow }

func New() *Tail { return &Tail{} }
`,
		"srv/srv.go": `package srv

import (
	"loadtest/samp"
	"loadtest/tel"
)

func Default() tel.Sampler {
	var s tel.Sampler
	s = samp.New()
	return s
}
`,
	})

	pkgs, err := lint.Load(filepath.Join(dir, "srv"))
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	byPath := map[string]*types.Package{}
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		if prev, ok := byPath[p.Path()]; ok {
			if prev != p {
				t.Errorf("%s type-checked twice", p.Path())
			}
			return
		}
		byPath[p.Path()] = p
		for _, imp := range p.Imports() {
			walk(imp)
		}
	}
	var paths []string
	for _, pkg := range pkgs {
		paths = append(paths, pkg.Path)
		walk(pkg.Types)
	}
	if want := []string{"loadtest/tel", "loadtest/samp", "loadtest/srv"}; !slices.Equal(paths, want) {
		t.Errorf("loaded %v, want %v", paths, want)
	}
}

// TestLoadListErrors: a failing go list (here a malformed go.mod), and
// an in-module import that `go list ./...` does not list — a missing
// package, or one under testdata, which is importable but never matched
// by ./... — are errors, not panics, empty loads or a second, unaudited
// universe. Each load runs from inside its module, as heliosvet does:
// from there the standard library's source importer would resolve the
// testdata package.
func TestLoadListErrors(t *testing.T) {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := os.Chdir(wd); err != nil {
			t.Error(err)
		}
	})
	const goMod = "module loadtest\n\ngo 1.22\n"
	for name, files := range map[string]map[string]string{
		"bad go.mod": {"go.mod": goMod + "bogus\n"},
		"missing": {
			"go.mod":     goMod,
			"app/app.go": "package app\n\nimport \"loadtest/nosuch\"\n\nvar _ = nosuch.X\n",
		},
		"unlisted": {
			"go.mod":          goMod,
			"app/app.go":      "package app\n\nimport \"loadtest/testdata/x\"\n\nvar _ = x.X\n",
			"testdata/x/x.go": "package x\n\nconst X = 1\n",
		},
	} {
		dir := writeTree(t, files)
		if err := os.Chdir(dir); err != nil {
			t.Fatal(err)
		}
		if _, err := lint.Load(dir); err == nil {
			t.Errorf("%s: Load succeeded, want error", name)
		}
	}
}

// TestLoadTypeError: a package that does not type-check must fail with
// a positioned error naming the package.
func TestLoadTypeError(t *testing.T) {
	dir := writeTree(t, map[string]string{
		"go.mod": "module loadtest\n\ngo 1.22\n",
		"bad/bad.go": `package bad

func Broken() int { return "not an int" }
`,
	})
	if _, err := lint.Load(dir); err == nil {
		t.Fatal("Load of an ill-typed package succeeded, want error")
	}
}
