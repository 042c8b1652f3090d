package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package ready for analysis.
type Package struct {
	Path      string // import path ("helios/internal/ooo")
	Name      string // package name ("ooo")
	Dir       string
	Fset      *token.FileSet
	Files     []*ast.File
	Types     *types.Package
	TypesInfo *types.Info
}

// listedPackage is the subset of `go list -json` output the loader needs.
type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Imports    []string
	Module     *struct{ Path string }
}

// Load type-checks every package of the module that contains dir, in
// one universe. It finds the module root (the nearest go.mod at or
// above dir), lists ./... there with the go command, and checks each
// listed package from source exactly once, so every import path has one
// *types.Package. Only non-test Go files are analyzed — every analyzer
// in the suite exempts tests anyway. An in-module import that the
// listing lacks is an error, never a second copy of the package; the
// standard library is type-checked from GOROOT source, which keeps the
// loader free of external dependencies and network access.
func Load(dir string) ([]*Package, error) {
	root, err := moduleRoot(dir)
	if err != nil {
		return nil, err
	}
	listed, err := goList(root)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	ld := &loader{
		fset:    fset,
		byPath:  make(map[string]*listedPackage, len(listed)),
		checked: make(map[string]*Package),
		std:     importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
	}
	for _, lp := range listed {
		ld.byPath[lp.ImportPath] = lp
		if lp.Module != nil {
			ld.module = lp.Module.Path
		}
	}
	// Deterministic order: dependency-first so the in-module importer
	// always finds its imports already checked, ties broken by path.
	order, err := topoOrder(listed)
	if err != nil {
		return nil, err
	}
	pkgs := make([]*Package, 0, len(order))
	for _, path := range order {
		pkg, err := ld.check(path)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// moduleRoot returns the nearest directory at or above dir that holds a
// go.mod.
func moduleRoot(dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", fmt.Errorf("lint: %w", err)
	}
	for d := abs; ; d = filepath.Dir(d) {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			return d, nil
		}
		if d == filepath.Dir(d) {
			return "", fmt.Errorf("lint: no go.mod at or above %s", abs)
		}
	}
}

// goList shells out to `go list -json ./...` in the module root and
// decodes the package stream.
func goList(root string) ([]*listedPackage, error) {
	cmd := exec.Command("go", "list", "-json", "./...")
	cmd.Dir = root
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("lint: go list ./... in %s: %v\n%s", root, err, errb.String())
	}
	var listed []*listedPackage
	dec := json.NewDecoder(&out)
	for dec.More() {
		lp := new(listedPackage)
		if err := dec.Decode(lp); err != nil {
			return nil, fmt.Errorf("lint: decoding go list output: %v", err)
		}
		listed = append(listed, lp)
	}
	return listed, nil
}

// topoOrder returns the listed import paths dependency-first.
func topoOrder(listed []*listedPackage) ([]string, error) {
	byPath := make(map[string]*listedPackage, len(listed))
	for _, lp := range listed {
		byPath[lp.ImportPath] = lp
	}
	var (
		order   []string
		visit   func(path string) error
		state   = make(map[string]int) // 0 new, 1 visiting, 2 done
		pending []string
	)
	visit = func(path string) error {
		lp, ok := byPath[path]
		if !ok {
			return nil // outside the module: the standard library
		}
		switch state[path] {
		case 1:
			return fmt.Errorf("lint: import cycle through %s", path)
		case 2:
			return nil
		}
		state[path] = 1
		for _, imp := range lp.Imports {
			if err := visit(imp); err != nil {
				return err
			}
		}
		state[path] = 2
		order = append(order, path)
		return nil
	}
	for _, lp := range listed {
		pending = append(pending, lp.ImportPath)
	}
	sort.Strings(pending)
	for _, path := range pending {
		if err := visit(path); err != nil {
			return nil, err
		}
	}
	return order, nil
}

// loader type-checks listed packages, caching results so each package —
// and each standard-library dependency — is checked once per Load.
type loader struct {
	fset    *token.FileSet
	module  string // the module path
	byPath  map[string]*listedPackage
	checked map[string]*Package
	std     types.ImporterFrom
}

// Import implements types.Importer: module packages come from the
// listing, everything else from standard-library source.
func (ld *loader) Import(path string) (*types.Package, error) {
	return ld.ImportFrom(path, "", 0)
}

func (ld *loader) ImportFrom(path, srcDir string, mode types.ImportMode) (*types.Package, error) {
	if pkg, ok := ld.checked[path]; ok {
		return pkg.Types, nil
	}
	if lp, ok := ld.byPath[path]; ok {
		pkg, err := ld.check(lp.ImportPath)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	if path == ld.module || strings.HasPrefix(path, ld.module+"/") {
		return nil, fmt.Errorf("lint: %s is in module %s but not among its ./... packages (missing, or under testdata or a _ directory)", path, ld.module)
	}
	return ld.std.ImportFrom(path, srcDir, mode)
}

// check parses and type-checks one listed package.
func (ld *loader) check(path string) (*Package, error) {
	if pkg, ok := ld.checked[path]; ok {
		return pkg, nil
	}
	lp := ld.byPath[path]
	var files []*ast.File
	for _, name := range lp.GoFiles {
		f, err := parser.ParseFile(ld.fset, filepath.Join(lp.Dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("lint: %w", err)
		}
		files = append(files, f)
	}
	pkg, err := CheckFiles(ld.fset, path, files, ld)
	if err != nil {
		return nil, err
	}
	pkg.Dir = lp.Dir
	ld.checked[path] = pkg
	return pkg, nil
}

// CheckFiles type-checks a parsed file set as one package. It is shared
// by the loader and the linttest harness (which parses testdata
// directories directly, outside any go list universe).
func CheckFiles(fset *token.FileSet, path string, files []*ast.File, imp types.Importer) (*Package, error) {
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(path, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", path, err)
	}
	return &Package{
		Path:      path,
		Name:      tpkg.Name(),
		Fset:      fset,
		Files:     files,
		Types:     tpkg,
		TypesInfo: info,
	}, nil
}
