// Package lint is a small, dependency-free static-analysis framework in
// the spirit of golang.org/x/tools/go/analysis, specialized for this
// repository's correctness conventions. The canonical x/tools module is
// not vendored here, so the framework re-implements the three concepts
// the analyzers need — Analyzer, Pass and Diagnostic — on top of the
// standard library's go/ast and go/types, plus the repository-specific
// annotation escape hatches (//helios:nondeterminism-ok and friends).
//
// The analyzers themselves live in sibling files: the single-package
// three (simdeterminism.go, ctxfirst.go, magiclatency.go) and the
// call-graph four (hotalloc.go, lockguard.go, goroutinelife.go,
// errtaxonomy.go) built on the cross-package Module/CallGraph layer in
// callgraph.go. Each guards a convention that no test catches. Load
// type-checks the whole module in one universe, Registry returns the
// analyzers, and cmd/heliosvet is the driver. See DESIGN.md §10 for the
// catalog and the conventions each analyzer enforces.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"slices"
	"sort"
	"strings"
)

// Analyzer is one named check. Run inspects a single type-checked
// package through the Pass and reports findings via Pass.Reportf.
type Analyzer struct {
	Name string // short lowercase identifier, e.g. "simdeterminism"
	Doc  string // one-paragraph description of the convention enforced
	Run  func(*Pass) error
}

// Diagnostic is one finding, positioned for editors and CI annotations.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// String renders the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Pass carries one type-checked package through one analyzer. Mod is
// the module universe the package was loaded in: single-package
// analyzers ignore it, while the call-graph analyzers (hotalloc,
// lockguard, goroutinelife, errtaxonomy) traverse Mod.Graph() to follow
// calls across package boundaries.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	Mod       *Module

	diags *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// annotationRe matches the repository's escape-hatch comments:
//
//	//helios:nondeterminism-ok iteration only deletes entries
//	//helios:param-ok heuristic window, not a machine parameter
//
// The key is everything between "helios:" and the first space; a
// non-empty reason is required (a bare waiver is a finding of its own,
// reported once by RunAll).
var annotationRe = regexp.MustCompile(`^//\s*helios:([a-z-]+-ok)\b[ \t]*(.*)$`)

// waiverIndex holds every //helios:*-ok comment of a module, parsed
// once when the module is built. Line waivers (Annotated) and function
// waivers (FuncAnnotated, FuncWaived) are both looked up here, in any
// package: a cross-package analyzer may report in a package other than
// the one its pass visits.
type waiverIndex struct {
	fset  *token.FileSet
	lines map[string]map[int][]string // filename → line → waiver keys
	bare  []Diagnostic                // waivers that give no reason
}

func indexWaivers(pkgs []*Package) *waiverIndex {
	w := &waiverIndex{lines: make(map[string]map[int][]string)}
	for _, pkg := range pkgs {
		w.fset = pkg.Fset // one FileSet serves every package of a module
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					m := annotationRe.FindStringSubmatch(c.Text)
					if m == nil {
						continue
					}
					at := pkg.Fset.Position(c.Pos())
					byLine := w.lines[at.Filename]
					if byLine == nil {
						byLine = make(map[int][]string)
						w.lines[at.Filename] = byLine
					}
					byLine[at.Line] = append(byLine[at.Line], m[1])
					if strings.TrimSpace(m[2]) == "" {
						w.bare = append(w.bare, Diagnostic{
							Pos:      at,
							Analyzer: "waiver",
							Message:  fmt.Sprintf("annotation //helios:%s needs a reason (\"//helios:%s <why>\")", m[1], m[1]),
						})
					}
				}
			}
		}
	}
	return w
}

// covers reports whether a //helios:<key> comment sits on at's line or
// on the line directly above (a comment-only line).
func (w *waiverIndex) covers(at token.Position, key string) bool {
	byLine := w.lines[at.Filename]
	return slices.Contains(byLine[at.Line], key) || slices.Contains(byLine[at.Line-1], key)
}

// onDoc reports whether a line of the doc comment carries a
// //helios:<key> waiver.
func (w *waiverIndex) onDoc(doc *ast.CommentGroup, key string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		at := w.fset.Position(c.Pos())
		if slices.Contains(w.lines[at.Filename][at.Line], key) {
			return true
		}
	}
	return false
}

// Annotated reports whether pos is covered by a //helios:<key> comment
// on the same line or the line directly above (a comment-only line).
func (p *Pass) Annotated(pos token.Pos, key string) bool {
	return p.Mod.waivers.covers(p.Fset.Position(pos), key)
}

// FuncAnnotated reports whether pos, or the doc comment of the function
// enclosing it, carries the annotation. Used for function-scoped waivers
// such as the legacy context.Background convenience wrappers.
func (p *Pass) FuncAnnotated(file *ast.File, pos token.Pos, key string) bool {
	if p.Annotated(pos, key) {
		return true
	}
	fd := enclosingFuncDecl(file, pos)
	return fd != nil && p.Mod.waivers.onDoc(fd.Doc, key)
}

// enclosingFuncDecl returns the top-level function declaration whose
// body spans pos, or nil.
func enclosingFuncDecl(file *ast.File, pos token.Pos) *ast.FuncDecl {
	for _, d := range file.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Pos() <= pos && pos <= fd.End() {
			return fd
		}
	}
	return nil
}

// isTestFile reports whether the node's file is a _test.go file; every
// analyzer in the suite exempts tests (determinism there is the test
// author's concern, and literal seeds in tests are deliberate).
func (p *Pass) isTestFile(pos token.Pos) bool {
	return strings.HasSuffix(p.Fset.Position(pos).Filename, "_test.go")
}

// funcFromPkg resolves a called expression to a package-level function
// of the given import path (e.g. "time".Now), seeing through selector
// uses. It returns false for methods, so rng.Intn never matches
// math/rand.Intn.
func (p *Pass) funcFromPkg(call *ast.CallExpr, pkgPath, name string) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	obj := p.TypesInfo.Uses[sel.Sel]
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != pkgPath || fn.Name() != name {
		return false
	}
	return fn.Type().(*types.Signature).Recv() == nil
}

// pkgLevelCallee returns the (*types.Func, true) a call resolves to when
// the callee is a named function or method; false for indirect calls.
func (p *Pass) pkgLevelCallee(call *ast.CallExpr) (*types.Func, bool) {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil, false
	}
	fn, ok := p.TypesInfo.Uses[id].(*types.Func)
	return fn, ok
}

// Run executes one analyzer over one loaded package and returns its
// findings sorted by position. The package forms a single-package
// module, so call-graph analyzers see only its own functions — the
// linttest harness relies on this to keep testdata universes closed.
func Run(a *Analyzer, pkg *Package) ([]Diagnostic, error) {
	return runIn(a, pkg, NewModule([]*Package{pkg}))
}

// runIn executes one analyzer over one package inside mod's universe.
func runIn(a *Analyzer, pkg *Package, mod *Module) ([]Diagnostic, error) {
	var diags []Diagnostic
	pass := &Pass{
		Analyzer:  a,
		Fset:      pkg.Fset,
		Files:     pkg.Files,
		Pkg:       pkg.Types,
		TypesInfo: pkg.TypesInfo,
		Mod:       mod,
		diags:     &diags,
	}
	if err := a.Run(pass); err != nil {
		return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
	}
	sortDiagnostics(diags)
	return diags, nil
}

// RunAll executes every analyzer over every package. All packages share
// one Module, so cross-package analyzers can chase calls from any pass
// into any other loaded package (reporting at the callee's position).
// Cross-package findings are deduplicated: two root packages reaching
// the same offending line produce one diagnostic. Every bare waiver in
// the module is reported once, under the name "waiver".
func RunAll(analyzers []*Analyzer, pkgs []*Package) ([]Diagnostic, error) {
	mod := NewModule(pkgs)
	all := slices.Clone(mod.waivers.bare)
	seen := make(map[Diagnostic]bool)
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			ds, err := runIn(a, pkg, mod)
			if err != nil {
				return nil, err
			}
			for _, d := range ds {
				if !seen[d] {
					seen[d] = true
					all = append(all, d)
				}
			}
		}
	}
	sortDiagnostics(all)
	return all, nil
}

func sortDiagnostics(ds []Diagnostic) {
	sort.Slice(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
}
