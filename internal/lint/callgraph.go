package lint

import (
	"go/ast"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// This file is the cross-package layer under the domain analyzers
// (DESIGN.md §10): a Module groups every package of one Load into a
// single analysis universe, and its CallGraph resolves static calls
// across package boundaries so reachability-based rules (hotalloc's
// "nothing reachable from a hot root allocates", lockguard's lock-order
// edges, goroutinelife's named-function goroutine bodies) can follow a
// call from internal/ooo into internal/cache or internal/stats without
// any per-analyzer plumbing.
//
// The graph is deliberately static and conservative: only calls whose
// callee resolves to a named function or method *declared in the
// module* become edges. Calls through interfaces, function values and
// the standard library are not edges — analyzers that care (hotalloc)
// treat an unresolvable call as its own finding rather than silently
// assuming it is safe.

// Module is one analysis universe: every package loaded together, plus
// the module-wide waiver index and the lazily built call graph.
type Module struct {
	Pkgs []*Package

	graph   *CallGraph
	waivers *waiverIndex
	facts   map[string]any
}

// Fact returns the module-scoped fact stored under key, creating it
// with mk on first use. Analyzers use facts to accumulate state across
// per-package passes — lockguard's lock-order edge set must span
// packages, or an A→B edge seen in one package could never meet its
// B→A partner seen in another. RunAll visits packages in deterministic
// (dependency) order, so fact accumulation is reproducible.
func (m *Module) Fact(key string, mk func() any) any {
	if m.facts == nil {
		m.facts = make(map[string]any)
	}
	v, ok := m.facts[key]
	if !ok {
		v = mk()
		m.facts[key] = v
	}
	return v
}

// NewModule groups the packages into one universe. All packages must
// share one *token.FileSet (both Load and the linttest harness do).
func NewModule(pkgs []*Package) *Module {
	return &Module{Pkgs: pkgs, waivers: indexWaivers(pkgs)}
}

// Graph returns the module's call graph, building it on first use.
func (m *Module) Graph() *CallGraph {
	if m.graph == nil {
		m.graph = buildCallGraph(m.Pkgs, m.waivers)
	}
	return m.graph
}

// FuncNode is one declared function or method in the module.
type FuncNode struct {
	Fn   *types.Func   // the type-checker's identity for the function
	Decl *ast.FuncDecl // its declaration (body may be nil for externs)
	Pkg  *Package      // the package that declares it

	// Callees are the statically resolved out-edges, in source order of
	// the first call site, deduplicated.
	Callees []*FuncNode
}

// Name returns a diagnostic-friendly name ("(*Pipeline).commitStage").
func (n *FuncNode) Name() string {
	sig, ok := n.Fn.Type().(*types.Signature)
	if ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		return "(" + types.TypeString(t, func(p *types.Package) string { return "" }) + ")." + n.Fn.Name()
	}
	return n.Fn.Name()
}

// CallGraph maps every function declared in the module to its node.
type CallGraph struct {
	nodes map[*types.Func]*FuncNode
	// ordered holds the nodes in deterministic (position) order so
	// traversals report findings stably.
	ordered []*FuncNode
	waivers *waiverIndex
}

// hotpathRe matches the root marker for reachability analyses:
//
//	//helios:hotpath commit-side per-cycle loop; must stay allocation-free
//
// Unlike the *-ok escape hatches, hotpath is an opt-in root, not a
// waiver, so it lives outside the annotationRe grammar.
var hotpathRe = regexp.MustCompile(`^//\s*helios:hotpath\b`)

func buildCallGraph(pkgs []*Package, waivers *waiverIndex) *CallGraph {
	g := &CallGraph{nodes: make(map[*types.Func]*FuncNode), waivers: waivers}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Name == nil {
					continue
				}
				fn, ok := pkg.TypesInfo.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				g.nodes[fn] = &FuncNode{Fn: fn, Decl: fd, Pkg: pkg}
			}
		}
	}
	for _, node := range g.nodes {
		g.ordered = append(g.ordered, node)
	}
	sort.Slice(g.ordered, func(i, j int) bool {
		a, b := g.ordered[i], g.ordered[j]
		if a.Pkg.Path != b.Pkg.Path {
			return a.Pkg.Path < b.Pkg.Path
		}
		return a.Decl.Pos() < b.Decl.Pos()
	})
	for _, node := range g.ordered {
		if node.Decl.Body == nil {
			continue
		}
		seen := make(map[*FuncNode]bool)
		pkg := node.Pkg
		ast.Inspect(node.Decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := resolveCallee(pkg.TypesInfo, call)
			if callee == nil {
				return true
			}
			target, ok := g.nodes[callee]
			if !ok || seen[target] {
				return true
			}
			seen[target] = true
			node.Callees = append(node.Callees, target)
			return true
		})
	}
	return g
}

// resolveCallee returns the *types.Func a call statically resolves to,
// or nil for indirect calls (function values, interface methods,
// builtins, conversions).
func resolveCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, ok := info.Uses[id].(*types.Func)
	if !ok {
		return nil
	}
	// An interface method has no body in the module; the *types.Func of
	// the interface's method set is distinct from any implementation's,
	// so the nodes lookup naturally fails for dynamic dispatch.
	return fn
}

// NodeOf returns the node for a resolved function, or nil.
func (g *CallGraph) NodeOf(fn *types.Func) *FuncNode { return g.nodes[fn] }

// Nodes returns every node in deterministic order.
func (g *CallGraph) Nodes() []*FuncNode { return g.ordered }

// HotpathRoots returns the functions declared in pkg whose doc comment
// carries the //helios:hotpath marker, in source order.
func (g *CallGraph) HotpathRoots(pkg *types.Package) []*FuncNode {
	var roots []*FuncNode
	for _, n := range g.ordered {
		if n.Pkg.Types != pkg || n.Decl.Doc == nil {
			continue
		}
		for _, c := range n.Decl.Doc.List {
			if hotpathRe.MatchString(c.Text) {
				roots = append(roots, n)
				break
			}
		}
	}
	return roots
}

// FuncWaived reports whether the node's declaration doc carries the
// given //helios:<key> waiver. A waived function is both silenced and a
// traversal barrier: its callees are vouched for by the waiver's reason.
func (g *CallGraph) FuncWaived(n *FuncNode, key string) bool {
	return g.waivers.onDoc(n.Decl.Doc, key)
}

// Reachable walks the graph from the roots, skipping functions waived
// with waiveKey (and everything only reachable through them), and
// returns the visited nodes in deterministic breadth-first order.
func (g *CallGraph) Reachable(roots []*FuncNode, waiveKey string) []*FuncNode {
	var (
		order   []*FuncNode
		visited = make(map[*FuncNode]bool)
		queue   []*FuncNode
	)
	for _, r := range roots {
		if !visited[r] {
			visited[r] = true
			queue = append(queue, r)
		}
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		order = append(order, n)
		for _, c := range n.Callees {
			if visited[c] {
				continue
			}
			if waiveKey != "" && g.FuncWaived(c, waiveKey) {
				continue
			}
			if strings.HasSuffix(c.Pkg.Fset.Position(c.Decl.Pos()).Filename, "_test.go") {
				continue
			}
			visited[c] = true
			queue = append(queue, c)
		}
	}
	return order
}
