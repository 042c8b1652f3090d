package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// HotAlloc turns the arena win (DESIGN.md §13: −92% allocs per replay)
// into a compile-time contract: every function reachable from a
// //helios:hotpath root must be allocation-free and map-free. The
// allocation pins (TestCommitObsOffNoAllocs, and the exact ledger's
// allocs per replay) prove the count on fixed inputs; this analyzer
// proves the property over the whole static call closure, across
// packages, on every CI run.
//
// Inside the closure the analyzer flags, line by line:
//
//   - append (may grow the backing array), make, new
//   - map reads, writes, deletes and iteration
//   - composite literals that escape (&T{...}, slice/map literals)
//   - function literals (closures allocate their environment)
//   - implicit interface conversions at call boundaries and explicit
//     conversions to interface types
//   - string concatenation
//   - calls to fmt, and any call the graph cannot resolve (interface
//     methods, function values, out-of-module functions) — unprovable
//     is treated as a finding, not as safe
//
// Escape hatches: //helios:hotalloc-ok <reason> on the offending line
// (or the line above) waives one site; the same annotation in a
// function's doc comment waives the whole function and stops traversal
// into it — the reason vouches for everything behind it (the obs-enabled
// emit path, the flush/repair path).
var HotAlloc = &Analyzer{
	Name: "hotalloc",
	Doc: "functions reachable from //helios:hotpath roots must not allocate: " +
		"no append/make/new, map ops, escaping composites, closures, " +
		"interface conversions, fmt calls or unresolvable calls",
	Run: runHotAlloc,
}

// pureStdlib lists stdlib packages whose functions are value-in,
// value-out compiler intrinsics: calling them cannot allocate, so the
// out-of-module rule does not apply.
var pureStdlib = map[string]bool{
	"math":      true,
	"math/bits": true,
}

func runHotAlloc(p *Pass) error {
	g := p.Mod.Graph()
	roots := g.HotpathRoots(p.Pkg)
	if len(roots) == 0 {
		return nil
	}
	for _, node := range g.Reachable(roots, "hotalloc-ok") {
		if node.Decl.Body == nil {
			continue
		}
		hc := &hotChecker{pass: p, node: node, info: node.Pkg.TypesInfo}
		ast.Inspect(node.Decl.Body, hc.visit)
	}
	return nil
}

// hotChecker inspects one reachable function's body. All type lookups
// go through the declaring package's TypesInfo — the pass may belong to
// a different package than the function it is auditing.
type hotChecker struct {
	pass *Pass
	node *FuncNode
	info *types.Info
}

// reportf files a finding unless the site carries a hotalloc-ok line
// annotation (checked module-wide: the site may be in another package).
func (hc *hotChecker) reportf(pos token.Pos, format string, args ...any) {
	at := hc.node.Pkg.Fset.Position(pos)
	if hc.pass.Mod.Annotated(at, "hotalloc-ok") {
		return
	}
	args = append(args, hc.node.Name())
	hc.pass.Reportf(pos, format+" (hot path via %s; annotate //helios:hotalloc-ok <reason> if proven safe)", args...)
}

func (hc *hotChecker) visit(n ast.Node) bool {
	switch n := n.(type) {
	case *ast.CallExpr:
		hc.checkCall(n)
	case *ast.IndexExpr:
		if hc.isMapType(n.X) {
			hc.reportf(n.Pos(), "map access on the hot path")
		}
	case *ast.RangeStmt:
		if hc.isMapType(n.X) {
			hc.reportf(n.Pos(), "map iteration on the hot path")
		}
	case *ast.FuncLit:
		hc.reportf(n.Pos(), "closure on the hot path allocates its environment")
		return false // the literal's body is not on the hot path proper
	case *ast.UnaryExpr:
		if n.Op == token.AND {
			if _, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
				hc.reportf(n.Pos(), "&composite literal escapes to the heap")
			}
		}
	case *ast.CompositeLit:
		if tv, ok := hc.info.Types[n]; ok {
			switch tv.Type.Underlying().(type) {
			case *types.Slice, *types.Map:
				hc.reportf(n.Pos(), "slice/map literal allocates")
			}
		}
	case *ast.BinaryExpr:
		if n.Op == token.ADD && hc.isStringExpr(n.X) {
			hc.reportf(n.Pos(), "string concatenation allocates")
		}
	}
	return true
}

func (hc *hotChecker) checkCall(call *ast.CallExpr) {
	// Conversions: only those that box into an interface allocate.
	if tv, ok := hc.info.Types[call.Fun]; ok && tv.IsType() {
		if _, iface := tv.Type.Underlying().(*types.Interface); iface {
			hc.reportf(call.Pos(), "conversion to interface type %s boxes its operand", tv.Type)
		}
		return
	}
	// Builtins: the allocating and map-touching ones are findings; the
	// pure ones (len, cap, copy, panic, min, max, ...) pass.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, isBuiltin := hc.info.Uses[id].(*types.Builtin); isBuiltin {
			switch id.Name {
			case "append":
				hc.reportf(call.Pos(), "append may grow its backing array")
			case "make", "new":
				hc.reportf(call.Pos(), "%s allocates", id.Name)
			case "delete":
				hc.reportf(call.Pos(), "map delete on the hot path")
			}
			return
		}
	}
	callee := resolveCallee(hc.info, call)
	switch {
	case callee == nil:
		hc.reportf(call.Pos(), "indirect call cannot be proven allocation-free")
		return
	case callee.Pkg() != nil && callee.Pkg().Path() == "fmt":
		hc.reportf(call.Pos(), "fmt.%s formats and allocates", callee.Name())
		return
	case callee.Pkg() != nil && pureStdlib[callee.Pkg().Path()]:
		// Compiler-intrinsic packages: value in, value out, no heap.
		return
	case hc.pass.Mod.Graph().NodeOf(callee) == nil:
		// Interface-method declarations and out-of-module (stdlib)
		// functions have no body in the graph: unauditable.
		hc.reportf(call.Pos(), "call to %s is outside the audited module", callee.Name())
		return
	}
	hc.checkCallArgs(call, callee)
}

// checkCallArgs flags arguments that implicitly convert to interface
// parameters — the conversion boxes the value on every call.
func (hc *hotChecker) checkCallArgs(call *ast.CallExpr, callee *types.Func) {
	sig, ok := callee.Type().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				continue // passing a slice through, no per-element boxing
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		if _, iface := pt.Underlying().(*types.Interface); !iface {
			continue
		}
		at, ok := hc.info.Types[arg]
		if !ok {
			continue
		}
		if _, argIface := at.Type.Underlying().(*types.Interface); argIface {
			continue // interface to interface: no new box
		}
		hc.reportf(arg.Pos(), "argument boxes %s into interface parameter of %s", at.Type, callee.Name())
	}
}

func (hc *hotChecker) isMapType(e ast.Expr) bool {
	tv, ok := hc.info.Types[e]
	if !ok {
		return false
	}
	_, isMap := tv.Type.Underlying().(*types.Map)
	return isMap
}

func (hc *hotChecker) isStringExpr(e ast.Expr) bool {
	tv, ok := hc.info.Types[e]
	if !ok {
		return false
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}
