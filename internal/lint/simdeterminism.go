package lint

import (
	"go/ast"
	"go/types"
)

// simPackages are the packages in which any run-to-run nondeterminism
// would silently corrupt the paper's figures: the cycle-accurate
// simulation packages (the same µ-op stream must produce the same cycle
// count on every run) plus the scheduling layers (core, experiments) —
// the suite scheduler fans cells across workers, so its work
// distribution and result assembly must never depend on map iteration
// order or wall time, or parallel runs would stop being byte-identical
// to serial ones. chaos is here too: every campaign draws from a
// generator seeded by its caller, so a failure replays from its seed,
// and a wall-clock seed would make it unreproducible.
var simPackages = map[string]bool{
	"ooo": true, "fusion": true, "branch": true, "cache": true,
	"emu": true, "memdep": true, "trace": true,
	"core": true, "experiments": true, "chaos": true,
}

// SimDeterminism forbids the three classic nondeterminism sources inside
// simulation and scheduling packages: wall-clock reads (time.Now), the
// process-global math/rand generator, and iteration over map-typed
// values — unless the loop body is provably order-insensitive or the
// site is annotated //helios:nondeterminism-ok <reason>.
var SimDeterminism = &Analyzer{
	Name: "simdeterminism",
	Doc: "forbid time.Now, global math/rand calls and order-sensitive map " +
		"iteration in simulation and scheduling packages " +
		"(ooo, fusion, branch, cache, emu, memdep, trace, core, experiments, chaos)",
	Run: runSimDeterminism,
}

func runSimDeterminism(p *Pass) error {
	if !simPackages[p.Pkg.Name()] {
		return nil
	}
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil || p.isTestFile(n.Pos()) {
				return false
			}
			switch n := n.(type) {
			case *ast.CallExpr:
				p.checkDeterministicCall(n)
			case *ast.RangeStmt:
				p.checkMapRange(n)
			}
			return true
		})
	}
	return nil
}

func (p *Pass) checkDeterministicCall(call *ast.CallExpr) {
	if p.funcFromPkg(call, "time", "Now") {
		if !p.Annotated(call.Pos(), "nondeterminism-ok") {
			p.Reportf(call.Pos(), "time.Now in a simulation package: cycle counts must not depend on wall time (use the simulated cycle counter, or annotate //helios:nondeterminism-ok <reason>)")
		}
		return
	}
	fn, ok := p.pkgLevelCallee(call)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "math/rand" {
		return
	}
	if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
		return // rng.Intn etc. on an explicitly seeded *rand.Rand is fine
	}
	switch fn.Name() {
	case "New", "NewSource", "NewZipf":
		return // constructors; a wall-clock seed is caught as time.Now
	}
	if !p.Annotated(call.Pos(), "nondeterminism-ok") {
		p.Reportf(call.Pos(), "global math/rand.%s in a simulation package: draw from a seeded *rand.Rand instead (or annotate //helios:nondeterminism-ok <reason>)", fn.Name())
	}
}

// checkMapRange flags `range m` where m is map-typed, unless the loop is
// order-insensitive by construction or annotated.
func (p *Pass) checkMapRange(rng *ast.RangeStmt) {
	tv, ok := p.TypesInfo.Types[rng.X]
	if !ok {
		return
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
		return
	}
	if p.Annotated(rng.Pos(), "nondeterminism-ok") {
		return
	}
	if p.orderInsensitiveBody(rng.Body) {
		return
	}
	p.Reportf(rng.Pos(), "iteration over a map in a simulation package is order-nondeterministic: sort the keys first, restructure, or annotate //helios:nondeterminism-ok <reason>")
}

// orderInsensitiveBody conservatively proves a map-range body commutes
// across iteration orders. Only a small allowlist of statement shapes
// qualifies: deleting from a map, storing to another map, commutative
// integer accumulation (x++, x += e, x |= e, x &= e — integer only;
// float addition does not commute in rounding), and `if` guards around
// the map mutations whose condition is loop-invariant (no calls, and no
// reference to anything the loop itself mutates). Anything else —
// appends, calls, early exits — needs sorting or an annotation.
func (p *Pass) orderInsensitiveBody(body *ast.BlockStmt) bool {
	mutated := make(map[string]bool) // printed forms of accum targets and mutated maps
	p.collectLoopMutations(body, mutated)
	return p.orderInsensitiveStmts(body.List, mutated)
}

// collectLoopMutations records the printed form of every expression the
// body assigns, increments or deletes from, so condition guards can be
// checked for loop-invariance.
func (p *Pass) collectLoopMutations(body *ast.BlockStmt, out map[string]bool) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.IncDecStmt:
			out[exprString(n.X)] = true
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if idx, ok := lhs.(*ast.IndexExpr); ok {
					out[exprString(idx.X)] = true
				} else {
					out[exprString(lhs)] = true
				}
			}
		case *ast.CallExpr:
			if isBuiltin(p, n, "delete") && len(n.Args) == 2 {
				out[exprString(n.Args[0])] = true
			}
		}
		return true
	})
}

func (p *Pass) orderInsensitiveStmts(stmts []ast.Stmt, mutated map[string]bool) bool {
	for _, stmt := range stmts {
		switch s := stmt.(type) {
		case *ast.ExprStmt:
			call, ok := s.X.(*ast.CallExpr)
			if !ok || !isBuiltin(p, call, "delete") {
				return false
			}
		case *ast.IncDecStmt:
			if !p.isIntegerExpr(s.X) {
				return false
			}
		case *ast.AssignStmt:
			if !p.commutativeAssign(s) {
				return false
			}
		case *ast.IfStmt:
			// A guard commutes only when its condition cannot observe
			// the loop's own mutations and the guarded statements are
			// map mutations (conditional accumulation like
			// `if sum < 10 { sum += v }` stays order-sensitive).
			if s.Init != nil || s.Else != nil || !p.loopInvariantCond(s.Cond, mutated) {
				return false
			}
			if !p.onlyMapMutations(s.Body.List) || !p.orderInsensitiveStmts(s.Body.List, mutated) {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// onlyMapMutations accepts delete calls and map-index stores (no
// accumulators), the statements that commute even under a condition.
func (p *Pass) onlyMapMutations(stmts []ast.Stmt) bool {
	for _, stmt := range stmts {
		switch s := stmt.(type) {
		case *ast.ExprStmt:
			call, ok := s.X.(*ast.CallExpr)
			if !ok || !isBuiltin(p, call, "delete") {
				return false
			}
		case *ast.AssignStmt:
			if len(s.Lhs) != 1 || s.Tok.String() != "=" {
				return false
			}
			if _, ok := s.Lhs[0].(*ast.IndexExpr); !ok {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// loopInvariantCond reports whether the condition is free of calls and
// of references to expressions the loop mutates (range variables are
// fine: each iteration sees its own key/value).
func (p *Pass) loopInvariantCond(cond ast.Expr, mutated map[string]bool) bool {
	ok := true
	ast.Inspect(cond, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			ok = false
		case *ast.Ident:
			if mutated[n.Name] {
				ok = false
			}
		case *ast.SelectorExpr:
			if mutated[exprString(n)] {
				ok = false
			}
		}
		return ok
	})
	return ok
}

// commutativeAssign accepts `m[k] = v` and integer `x += e` / `x |= e` /
// `x &= e` / `x ^= e` forms.
func (p *Pass) commutativeAssign(s *ast.AssignStmt) bool {
	if len(s.Lhs) != 1 || len(s.Rhs) != 1 {
		return false
	}
	switch s.Tok.String() {
	case "=":
		idx, ok := s.Lhs[0].(*ast.IndexExpr)
		if !ok {
			return false
		}
		tv, ok := p.TypesInfo.Types[idx.X]
		if !ok {
			return false
		}
		_, isMap := tv.Type.Underlying().(*types.Map)
		return isMap
	case "+=", "|=", "&=", "^=":
		return p.isIntegerExpr(s.Lhs[0])
	}
	return false
}

func (p *Pass) isIntegerExpr(e ast.Expr) bool {
	tv, ok := p.TypesInfo.Types[e]
	if !ok {
		return false
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}

func isBuiltin(p *Pass, call *ast.CallExpr, name string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, ok = p.TypesInfo.Uses[id].(*types.Builtin)
	return ok
}

// exprString renders a short source-ish form of an expression, the key
// under which collectLoopMutations records what a loop body mutates
// (identifiers and selectors verbatim, anything else elided).
func exprString(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprString(e.X) + "." + e.Sel.Name
	case *ast.BasicLit:
		return e.Value
	case *ast.CallExpr:
		return exprString(e.Fun) + "(...)"
	}
	return "<expr>"
}
