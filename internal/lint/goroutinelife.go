package lint

import (
	"go/ast"
	"go/types"
)

// GoroutineLife enforces that every goroutine has a lifecycle: the body
// of each `go` statement must be joinable or cancellable — it must
// reference a context.Context, a done/quit channel (any channel
// operation or select counts), or a sync.WaitGroup. On top of that,
// any unconditional loop (`for {}` / `for { ... }` with no condition)
// inside the body must check cancellation on each iteration: a select,
// a channel receive, or a ctx.Err()/ctx.Done() call in the loop body.
//
// This is the shape RunCells workers and heliosd's drain waiter already
// have; the analyzer keeps the next goroutine honest. A `go` statement
// whose callee cannot be resolved (method value, function in another
// module) is a finding too — unauditable is not the same as safe.
//
// Escape hatch: //helios:goroutinelife-ok <reason> on the go statement.
var GoroutineLife = &Analyzer{
	Name: "goroutinelife",
	Doc: "every go statement must be joinable or cancellable (context, " +
		"done channel, or WaitGroup), and infinite loops inside goroutine " +
		"bodies must check cancellation",
	Run: runGoroutineLife,
}

func runGoroutineLife(p *Pass) error {
	for _, f := range p.Files {
		if p.isTestFile(f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			gs, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			if p.Annotated(gs.Pos(), "goroutinelife-ok") {
				return true
			}
			p.checkGoStmt(gs)
			return true
		})
	}
	return nil
}

func (p *Pass) checkGoStmt(gs *ast.GoStmt) {
	var body *ast.BlockStmt
	var info *types.Info = p.TypesInfo
	switch fun := ast.Unparen(gs.Call.Fun).(type) {
	case *ast.FuncLit:
		body = fun.Body
	default:
		callee := resolveCallee(p.TypesInfo, gs.Call)
		if callee == nil {
			p.Reportf(gs.Pos(), "goroutine body cannot be resolved statically, so its lifecycle cannot be audited (use a func literal or a named function, or annotate //helios:goroutinelife-ok <reason>)")
			return
		}
		node := p.Mod.Graph().NodeOf(callee)
		if node == nil || node.Decl.Body == nil {
			p.Reportf(gs.Pos(), "goroutine runs %s, which is outside the audited module; its lifecycle cannot be audited (annotate //helios:goroutinelife-ok <reason> if it is bounded)", callee.Name())
			return
		}
		body = node.Decl.Body
		info = node.Pkg.TypesInfo
	}

	// The goroutine is lifecycle-bound if its body (or, for named
	// callees, the call's arguments) references a cancellation or join
	// primitive.
	bound := referencesLifecycle(info, body)
	if !bound {
		for _, arg := range gs.Call.Args {
			if exprHasLifecycleType(p.TypesInfo, arg) {
				bound = true
				break
			}
		}
	}
	if !bound {
		p.Reportf(gs.Pos(), "goroutine is neither joinable nor cancellable: body references no context, done channel, or WaitGroup (annotate //helios:goroutinelife-ok <reason> if its lifetime is otherwise bounded)")
		return
	}

	// Unconditional loops inside the body must check cancellation.
	ast.Inspect(body, func(n ast.Node) bool {
		if fl, ok := n.(*ast.FuncLit); ok && fl.Body != body {
			return false // nested goroutines get their own go statements
		}
		loop, ok := n.(*ast.ForStmt)
		if !ok || loop.Cond != nil {
			return true
		}
		if !loopChecksCancellation(info, loop.Body) {
			if !p.Annotated(loop.Pos(), "goroutinelife-ok") {
				p.Reportf(loop.Pos(), "infinite loop in goroutine never checks cancellation: add a select, channel receive, or ctx.Err() check per iteration (or annotate //helios:goroutinelife-ok <reason>)")
			}
		}
		return true
	})
}

// referencesLifecycle reports whether the body mentions a
// context.Context value, a sync.WaitGroup method, or performs any
// channel operation (send, receive, close, select, range-over-channel).
func referencesLifecycle(info *types.Info, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.SelectStmt, *ast.SendStmt:
			found = true
		case *ast.UnaryExpr:
			if n.Op.String() == "<-" {
				found = true
			}
		case *ast.RangeStmt:
			if isChanExpr(info, n.X) {
				found = true
			}
		case *ast.CallExpr:
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && id.Name == "close" {
				if _, b := info.Uses[id].(*types.Builtin); b {
					found = true
				}
			}
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok {
				if fn, ok := info.Uses[sel.Sel].(*types.Func); ok && isWaitGroupMethod(fn) {
					found = true
				}
			}
		case *ast.Ident:
			if obj := info.Uses[n]; obj != nil && isContextType(obj.Type()) {
				found = true
			}
		}
		return !found
	})
	return found
}

// loopChecksCancellation reports whether a loop body contains a
// select, a channel receive, a range over a channel, or a call to
// ctx.Err()/ctx.Done() on a context value.
func loopChecksCancellation(info *types.Info, body *ast.BlockStmt) bool {
	ok := false
	ast.Inspect(body, func(n ast.Node) bool {
		if ok {
			return false
		}
		switch n := n.(type) {
		case *ast.SelectStmt:
			ok = true
		case *ast.UnaryExpr:
			if n.Op.String() == "<-" {
				ok = true
			}
		case *ast.RangeStmt:
			if isChanExpr(info, n.X) {
				ok = true
			}
		case *ast.CallExpr:
			if sel, s := n.Fun.(*ast.SelectorExpr); s {
				if (sel.Sel.Name == "Err" || sel.Sel.Name == "Done") && exprHasLifecycleType(info, sel.X) {
					ok = true
				}
			}
		}
		return !ok
	})
	return ok
}

func isChanExpr(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok {
		return false
	}
	_, isChan := tv.Type.Underlying().(*types.Chan)
	return isChan
}

// exprHasLifecycleType reports whether the expression's type is a
// context.Context, a channel, or a (*)sync.WaitGroup.
func exprHasLifecycleType(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok {
		return false
	}
	t := tv.Type
	if isContextType(t) {
		return true
	}
	if _, c := t.Underlying().(*types.Chan); c {
		return true
	}
	if ptr, p := t.(*types.Pointer); p {
		t = ptr.Elem()
	}
	if named, n := t.(*types.Named); n {
		obj := named.Obj()
		if obj.Pkg() != nil && obj.Pkg().Path() == "sync" && obj.Name() == "WaitGroup" {
			return true
		}
	}
	return false
}

func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}

func isWaitGroupMethod(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	t := sig.Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" && obj.Name() == "WaitGroup"
}
