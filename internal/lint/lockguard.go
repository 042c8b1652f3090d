package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// LockGuard infers which struct fields a mutex protects and then holds
// every access to that standard: for each named struct with a
// sync.Mutex/sync.RWMutex field, accesses to sibling fields from the
// type's methods are classified as under-lock or not by walking each
// method body in source order (Lock sets the state, Unlock clears it,
// defer Unlock holds it to function end, and a function literal resets
// it — a closure may run on another goroutine). A field whose accesses
// are majority-under-lock (and at least twice) is declared guarded;
// every remaining unguarded access is a finding. This is how the
// admission queue in internal/serve and the singleflight memo and suite
// scheduler in internal/core keep their invariants as they grow:
// adding one forgotten-lock access trips CI instead of a race.
//
// The analyzer also builds lock-order edges: acquiring mutex B while
// holding mutex A — directly, or by calling (through the module call
// graph) a function whose transitive lock set contains B — records
// A→B. If the reverse edge exists anywhere in the module, both sites
// are a deadlock-shaped inversion and the later-discovered one is
// reported.
//
// Escape hatch: //helios:lockguard-ok <reason> on the access line (or
// the line above).
var LockGuard = &Analyzer{
	Name: "lockguard",
	Doc: "struct fields accessed mostly under their sibling mutex must " +
		"always be accessed under it; lock-order inversions across the " +
		"call graph are findings",
	Run: runLockGuard,
}

// lockEdge is one observed acquisition order: to was locked while from
// was held.
type lockEdge struct {
	pos token.Position
	via string // rendering of the call/lock site for the message
}

// lockFacts is the module-scoped store shared by every lockguard pass.
type lockFacts struct {
	edges map[[2]*types.Var]lockEdge
}

func runLockGuard(p *Pass) error {
	facts := p.Mod.Fact("lockguard", func() any {
		return &lockFacts{edges: make(map[[2]*types.Var]lockEdge)}
	}).(*lockFacts)

	// Structs declared in this package that own a mutex.
	guarded := make(map[*types.Named][]*types.Var) // struct → mutex fields
	scope := p.Pkg.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok {
			continue
		}
		st, ok := named.Underlying().(*types.Struct)
		if !ok {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			if isMutexType(st.Field(i).Type()) {
				guarded[named] = append(guarded[named], st.Field(i))
			}
		}
	}

	type accessSite struct {
		pos     token.Pos
		guarded bool
		fn      string
	}
	accesses := make(map[*types.Var][]accessSite) // field → sites
	var fieldOrder []*types.Var

	for _, f := range p.Files {
		if p.isTestFile(f.Pos()) {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			recvNamed := namedOfReceiver(p.TypesInfo, fd)
			mutexes := guarded[recvNamed]
			var recvObj types.Object
			if fd.Recv != nil && len(fd.Recv.List) > 0 {
				if names := fd.Recv.List[0].Names; len(names) > 0 {
					recvObj = p.TypesInfo.Defs[names[0]]
				}
			}
			if recvNamed == nil || len(mutexes) == 0 || recvObj == nil {
				// Still walk for lock-order edges: any function can
				// acquire two unrelated mutexes.
				p.walkLocks(fd, nil, nil, nil, facts)
				continue
			}
			onAccess := func(field *types.Var, pos token.Pos, underLock bool) {
				if _, ok := accesses[field]; !ok {
					fieldOrder = append(fieldOrder, field)
				}
				accesses[field] = append(accesses[field],
					accessSite{pos: pos, guarded: underLock, fn: fd.Name.Name})
			}
			p.walkLocks(fd, recvObj, recvNamed, onAccess, facts)
		}
	}

	sort.Slice(fieldOrder, func(i, j int) bool { return fieldOrder[i].Pos() < fieldOrder[j].Pos() })
	for _, field := range fieldOrder {
		sites := accesses[field]
		locked := 0
		for _, s := range sites {
			if s.guarded {
				locked++
			}
		}
		if locked < 2 || locked*2 <= len(sites) {
			continue // not majority-under-lock: not an inferred guard set
		}
		owner, mu := ownerAndMutex(field)
		for _, s := range sites {
			if s.guarded || p.Annotated(s.pos, "lockguard-ok") {
				continue
			}
			p.Reportf(s.pos, "field %s.%s is guarded by %s.%s (%d/%d accesses hold it) but %s accesses it without the lock (or annotate //helios:lockguard-ok <reason>)",
				owner, field.Name(), owner, mu, locked, len(sites), s.fn)
		}
	}
	return nil
}

// ownerAndMutex names the field's declaring struct and its (first)
// mutex field for diagnostics.
func ownerAndMutex(field *types.Var) (owner, mutex string) {
	owner, mutex = "?", "mu"
	pkg := field.Pkg()
	if pkg == nil {
		return owner, mutex
	}
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok {
			continue
		}
		st, ok := tn.Type().Underlying().(*types.Struct)
		if !ok {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			if st.Field(i) == field {
				owner = tn.Name()
			}
		}
		if owner == tn.Name() {
			for i := 0; i < st.NumFields(); i++ {
				if isMutexType(st.Field(i).Type()) {
					return owner, st.Field(i).Name()
				}
			}
		}
	}
	return owner, mutex
}

// walkLocks traverses one function body in source order, tracking the
// set of held mutexes. recvObj/recvNamed scope field-access recording
// to the method's own receiver; onAccess may be nil (edge-only walks).
func (p *Pass) walkLocks(fd *ast.FuncDecl, recvObj types.Object, recvNamed *types.Named, onAccess func(*types.Var, token.Pos, bool), facts *lockFacts) {
	w := &lockWalker{
		pass:     p,
		info:     p.TypesInfo,
		recvObj:  recvObj,
		onAccess: onAccess,
		held:     make(map[*types.Var]bool),
		heldSeq:  []*types.Var{},
		facts:    facts,
	}
	w.walkStmt(fd.Body)
}

type lockWalker struct {
	pass     *Pass
	info     *types.Info
	recvObj  types.Object
	onAccess func(*types.Var, token.Pos, bool)
	held     map[*types.Var]bool
	heldSeq  []*types.Var // acquisition order of currently held mutexes
	facts    *lockFacts
}

func (w *lockWalker) anyHeld() bool {
	for _, m := range w.heldSeq {
		if w.held[m] {
			return true
		}
	}
	return false
}

func (w *lockWalker) acquire(m *types.Var, pos token.Pos) {
	for _, h := range w.heldSeq {
		if w.held[h] && h != m {
			w.addEdge(h, m, pos, "acquired directly")
		}
	}
	if !w.held[m] {
		w.held[m] = true
		w.heldSeq = append(w.heldSeq, m)
	}
}

func (w *lockWalker) release(m *types.Var) {
	w.held[m] = false
	for i, h := range w.heldSeq {
		if h == m {
			w.heldSeq = append(w.heldSeq[:i], w.heldSeq[i+1:]...)
			break
		}
	}
}

// addEdge records from→to and reports an inversion if the module has
// already seen to→from.
func (w *lockWalker) addEdge(from, to *types.Var, pos token.Pos, via string) {
	key := [2]*types.Var{from, to}
	if _, ok := w.facts.edges[key]; ok {
		return
	}
	at := w.pass.Fset.Position(pos)
	w.facts.edges[key] = lockEdge{pos: at, via: via}
	if rev, ok := w.facts.edges[[2]*types.Var{to, from}]; ok {
		if w.pass.Annotated(pos, "lockguard-ok") {
			return
		}
		w.pass.Reportf(pos, "lock-order inversion: %s acquired while holding %s, but %s:%d acquires them in the opposite order (deadlock-shaped; pick one order or annotate //helios:lockguard-ok <reason>)",
			mutexName(to), mutexName(from), rev.pos.Filename, rev.pos.Line)
	}
}

func mutexName(m *types.Var) string {
	owner, _ := ownerAndMutex(m)
	if owner == "?" {
		return m.Name()
	}
	return fmt.Sprintf("%s.%s", owner, m.Name())
}

// walkStmt threads the held-set through statements in source order.
// Control flow is approximated: branch bodies inherit and mutate the
// same state, which matches the straight-line lock/unlock and
// defer-unlock shapes this module actually uses.
func (w *lockWalker) walkStmt(s ast.Stmt) {
	switch s := s.(type) {
	case nil:
	case *ast.BlockStmt:
		for _, st := range s.List {
			w.walkStmt(st)
		}
	case *ast.ExprStmt:
		w.walkExpr(s.X)
	case *ast.DeferStmt:
		if m := w.mutexOpTarget(s.Call, "Unlock", "RUnlock"); m != nil {
			return // deferred unlock: held to function end
		}
		w.walkExpr(s.Call)
	case *ast.GoStmt:
		// The goroutine body runs elsewhere: walk its closure with a
		// fresh (empty) held-set; its arguments evaluate here.
		for _, arg := range s.Call.Args {
			w.walkExpr(arg)
		}
		if lit, ok := s.Call.Fun.(*ast.FuncLit); ok {
			w.freshWalk(lit.Body)
		}
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			w.walkExpr(e)
		}
		for _, e := range s.Lhs {
			w.walkExpr(e)
		}
	case *ast.IfStmt:
		w.walkStmt(s.Init)
		w.walkExpr(s.Cond)
		// A branch that terminates (return/break/continue) takes its
		// lock-state changes with it: code after the if only runs when
		// the branch was NOT taken, so the pre-branch state is restored.
		// This is what makes the singleflight idiom — unlock+return on
		// the hit path, fall through still holding the lock — analyzable
		// in source order.
		held, seq := w.snapshot()
		w.walkStmt(s.Body)
		if terminates(s.Body) {
			w.restore(held, seq)
		}
		held, seq = w.snapshot()
		w.walkStmt(s.Else)
		if s.Else != nil && terminates(s.Else) {
			w.restore(held, seq)
		}
	case *ast.ForStmt:
		w.walkStmt(s.Init)
		if s.Cond != nil {
			w.walkExpr(s.Cond)
		}
		w.walkStmt(s.Body)
		w.walkStmt(s.Post)
	case *ast.RangeStmt:
		w.walkExpr(s.X)
		w.walkStmt(s.Body)
	case *ast.SwitchStmt:
		w.walkStmt(s.Init)
		if s.Tag != nil {
			w.walkExpr(s.Tag)
		}
		w.walkStmt(s.Body)
	case *ast.TypeSwitchStmt:
		w.walkStmt(s.Init)
		w.walkStmt(s.Assign)
		w.walkStmt(s.Body)
	case *ast.SelectStmt:
		w.walkStmt(s.Body)
	case *ast.CaseClause:
		for _, e := range s.List {
			w.walkExpr(e)
		}
		for _, st := range s.Body {
			w.walkStmt(st)
		}
	case *ast.CommClause:
		w.walkStmt(s.Comm)
		for _, st := range s.Body {
			w.walkStmt(st)
		}
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			w.walkExpr(e)
		}
	case *ast.IncDecStmt:
		w.walkExpr(s.X)
	case *ast.SendStmt:
		w.walkExpr(s.Chan)
		w.walkExpr(s.Value)
	case *ast.LabeledStmt:
		w.walkStmt(s.Stmt)
	case *ast.DeclStmt:
		ast.Inspect(s, func(n ast.Node) bool {
			if e, ok := n.(ast.Expr); ok {
				w.walkExpr(e)
				return false
			}
			return true
		})
	}
}

// snapshot copies the current held-set and acquisition order.
func (w *lockWalker) snapshot() (map[*types.Var]bool, []*types.Var) {
	held := make(map[*types.Var]bool, len(w.held))
	for k, v := range w.held {
		held[k] = v
	}
	return held, append([]*types.Var(nil), w.heldSeq...)
}

func (w *lockWalker) restore(held map[*types.Var]bool, seq []*types.Var) {
	w.held = held
	w.heldSeq = seq
}

// terminates reports whether the statement always transfers control
// away (return, break, continue, goto, panic) — conservatively: only
// the shapes that appear in this codebase's lock/unlock idioms.
func terminates(s ast.Stmt) bool {
	switch s := s.(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.BlockStmt:
		if len(s.List) == 0 {
			return false
		}
		return terminates(s.List[len(s.List)-1])
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	case *ast.IfStmt:
		return s.Else != nil && terminates(s.Body) && terminates(s.Else)
	}
	return false
}

// freshWalk walks a closure body with an empty held-set (same access
// recorder: a closure touching receiver fields without its own lock is
// exactly the bug this analyzer exists for).
func (w *lockWalker) freshWalk(body *ast.BlockStmt) {
	inner := &lockWalker{pass: w.pass, info: w.info, recvObj: w.recvObj,
		onAccess: w.onAccess, held: make(map[*types.Var]bool), facts: w.facts}
	inner.walkStmt(body)
}

func (w *lockWalker) walkExpr(e ast.Expr) {
	switch e := e.(type) {
	case nil:
	case *ast.CallExpr:
		if m := w.mutexOpTarget(e, "Lock", "RLock", "TryLock"); m != nil {
			w.acquire(m, e.Pos())
			return
		}
		if m := w.mutexOpTarget(e, "Unlock", "RUnlock"); m != nil {
			w.release(m)
			return
		}
		for _, arg := range e.Args {
			w.walkExpr(arg)
		}
		w.walkExpr(e.Fun)
		w.callEdges(e)
	case *ast.FuncLit:
		w.freshWalk(e.Body)
	case *ast.SelectorExpr:
		w.recordAccess(e)
		w.walkExpr(e.X)
	case *ast.BinaryExpr:
		w.walkExpr(e.X)
		w.walkExpr(e.Y)
	case *ast.UnaryExpr:
		w.walkExpr(e.X)
	case *ast.StarExpr:
		w.walkExpr(e.X)
	case *ast.ParenExpr:
		w.walkExpr(e.X)
	case *ast.IndexExpr:
		w.walkExpr(e.X)
		w.walkExpr(e.Index)
	case *ast.SliceExpr:
		w.walkExpr(e.X)
		w.walkExpr(e.Low)
		w.walkExpr(e.High)
		w.walkExpr(e.Max)
	case *ast.TypeAssertExpr:
		w.walkExpr(e.X)
	case *ast.CompositeLit:
		for _, el := range e.Elts {
			w.walkExpr(el)
		}
	case *ast.KeyValueExpr:
		w.walkExpr(e.Value)
	}
}

// recordAccess notes a receiver-field access (ident.field where ident
// is the method receiver) with the current lock state. Mutex fields
// themselves are not data.
func (w *lockWalker) recordAccess(sel *ast.SelectorExpr) {
	if w.onAccess == nil || w.recvObj == nil {
		return
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok || w.info.Uses[id] != w.recvObj {
		return
	}
	field, ok := w.info.Uses[sel.Sel].(*types.Var)
	if !ok || !field.IsField() || isMutexType(field.Type()) {
		return
	}
	w.onAccess(field.Origin(), sel.Sel.Pos(), w.anyHeld())
}

// callEdges propagates lock-order edges through calls: calling, while
// holding A, a function whose transitive lock set contains B records
// A→B.
func (w *lockWalker) callEdges(call *ast.CallExpr) {
	if w.facts == nil || !w.anyHeld() {
		return
	}
	callee := resolveCallee(w.info, call)
	if callee == nil {
		return
	}
	node := w.pass.Mod.Graph().NodeOf(callee)
	if node == nil {
		return
	}
	for _, m := range w.pass.lockSetOf(node) {
		for _, h := range w.heldSeq {
			if w.held[h] && h != m {
				w.addEdge(h, m, call.Pos(), "via call to "+callee.Name())
			}
		}
	}
}

// lockSetCache memoizes each function's transitive lock set, shared
// module-wide through the fact store.
type lockSetCache struct {
	sets map[*FuncNode][]*types.Var
	busy map[*FuncNode]bool
}

// lockSetOf returns every mutex the function may acquire, directly or
// through module-internal calls.
func (p *Pass) lockSetOf(node *FuncNode) []*types.Var {
	cache := p.Mod.Fact("lockguard-sets", func() any {
		return &lockSetCache{sets: make(map[*FuncNode][]*types.Var), busy: make(map[*FuncNode]bool)}
	}).(*lockSetCache)
	if set, ok := cache.sets[node]; ok {
		return set
	}
	if cache.busy[node] {
		return nil // recursion: the cycle adds nothing new
	}
	cache.busy[node] = true
	defer func() { cache.busy[node] = false }()
	set := make(map[*types.Var]bool)
	if node.Decl.Body != nil {
		info := node.Pkg.TypesInfo
		ast.Inspect(node.Decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if m := mutexOpTargetIn(info, call, "Lock", "RLock", "TryLock"); m != nil {
				set[m] = true
			}
			return true
		})
	}
	for _, c := range node.Callees {
		for _, m := range p.lockSetOf(c) {
			set[m] = true
		}
	}
	out := make([]*types.Var, 0, len(set))
	for m := range set {
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Pos() < out[j].Pos() })
	cache.sets[node] = out
	return out
}

// mutexOpTarget resolves calls of the form x.field.Op() where field is
// a sync.Mutex/RWMutex field, returning the field's identity.
func (w *lockWalker) mutexOpTarget(call *ast.CallExpr, ops ...string) *types.Var {
	return mutexOpTargetIn(w.info, call, ops...)
}

func mutexOpTargetIn(info *types.Info, call *ast.CallExpr, ops ...string) *types.Var {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	match := false
	for _, op := range ops {
		if sel.Sel.Name == op {
			match = true
		}
	}
	if !match {
		return nil
	}
	// The method must belong to sync.
	if fn, ok := info.Uses[sel.Sel].(*types.Func); !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return nil
	}
	inner, ok := sel.X.(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	field, ok := info.Uses[inner.Sel].(*types.Var)
	if !ok || !field.IsField() || !isMutexType(field.Type()) {
		return nil
	}
	return field.Origin()
}

// isMutexType reports whether t is sync.Mutex or sync.RWMutex (or a
// pointer to one).
func isMutexType(t types.Type) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" &&
		(obj.Name() == "Mutex" || obj.Name() == "RWMutex")
}

// namedOfReceiver resolves the receiver's named struct type, by origin:
// each method of a generic type instantiates it (and its fields) anew.
func namedOfReceiver(info *types.Info, fd *ast.FuncDecl) *types.Named {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return nil
	}
	tv, ok := info.Types[fd.Recv.List[0].Type]
	if !ok {
		return nil
	}
	t := tv.Type
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return nil
	}
	return named.Origin()
}
