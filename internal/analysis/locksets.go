package analysis

// The shared lockset engine behind the lockorder and locksafety rules.
//
// The engine has two layers. The summary layer records, for every
// function, which named mutex objects it may acquire (directly or
// through any statically resolved callee) and whether it may block
// indefinitely (channel operations, selects without a default, or a
// call matched by the blockingSinks table in lockrules.go). It is
// solved bottom-up over the call graph by the shared summary solver
// (solve.go), once per call graph: lockorder and locksafety share the
// cached result (CallGraph.lockSets).
//
// The walk layer re-traverses every function body tracking the set of
// locks held at each statement — the same branch-cloning, CFG-free
// scan locksafety has always used, extended with call-site and
// channel-operation checks. Both rules consume the walk through
// callbacks: lockorder records acquisition-order edges and
// blocked-while-held violations; locksafety keeps its original
// return-while-held check.
//
// A "named mutex object" is a struct field or package-level variable
// of type sync.Mutex/RWMutex (including embedded mutexes reached
// through promoted Lock/RLock methods). The abstraction is per
// *types.Var: two instances of the same struct share one lock node,
// so nesting two different instances of the same field is NOT an
// order-graph self-edge (the engine cannot tell the instances apart);
// re-acquiring the very same receiver expression is reported directly
// as a guaranteed self-deadlock.

import (
	"go/ast"
	"go/token"
	"go/types"
	"maps"
	"sort"
)

// lockSummary is the interprocedural abstraction of one function.
type lockSummary struct {
	// acquired holds each named mutex the function may acquire —
	// directly or through any statically resolved callee.
	acquired map[*types.Var]bool
	// blocks names the first potentially indefinite wait in the
	// function's body, in source order, where a call stands for the
	// wait its callee's summary names; empty when none. Inside a
	// recursive cycle the first name found is kept across rescans.
	blocks string
}

func equalLockSummary(a, b lockSummary) bool {
	return a.blocks == b.blocks && maps.Equal(a.acquired, b.acquired)
}

// heldLock is one lock tracked by the walk layer as currently held.
type heldLock struct {
	v        *types.Var // named lock object; nil for locals
	name     string     // display name, falling back to the receiver key
	key      string     // exprKey of the receiver (instance-sensitive)
	pos      token.Pos  // acquisition site
	deferred bool       // an unlock is deferred: held to return, but returns are fine
	write    bool       // Lock rather than RLock
}

// lockSets is the solved summary layer of one call graph.
type lockSets struct {
	sums map[*types.Func]*lockSummary
	// names is the display name of each named mutex, taken from its
	// direct Lock/RLock call at the lowest position (namedAt), so it
	// does not depend on the order functions are scanned in.
	names   map[*types.Var]string
	namedAt map[*types.Var]token.Pos
}

// lockSets solves the lockset summaries on first use and caches them on
// the call graph.
func (g *CallGraph) lockSets() *lockSets {
	g.lockOnce.Do(func() {
		ls := &lockSets{
			sums:    map[*types.Func]*lockSummary{},
			names:   map[*types.Var]string{},
			namedAt: map[*types.Var]token.Pos{},
		}
		solveBottomUp(g, ls.sums, ls.scan, equalLockSummary)
		g.locks = ls
	})
	return g.locks
}

// scan recomputes one function's summary from its body and its callees'
// current summaries.
func (ls *lockSets) scan(n *FuncNode) lockSummary {
	sum := lockSummary{acquired: map[*types.Var]bool{}, blocks: ls.sums[n.Fn].blocks}
	setBlocks := func(what string) {
		if sum.blocks == "" {
			sum.blocks = what
		}
	}
	info := n.Pkg.Info
	var walk func(ast.Node)
	walk = func(root ast.Node) {
		ast.Inspect(root, func(nd ast.Node) bool {
			switch x := nd.(type) {
			case *ast.GoStmt:
				// Spawned work runs on another goroutine: it neither
				// blocks the spawner nor holds the spawner's locks.
				return false
			case *ast.SendStmt:
				setBlocks("a channel send")
			case *ast.UnaryExpr:
				if x.Op == token.ARROW {
					setBlocks("a channel receive")
				}
			case *ast.RangeStmt:
				if isChanExpr(info, x.X) {
					setBlocks("a range over a channel")
				}
			case *ast.SelectStmt:
				if !selectHasDefault(x) {
					setBlocks("a select with no default")
				}
				// A select with a default never commits to a wait:
				// skip the comm clauses, keep scanning the bodies.
				for _, c := range x.Body.List {
					if cc, ok := c.(*ast.CommClause); ok {
						for _, s := range cc.Body {
							walk(s)
						}
					}
				}
				return false
			case *ast.CallExpr:
				if _, op, ok := lockCall(info, x); ok {
					if op == "Lock" || op == "RLock" {
						if v, name := lockVarOf(info, x); v != nil {
							sum.acquired[v] = true
							if at, ok := ls.namedAt[v]; !ok || x.Pos() < at {
								ls.names[v], ls.namedAt[v] = name, x.Pos()
							}
						}
					}
					return true
				}
				fn := calleeFunc(info, x)
				if fn == nil {
					return true
				}
				if matchAny(fn, blockingSinks) {
					setBlocks(funcDisplayName(fn))
					return true
				}
				if csum, ok := ls.sums[fn]; ok {
					for v := range csum.acquired {
						sum.acquired[v] = true
					}
					setBlocks(csum.blocks)
				}
			}
			return true
		})
	}
	walk(n.Decl.Body)
	return sum
}

// lockWalker drives the held-set traversal of one module for one
// consuming rule. Callbacks left nil are skipped.
type lockWalker struct {
	info *types.Info
	fn   *FuncNode

	// onAcquire fires when a lock is taken while others are held
	// (held is every currently held lock, taken the new one).
	onAcquire func(held []*heldLock, taken *heldLock)
	// onBlocked fires when a potentially indefinite wait happens with
	// locks held: what describes the wait, pos locates it.
	onBlocked func(held []*heldLock, what string, pos token.Pos)
	// onCall fires for every statically resolved call made with locks
	// held (after onBlocked, when both apply).
	onCall func(held []*heldLock, callee *types.Func, pos token.Pos)
	// onReturn fires at each return statement with the locks still
	// held by a defer-less Lock.
	onReturn func(held []*heldLock, pos token.Pos)
}

// walkModule runs the walker over every function of g (and every
// function literal, as an independent root with an empty held set) in
// declaration order.
func (w *lockWalker) walkModule(g *CallGraph) {
	for _, n := range sortedFuncNodes(g) {
		w.fn = n
		w.info = n.Pkg.Info
		w.walkStmts(n.Decl.Body.List, map[string]*heldLock{})
	}
}

// heldList returns the held locks sorted by receiver key, for
// deterministic callback order.
func heldList(held map[string]*heldLock) []*heldLock {
	keys := make([]string, 0, len(held))
	for k := range held {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]*heldLock, len(keys))
	for i, k := range keys {
		out[i] = held[k]
	}
	return out
}

func (w *lockWalker) walkStmts(stmts []ast.Stmt, held map[string]*heldLock) {
	for i, stmt := range stmts {
		switch s := stmt.(type) {
		case *ast.ExprStmt:
			if recv, op, ok := lockCall(w.info, s.X); ok {
				call := ast.Unparen(s.X).(*ast.CallExpr)
				switch op {
				case "Lock", "RLock":
					hl := &heldLock{key: recv, pos: s.Pos(), write: op == "Lock"}
					hl.v, hl.name = lockVarOf(w.info, call)
					if hl.name == "" {
						hl.name = recv
					}
					if i+1 < len(stmts) && deferredUnlock(w.info, stmts[i+1], recv) {
						hl.deferred = true
					}
					if w.onAcquire != nil && len(held) > 0 {
						w.onAcquire(heldList(held), hl)
					}
					held[recv] = hl
				case "Unlock", "RUnlock":
					delete(held, recv)
				}
				continue
			}
			w.scanExpr(s.X, held)
		case *ast.DeferStmt:
			if recv, op, ok := lockCall(w.info, s.Call); ok && (op == "Unlock" || op == "RUnlock") {
				if hl := held[recv]; hl != nil {
					hl.deferred = true
				}
				continue
			}
			// Other deferred calls run at return, under an unknowable
			// held set; only their arguments evaluate here.
			for _, a := range s.Call.Args {
				w.scanExpr(a, held)
			}
		case *ast.ReturnStmt:
			for _, r := range s.Results {
				w.scanExpr(r, held)
			}
			if w.onReturn != nil {
				var leak []*heldLock
				for _, hl := range heldList(held) {
					if !hl.deferred {
						leak = append(leak, hl)
					}
				}
				if len(leak) > 0 {
					w.onReturn(leak, s.Pos())
				}
			}
		case *ast.IfStmt:
			if s.Init != nil {
				w.walkStmts([]ast.Stmt{s.Init}, held)
			}
			w.scanExpr(s.Cond, held)
			w.walkStmts(s.Body.List, cloneHeldLocks(held))
			switch els := s.Else.(type) {
			case *ast.BlockStmt:
				w.walkStmts(els.List, cloneHeldLocks(held))
			case *ast.IfStmt:
				w.walkStmts([]ast.Stmt{els}, cloneHeldLocks(held))
			}
		case *ast.ForStmt:
			if s.Init != nil {
				w.walkStmts([]ast.Stmt{s.Init}, held)
			}
			w.scanExpr(s.Cond, held)
			w.walkStmts(s.Body.List, cloneHeldLocks(held))
		case *ast.RangeStmt:
			if w.onBlocked != nil && len(held) > 0 && isChanExpr(w.info, s.X) {
				w.onBlocked(heldList(held), "a range over a channel", s.Pos())
			}
			w.scanExpr(s.X, held)
			w.walkStmts(s.Body.List, cloneHeldLocks(held))
		case *ast.BlockStmt:
			w.walkStmts(s.List, cloneHeldLocks(held))
		case *ast.SwitchStmt:
			if s.Init != nil {
				w.walkStmts([]ast.Stmt{s.Init}, held)
			}
			w.scanExpr(s.Tag, held)
			for _, c := range s.Body.List {
				if cc, ok := c.(*ast.CaseClause); ok {
					w.walkStmts(cc.Body, cloneHeldLocks(held))
				}
			}
		case *ast.TypeSwitchStmt:
			if s.Init != nil {
				w.walkStmts([]ast.Stmt{s.Init}, held)
			}
			for _, c := range s.Body.List {
				if cc, ok := c.(*ast.CaseClause); ok {
					w.walkStmts(cc.Body, cloneHeldLocks(held))
				}
			}
		case *ast.SelectStmt:
			if w.onBlocked != nil && len(held) > 0 && !selectHasDefault(s) {
				w.onBlocked(heldList(held), "a select with no default", s.Pos())
			}
			for _, c := range s.Body.List {
				if cc, ok := c.(*ast.CommClause); ok {
					w.walkStmts(cc.Body, cloneHeldLocks(held))
				}
			}
		case *ast.SendStmt:
			if w.onBlocked != nil && len(held) > 0 {
				w.onBlocked(heldList(held), "a channel send", s.Pos())
			}
			w.scanExpr(s.Chan, held)
			w.scanExpr(s.Value, held)
		case *ast.AssignStmt:
			for _, e := range s.Rhs {
				w.scanExpr(e, held)
			}
			for _, e := range s.Lhs {
				w.scanExpr(e, held)
			}
		case *ast.DeclStmt:
			if gd, ok := s.Decl.(*ast.GenDecl); ok {
				for _, spec := range gd.Specs {
					if vs, ok := spec.(*ast.ValueSpec); ok {
						for _, v := range vs.Values {
							w.scanExpr(v, held)
						}
					}
				}
			}
		case *ast.GoStmt:
			// The spawned body runs with its own (empty) held set; the
			// arguments evaluate on this goroutine.
			for _, a := range s.Call.Args {
				w.scanExpr(a, held)
			}
			if lit, ok := ast.Unparen(s.Call.Fun).(*ast.FuncLit); ok {
				w.walkStmts(lit.Body.List, map[string]*heldLock{})
			}
		case *ast.LabeledStmt:
			w.walkStmts([]ast.Stmt{s.Stmt}, held)
		case *ast.IncDecStmt:
			w.scanExpr(s.X, held)
		}
	}
}

// scanExpr inspects one expression for channel receives and calls made
// under the current held set. Function literals are walked as fresh
// roots: their bodies run under their own lock discipline.
func (w *lockWalker) scanExpr(e ast.Expr, held map[string]*heldLock) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(nd ast.Node) bool {
		switch x := nd.(type) {
		case *ast.FuncLit:
			w.walkStmts(x.Body.List, map[string]*heldLock{})
			return false
		case *ast.UnaryExpr:
			if x.Op == token.ARROW && w.onBlocked != nil && len(held) > 0 {
				w.onBlocked(heldList(held), "a channel receive", x.Pos())
			}
		case *ast.CallExpr:
			if _, _, ok := lockCall(w.info, x); ok {
				return true
			}
			fn := calleeFunc(w.info, x)
			if fn == nil || len(held) == 0 {
				return true
			}
			if w.onBlocked != nil && matchAny(fn, blockingSinks) {
				w.onBlocked(heldList(held), "blocking call "+funcDisplayName(fn), x.Pos())
			}
			if w.onCall != nil {
				w.onCall(heldList(held), fn, x.Pos())
			}
		}
		return true
	})
}

func cloneHeldLocks(held map[string]*heldLock) map[string]*heldLock {
	out := make(map[string]*heldLock, len(held))
	for k, v := range held {
		out[k] = v
	}
	return out
}

// lockVarOf resolves the named mutex object a lock call operates on:
// the struct field or package-level variable of type
// sync.Mutex/RWMutex, including embedded mutexes reached through
// promoted methods. Local-variable locks and unresolvable receivers
// return (nil, "").
func lockVarOf(info *types.Info, call *ast.CallExpr) (*types.Var, string) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil, ""
	}
	if s, ok := info.Selections[sel]; ok && len(s.Index()) > 1 {
		// Promoted method: the first len-1 index entries walk embedded
		// fields; the last field reached is the mutex itself.
		t := s.Recv()
		var fld *types.Var
		for _, idx := range s.Index()[:len(s.Index())-1] {
			st, ok := derefStruct(t)
			if !ok || idx >= st.NumFields() {
				return nil, ""
			}
			fld = st.Field(idx)
			t = fld.Type()
		}
		if fld == nil {
			return nil, ""
		}
		return fld, namedTypeName(s.Recv()) + "." + fld.Name()
	}
	switch x := ast.Unparen(sel.X).(type) {
	case *ast.SelectorExpr:
		v, ok := info.Uses[x.Sel].(*types.Var)
		if !ok {
			return nil, ""
		}
		if v.IsField() {
			return v, namedTypeNameOf(info, x.X) + "." + v.Name()
		}
		if v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			return v, v.Pkg().Name() + "." + v.Name()
		}
	case *ast.Ident:
		v, ok := info.Uses[x].(*types.Var)
		if !ok {
			return nil, ""
		}
		if v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			return v, v.Pkg().Name() + "." + v.Name()
		}
	}
	return nil, ""
}

// derefStruct unwraps one pointer level and returns the underlying
// struct type, if any.
func derefStruct(t types.Type) (*types.Struct, bool) {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	st, ok := t.Underlying().(*types.Struct)
	return st, ok
}

// namedTypeName names the (possibly pointer-wrapped) named type, or "?".
func namedTypeName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return "?"
}

func namedTypeNameOf(info *types.Info, e ast.Expr) string {
	if tv, ok := info.Types[e]; ok && tv.Type != nil {
		return namedTypeName(tv.Type)
	}
	return "?"
}

func isChanExpr(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	_, isChan := tv.Type.Underlying().(*types.Chan)
	return isChan
}

func selectHasDefault(s *ast.SelectStmt) bool {
	for _, c := range s.Body.List {
		if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
			return true
		}
	}
	return false
}

// lockCall matches a call expression of the form recv.Lock / RLock /
// Unlock / RUnlock where the method belongs to sync.Mutex or
// sync.RWMutex (including promoted methods of embedded mutexes), and
// returns a stable key for the receiver expression.
func lockCall(info *types.Info, e ast.Expr) (recv, op string, ok bool) {
	call, isCall := ast.Unparen(e).(*ast.CallExpr)
	if !isCall {
		return "", "", false
	}
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	fn, isFn := info.Uses[sel.Sel].(*types.Func)
	if !isFn || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", "", false
	}
	switch fn.Name() {
	case "Lock", "RLock", "Unlock", "RUnlock":
		return exprKey(sel.X), fn.Name(), true
	}
	return "", "", false
}

// deferredUnlock reports whether stmt is `defer recv.Unlock()` (or
// RUnlock) for the same receiver key.
func deferredUnlock(info *types.Info, stmt ast.Stmt, wantRecv string) bool {
	d, ok := stmt.(*ast.DeferStmt)
	if !ok {
		return false
	}
	recv, op, ok := lockCall(info, d.Call)
	return ok && recv == wantRecv && (op == "Unlock" || op == "RUnlock")
}
