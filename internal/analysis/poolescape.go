package analysis

// poolescape: lifetime soundness for sync.Pool-owned values. Once a
// value is Put back — directly, through a deferred Put, or through a
// module helper whose flow summary releases it (xmlstream's putParser)
// — the pool may hand it to another goroutine at any moment, so every
// later read through any alias is a data race in waiting, and a second
// Put makes the pool hold the same object twice. A parsed document is
// pool-owned the same way: Document.Release hands its arena back, so
// the document and every node read out of it (root := doc.Root()) are
// dead afterwards. The rule is a MAY analysis over the value-flow
// framework: released on any path to a use is enough to flag the use.

import (
	"go/ast"
	"go/types"
)

// PoolEscape flags uses, aliases, and returns of a pooled value after
// its Put, and double Puts, on any path.
var PoolEscape = &Analyzer{
	Name:      "poolescape",
	Doc:       "values from sync.Pool.Get (or pooled helpers) must not be used, aliased, or returned after their Put, and never Put twice on any path",
	RunModule: runPoolEscape,
}

// Abstract register states. Zero means untracked.
const (
	poolLive     uint8 = 1
	poolReleased uint8 = 2
)

func runPoolEscape(pass *ModulePass) {
	runFlowModule(pass, &poolEscapeRule{sums: pass.Graph.flowSums()}, nil)
}

type poolEscapeRule struct {
	sums map[*types.Func]*flowSummary
}

// mergeVal: released on any path wins (MAY analysis).
func (r *poolEscapeRule) mergeVal(a, b uint8) uint8 {
	if a > b {
		return a
	}
	return b
}

func (r *poolEscapeRule) applyFact(fa *flowAnalysis, st *flowState, f branchFact) {}

func (r *poolEscapeRule) transferNode(fa *flowAnalysis, st *flowState, n ast.Node) {
	switch x := n.(type) {
	case *ast.AssignStmt:
		for _, rhs := range x.Rhs {
			r.scanExpr(fa, st, rhs)
		}
		if len(x.Lhs) == len(x.Rhs) {
			for i := range x.Lhs {
				r.bind(fa, st, x.Lhs[i], x.Rhs[i])
			}
			return
		}
		// Tuple assignment: no single producer expression per name,
		// except that a pooled producer's first result is the pooled
		// value (doc, err := xmldom.ParseBytes(b)).
		call := r.pooledCall(fa, x.Rhs[0])
		for i, lhs := range x.Lhs {
			obj := assignedObj(fa.info, lhs)
			if obj == nil {
				continue
			}
			if i == 0 && call != nil {
				r.startLive(fa, st, call, obj)
				continue
			}
			delete(st.objs, obj)
		}

	case *ast.DeclStmt:
		gd, ok := x.Decl.(*ast.GenDecl)
		if !ok {
			return
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			for _, v := range vs.Values {
				r.scanExpr(fa, st, v)
			}
			if len(vs.Names) == len(vs.Values) {
				for i := range vs.Names {
					r.bind(fa, st, vs.Names[i], vs.Values[i])
				}
			}
		}

	case *ast.ReturnStmt:
		for _, res := range x.Results {
			regs := r.regsOf(fa, st, res)
			released := false
			for _, reg := range regs {
				if st.vals[reg] == poolReleased {
					released = true
					fa.reportf(res.Pos(), "pooled %s returned after Put; the pool may already have handed it to another goroutine", fa.regs[reg].name)
				}
			}
			if !released {
				r.scanExpr(fa, st, res)
			}
		}

	case *ast.DeferStmt:
		// Registration: arguments evaluate now; the call itself runs at
		// exit and is handled by the replayedDefer node there.
		r.scanCallOperands(fa, st, x.Call)

	case *ast.GoStmt:
		// The spawned call runs at an unknowable time; only argument
		// evaluation happens here.
		r.scanCallOperands(fa, st, x.Call)

	case replayedDefer:
		r.call(fa, st, x.CallExpr)

	case *ast.RangeStmt:
		// Only the range operand evaluates in this block; the body lives
		// in its own blocks.
		r.scanExpr(fa, st, x.X)

	case *ast.ExprStmt:
		r.scanExpr(fa, st, x.X)

	case ast.Expr:
		// Branch conditions.
		r.scanExpr(fa, st, x)

	case *ast.IncDecStmt:
		r.scanExpr(fa, st, x.X)

	case *ast.SendStmt:
		r.scanExpr(fa, st, x.Chan)
		r.scanExpr(fa, st, x.Value)
	}
}

// scanExpr walks one expression: identifiers are use-checked, calls get
// their release semantics. Function literals are separate roots.
func (r *poolEscapeRule) scanExpr(fa *flowAnalysis, st *flowState, e ast.Expr) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			r.call(fa, st, x)
			return false
		case *ast.Ident:
			r.useCheck(fa, st, x)
		}
		return true
	})
}

// scanCallOperands scans a call's receiver and arguments as plain uses
// without applying the call's release semantics.
func (r *poolEscapeRule) scanCallOperands(fa *flowAnalysis, st *flowState, call *ast.CallExpr) {
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		r.scanExpr(fa, st, sel.X)
	}
	for _, a := range call.Args {
		r.scanExpr(fa, st, a)
	}
}

// call interprets one call: a direct release (Pool.Put, or
// Document.Release on its receiver) releases its operand (double
// release reported), a summarized module callee releases the effective
// parameters its summary says it does, everything else is argument
// uses.
func (r *poolEscapeRule) call(fa *flowAnalysis, st *flowState, call *ast.CallExpr) {
	fn := calleeFunc(fa.info, call)
	var released ast.Expr
	if fn != nil && matchAny(fn, poolPutFuncs) {
		released = releasedOperand(call)
	}
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && sel.X != released {
		r.scanExpr(fa, st, sel.X)
	}

	if released != nil {
		regs := r.regsOf(fa, st, released)
		for _, reg := range regs {
			if st.vals[reg] == poolReleased {
				fa.reportf(call.Lparen, "pooled %s Put again; it was already released on this path", fa.regs[reg].name)
			}
			st.vals[reg] = poolReleased
		}
		if len(regs) == 0 {
			r.scanExpr(fa, st, released)
			// A value with no tracked producer (a document read out of
			// a result) is dead from its release on.
			if obj := assignedObj(fa.info, unwrapValueExpr(released)); obj != nil {
				reg := fa.register(call.Lparen, obj.Name(), obj)
				st.objs[obj] = []vreg{reg}
				st.vals[reg] = poolReleased
			}
		}
		return
	}

	for _, a := range call.Args {
		r.scanExpr(fa, st, a)
	}
	if fn == nil {
		return
	}
	if sum, ok := r.sums[fn]; ok && sum.releases != 0 {
		args := effectiveArgs(fa.info, call)
		for i, a := range args {
			if sum.releases&summaryBit(i) == 0 {
				continue
			}
			for _, reg := range r.regsOf(fa, st, a) {
				if st.vals[reg] == poolReleased {
					fa.reportf(call.Lparen, "pooled %s Put again (via %s); it was already released on this path", fa.regs[reg].name, funcDisplayName(fn))
				}
				st.vals[reg] = poolReleased
			}
		}
	}
}

func (r *poolEscapeRule) useCheck(fa *flowAnalysis, st *flowState, id *ast.Ident) {
	obj := fa.info.Uses[id]
	if obj == nil {
		return
	}
	for _, reg := range st.objs[obj] {
		if st.vals[reg] == poolReleased {
			fa.reportf(id.Pos(), "pooled %s used after Put; the pool may already have handed it to another goroutine", fa.regs[reg].name)
		}
	}
}

// bind updates the abstract store for one lhs := rhs pair: a pooled
// producer starts a live register, an alias or a reference read out of
// a pooled value shares the source's registers, anything else clears
// the name.
func (r *poolEscapeRule) bind(fa *flowAnalysis, st *flowState, lhs, rhs ast.Expr) {
	obj := assignedObj(fa.info, lhs)
	if obj == nil {
		return
	}
	if call := r.pooledCall(fa, rhs); call != nil {
		r.startLive(fa, st, call, obj)
		return
	}
	regs := r.regsOf(fa, st, rhs)
	if len(regs) == 0 && (holdsReference(obj.Type()) || readsArenaText(fa.info, rhs)) {
		regs = r.regsOf(fa, st, derivedFrom(fa.info, rhs))
	}
	if len(regs) > 0 {
		st.objs[obj] = append([]vreg(nil), regs...)
		return
	}
	delete(st.objs, obj)
}

// pooledCall returns rhs as a call that produces a pooled value: a
// poolGetFuncs entry or a module function whose summary returns one.
func (r *poolEscapeRule) pooledCall(fa *flowAnalysis, rhs ast.Expr) *ast.CallExpr {
	call, ok := unwrapValueExpr(rhs).(*ast.CallExpr)
	if !ok {
		return nil
	}
	fn := calleeFunc(fa.info, call)
	if fn == nil {
		return nil
	}
	if matchAny(fn, poolGetFuncs) {
		return call
	}
	if sum, ok := r.sums[fn]; ok && sum.returnsPooled {
		return call
	}
	return nil
}

// startLive binds obj to a fresh live register produced by call.
func (r *poolEscapeRule) startLive(fa *flowAnalysis, st *flowState, call *ast.CallExpr, obj types.Object) {
	reg := fa.register(call.Lparen, obj.Name(), obj)
	st.objs[obj] = []vreg{reg}
	st.vals[reg] = poolLive
}

// derivedFrom returns the value a reference is read out of: p for p.f,
// p.M(...), p[i] and p[i:j], recursively, so root := doc.Root() and
// kids := root.Children both resolve to doc. A poolCopyFuncs call and
// any other expression are returned as is.
func derivedFrom(info *types.Info, e ast.Expr) ast.Expr {
	for {
		switch x := unwrapValueExpr(e).(type) {
		case *ast.SelectorExpr:
			if s := info.Selections[x]; s == nil {
				return x // a package-qualified name
			}
			e = x.X
		case *ast.CallExpr:
			sel, ok := ast.Unparen(x.Fun).(*ast.SelectorExpr)
			if !ok || matchAny(calleeFunc(info, x), poolCopyFuncs) {
				return x
			}
			if s := info.Selections[sel]; s == nil || s.Kind() != types.MethodVal {
				return x
			}
			e = sel.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		default:
			return x
		}
	}
}

// readsArenaText reports whether e reads a parsed document's text
// (arenaTextFuncs, arenaTextFields) or slices a string that may hold
// such a read: a string that views the document's arena.
func readsArenaText(info *types.Info, e ast.Expr) bool {
	for {
		switch x := unwrapValueExpr(e).(type) {
		case *ast.SliceExpr:
			e = x.X
		case *ast.Ident:
			t := info.TypeOf(x)
			return t != nil && types.Identical(t.Underlying(), types.Typ[types.String])
		case *ast.CallExpr:
			return matchAny(calleeFunc(info, x), arenaTextFuncs)
		case *ast.SelectorExpr:
			return matchField(info, x, arenaTextFields) != nil
		default:
			return false
		}
	}
}

// holdsReference reports whether a value of type t can point into the
// memory it was read from; a copied string or number cannot, unless it
// is a document's text (readsArenaText).
func holdsReference(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Slice, *types.Map, *types.Chan, *types.Interface:
		return true
	}
	return false
}

// regsOf resolves an expression to the registers it names, through
// parens, type assertions, unary ops, and dereferences.
func (r *poolEscapeRule) regsOf(fa *flowAnalysis, st *flowState, e ast.Expr) []vreg {
	e = unwrapValueExpr(e)
	id, ok := e.(*ast.Ident)
	if !ok {
		return nil
	}
	obj := fa.info.Uses[id]
	if obj == nil {
		return nil
	}
	return st.objs[obj]
}

// assignedObj resolves the object a plain-identifier lhs writes to
// (either a fresh definition or a reuse), or nil for blanks and
// non-identifier targets.
func assignedObj(info *types.Info, lhs ast.Expr) types.Object {
	id, ok := ast.Unparen(lhs).(*ast.Ident)
	if !ok || id.Name == "_" {
		return nil
	}
	if obj := info.Defs[id]; obj != nil {
		return obj
	}
	return info.Uses[id]
}

// unwrapValueExpr strips the wrappers that preserve value identity:
// parens, type assertions, &x, and *x.
func unwrapValueExpr(e ast.Expr) ast.Expr {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.TypeAssertExpr:
			if x.Type == nil {
				return e // type-switch guard
			}
			e = x.X
		case *ast.UnaryExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return e
		}
	}
}
