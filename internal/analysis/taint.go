package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// The taint engine proves the paper's pipeline-level invariant: bytes
// read from a disc image or fetched from a content server are untrusted
// until the Verifier (xmldsig, or core.Open* which drives it) has
// passed them, and only then may they reach execution or persistence
// sinks. It is a conservative intra+interprocedural dataflow:
//
//   - Within one function, taint propagates through assignments,
//     conversions, composite literals, binary expressions, slicing,
//     indexing, range, and calls; function literals are analyzed in
//     their enclosing function's state so captured variables flow.
//   - Across functions, each module function gets a summary, solved
//     bottom-up over the call graph (solve.go): which parameters flow to
//     its returns, whether a taint source flows to its returns, and
//     which parameters it forwards (transitively) into a sink. Calls to
//     functions without analyzable bodies (stdlib, indirect, interface)
//     conservatively taint their results with the union of argument
//     taint.
//
// Deliberate precision choices, documented because they shape findings:
// field writes (x.f = tainted) do not taint the enclosing object and
// method calls do not taint their receivers — the container reads that
// matter (disc.Image.Get and friends) are themselves declared sources,
// so data re-read from a container is re-tainted at the read. Sanitizer
// calls clean both their results and the root objects of their
// arguments (the verify-then-use idiom operates on the argument).
// Error-typed values never carry taint: a wrapped error is not content,
// and tracking it would mark every `return nil, err` path after a
// source call as a content flow.

// taintMask is a small powerset lattice: bit i (summaryBit(i), i < 62)
// means "tainted if parameter i is tainted"; the top bit means "carries
// source taint".
type taintMask = uint64

const taintSrc taintMask = 1 << 63

// FuncRef names a package-level function or method for the declarative
// source/sanitizer/sink tables. Recv is the receiver type name, "" for
// plain functions.
type FuncRef struct {
	Pkg  string
	Recv string
	Name string
}

func (r FuncRef) matches(fn *types.Func) bool {
	return fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == r.Pkg &&
		fn.Name() == r.Name && recvTypeName(fn) == r.Recv
}

func matchAny(fn *types.Func, refs []FuncRef) bool {
	for _, r := range refs {
		if r.matches(fn) {
			return true
		}
	}
	return false
}

// FieldRef names a struct field whose read is a taint source (e.g. the
// body of an inbound *http.Request).
type FieldRef struct {
	Pkg   string
	Type  string
	Field string
}

// TaintSpec is one rule's declarative trust-boundary description.
type TaintSpec struct {
	Sources      []FuncRef
	FieldSources []FieldRef
	Sanitizers   []FuncRef
	Sinks        []FuncRef
	// SinkMsg formats the direct finding; ForwardMsg the interprocedural
	// one. Both receive the callee display name.
	SinkMsg    string
	ForwardMsg string
}

// taintSummary is the interprocedural abstraction of one function.
type taintSummary struct {
	// ret: summaryBit(i) set means parameter i flows to a return value;
	// taintSrc set means a source flows to a return value.
	ret taintMask
	// sink: summaryBit(i) set means parameter i reaches a sink, possibly
	// through callees.
	sink taintMask
}

type taintEngine struct {
	spec *TaintSpec
	sum  map[*types.Func]*taintSummary

	// reporting state (nil while solving)
	pass     *ModulePass
	reported map[token.Pos]bool
}

// runTaint executes the spec over the module pass's packages: it solves
// the summaries (solve.go), then rescans every function in declaration
// order, reporting.
func runTaint(pass *ModulePass, spec *TaintSpec) {
	te := &taintEngine{spec: spec, sum: map[*types.Func]*taintSummary{}}
	solveBottomUp(pass.Graph, te.sum, te.analyzeFunc, eq[taintSummary])
	te.pass = pass
	te.reported = map[token.Pos]bool{}
	for _, n := range sortedFuncNodes(pass.Graph) {
		te.analyzeFunc(n)
	}
}

// taintState is the per-function abstract store.
type taintState struct {
	vals map[types.Object]taintMask
	info *types.Info
	// returns accumulates the masks of returned expressions of the
	// declared function (returns inside function literals are excluded).
	returns taintMask
	sink    taintMask
	inLit   int
}

// analyzeFunc runs the intraprocedural analysis and returns the
// function's summary under the engine's current summaries. When the
// engine is in report mode, sink violations are reported.
func (te *taintEngine) analyzeFunc(node *FuncNode) taintSummary {
	st := &taintState{vals: map[types.Object]taintMask{}, info: node.Pkg.Info}
	for i, obj := range funcParams(node.Pkg.Info, node.Decl) {
		st.vals[obj] = summaryBit(i)
	}
	// Two passes approximate loop-carried flows (a value tainted late
	// in a loop body reaching an earlier statement next iteration).
	for i := 0; i < 2; i++ {
		te.walkStmts(st, node.Decl.Body.List)
	}
	return taintSummary{ret: st.returns, sink: st.sink}
}

// funcParams returns the receiver (if any) followed by the parameters,
// as defined objects; the summary indexes params in this order.
func funcParams(info *types.Info, fd *ast.FuncDecl) []types.Object {
	var out []types.Object
	collect := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, field := range fl.List {
			for _, name := range field.Names {
				if obj := info.Defs[name]; obj != nil {
					out = append(out, obj)
				}
			}
		}
	}
	collect(fd.Recv)
	collect(fd.Type.Params)
	return out
}

func (te *taintEngine) walkStmts(st *taintState, list []ast.Stmt) {
	for _, s := range list {
		te.walkStmt(st, s)
	}
}

func (te *taintEngine) walkStmt(st *taintState, s ast.Stmt) {
	switch x := s.(type) {
	case *ast.AssignStmt:
		masks := make([]taintMask, len(x.Rhs))
		for i, rhs := range x.Rhs {
			masks[i] = te.eval(st, rhs)
		}
		if len(x.Rhs) == 1 && len(x.Lhs) > 1 {
			// Multi-value call/assert: every LHS gets the call's mask.
			for _, lhs := range x.Lhs {
				te.assign(st, lhs, masks[0], x.Tok == token.ASSIGN || x.Tok == token.DEFINE)
			}
			return
		}
		for i, lhs := range x.Lhs {
			if i < len(masks) {
				te.assign(st, lhs, masks[i], x.Tok == token.ASSIGN || x.Tok == token.DEFINE)
			}
		}
	case *ast.DeclStmt:
		if gd, ok := x.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, name := range vs.Names {
					if i < len(vs.Values) {
						te.assign(st, name, te.eval(st, vs.Values[i]), true)
					}
				}
			}
		}
	case *ast.ExprStmt:
		te.eval(st, x.X)
	case *ast.ReturnStmt:
		var m taintMask
		for _, res := range x.Results {
			rm := te.eval(st, res) // always eval: calls have effects
			if !isErrorExpr(st.info, res) {
				m |= rm
			}
		}
		if st.inLit == 0 {
			st.returns |= m
		}
	case *ast.IfStmt:
		if x.Init != nil {
			te.walkStmt(st, x.Init)
		}
		te.eval(st, x.Cond)
		te.walkStmts(st, x.Body.List)
		if x.Else != nil {
			te.walkStmt(st, x.Else)
		}
	case *ast.BlockStmt:
		te.walkStmts(st, x.List)
	case *ast.ForStmt:
		if x.Init != nil {
			te.walkStmt(st, x.Init)
		}
		if x.Cond != nil {
			te.eval(st, x.Cond)
		}
		te.walkStmts(st, x.Body.List)
		if x.Post != nil {
			te.walkStmt(st, x.Post)
		}
	case *ast.RangeStmt:
		m := te.eval(st, x.X)
		if x.Key != nil {
			te.assign(st, x.Key, m, true)
		}
		if x.Value != nil {
			te.assign(st, x.Value, m, true)
		}
		te.walkStmts(st, x.Body.List)
	case *ast.SwitchStmt:
		if x.Init != nil {
			te.walkStmt(st, x.Init)
		}
		if x.Tag != nil {
			te.eval(st, x.Tag)
		}
		for _, c := range x.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				for _, e := range cc.List {
					te.eval(st, e)
				}
				te.walkStmts(st, cc.Body)
			}
		}
	case *ast.TypeSwitchStmt:
		if x.Init != nil {
			te.walkStmt(st, x.Init)
		}
		var tagMask taintMask
		if as, ok := x.Assign.(*ast.AssignStmt); ok && len(as.Rhs) == 1 {
			tagMask = te.eval(st, as.Rhs[0])
		} else if es, ok := x.Assign.(*ast.ExprStmt); ok {
			tagMask = te.eval(st, es.X)
		}
		for _, c := range x.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				// The per-clause implicit object carries the tag's taint.
				if obj := st.info.Implicits[cc]; obj != nil {
					st.vals[obj] |= tagMask
				}
				te.walkStmts(st, cc.Body)
			}
		}
	case *ast.SelectStmt:
		for _, c := range x.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				if cc.Comm != nil {
					te.walkStmt(st, cc.Comm)
				}
				te.walkStmts(st, cc.Body)
			}
		}
	case *ast.DeferStmt:
		te.evalCall(st, x.Call)
	case *ast.GoStmt:
		te.evalCall(st, x.Call)
	case *ast.SendStmt:
		m := te.eval(st, x.Value)
		if obj := rootObj(st.info, x.Chan); obj != nil {
			st.vals[obj] |= m
		}
	case *ast.LabeledStmt:
		te.walkStmt(st, x.Stmt)
	case *ast.IncDecStmt:
		te.eval(st, x.X)
	}
}

// assign writes mask to the target. Identifier targets get a strong
// update; field/index targets deliberately do not taint the root
// object (see the package comment on precision choices).
func (te *taintEngine) assign(st *taintState, lhs ast.Expr, mask taintMask, strong bool) {
	switch x := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		if x.Name == "_" {
			return
		}
		obj := st.info.Defs[x]
		if obj == nil {
			obj = st.info.Uses[x]
		}
		if obj == nil {
			return
		}
		if isErrorType(obj.Type()) {
			mask = 0
		}
		if strong {
			st.vals[obj] = mask
		} else {
			st.vals[obj] |= mask
		}
	default:
		// x.f = v, x[i] = v, *p = v: no root-object tainting.
	}
}

// isErrorType reports whether t is exactly the universe error type.
func isErrorType(t types.Type) bool {
	return t != nil && types.Identical(t, types.Universe.Lookup("error").Type())
}

// isErrorExpr reports whether e's static type is error.
func isErrorExpr(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	return ok && isErrorType(tv.Type)
}

// rootObj unwraps an expression to its base identifier's object.
func rootObj(info *types.Info, e ast.Expr) types.Object {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.UnaryExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.SelectorExpr:
			e = x.X
		case *ast.Ident:
			if obj := info.Uses[x]; obj != nil {
				return obj
			}
			return info.Defs[x]
		default:
			return nil
		}
	}
}

func (te *taintEngine) eval(st *taintState, e ast.Expr) taintMask {
	switch x := e.(type) {
	case *ast.Ident:
		if obj := st.info.Uses[x]; obj != nil {
			return st.vals[obj]
		}
		return 0
	case *ast.SelectorExpr:
		if te.isFieldSource(st, x) {
			return taintSrc
		}
		return te.eval(st, x.X)
	case *ast.CallExpr:
		return te.evalCall(st, x)
	case *ast.ParenExpr:
		return te.eval(st, x.X)
	case *ast.StarExpr:
		return te.eval(st, x.X)
	case *ast.UnaryExpr:
		return te.eval(st, x.X)
	case *ast.BinaryExpr:
		return te.eval(st, x.X) | te.eval(st, x.Y)
	case *ast.IndexExpr:
		return te.eval(st, x.X) | te.eval(st, x.Index)
	case *ast.SliceExpr:
		return te.eval(st, x.X)
	case *ast.TypeAssertExpr:
		return te.eval(st, x.X)
	case *ast.CompositeLit:
		var m taintMask
		for _, el := range x.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				m |= te.eval(st, kv.Value)
			} else {
				m |= te.eval(st, el)
			}
		}
		return m
	case *ast.FuncLit:
		// Analyze the body in the enclosing state so captured variables
		// propagate; the literal's own value carries no taint.
		st.inLit++
		te.walkStmts(st, x.Body.List)
		st.inLit--
		return 0
	}
	return 0
}

func (te *taintEngine) isFieldSource(st *taintState, sel *ast.SelectorExpr) bool {
	obj, ok := st.info.Uses[sel.Sel].(*types.Var)
	if !ok || !obj.IsField() || obj.Pkg() == nil {
		return false
	}
	for _, fs := range te.spec.FieldSources {
		if obj.Pkg().Path() == fs.Pkg && obj.Name() == fs.Field {
			// The owning struct name is not directly on the field var;
			// match the selectee's type instead.
			t := st.info.Types[sel.X].Type
			if t == nil {
				continue
			}
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			if named, ok := t.(*types.Named); ok && named.Obj().Name() == fs.Type {
				return true
			}
		}
	}
	return false
}

// evalCall handles conversions, sources, sanitizers, sinks, summarized
// module functions, and unknown callees.
func (te *taintEngine) evalCall(st *taintState, call *ast.CallExpr) taintMask {
	// Type conversion: propagate the operand.
	if tv, ok := st.info.Types[call.Fun]; ok && tv.IsType() {
		var m taintMask
		for _, a := range call.Args {
			m |= te.eval(st, a)
		}
		return m
	}

	// Effective arguments: method-value receivers prepend the receiver
	// expression, aligning with summary parameter indexing.
	args := make([]ast.Expr, 0, len(call.Args)+1)
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if s := st.info.Selections[sel]; s != nil && s.Kind() == types.MethodVal {
			args = append(args, sel.X)
		}
	}
	args = append(args, call.Args...)

	argMasks := make([]taintMask, len(args))
	var union taintMask
	for i, a := range args {
		argMasks[i] = te.eval(st, a)
		union |= argMasks[i]
	}

	fn := calleeFunc(st.info, call)
	switch {
	case fn == nil:
		// Builtins, indirect calls, interface calls: conservative
		// propagation of argument taint to the result.
		return union

	case matchAny(fn, te.spec.Sanitizers):
		// A successful verify cleans the verified arguments and yields
		// trusted results.
		for _, a := range args {
			if obj := rootObj(st.info, a); obj != nil {
				st.vals[obj] = 0
			}
		}
		return 0

	case matchAny(fn, te.spec.Sources):
		return taintSrc | union

	case matchAny(fn, te.spec.Sinks):
		if union&taintSrc != 0 {
			te.report(call.Lparen, te.spec.SinkMsg, fn)
		}
		st.sink |= union &^ taintSrc
		return union

	default:
		if sum, ok := te.sum[fn]; ok {
			// Summarized module function: translate parameter bits.
			ret := sum.ret & taintSrc
			for i, m := range argMasks {
				if sum.ret&summaryBit(i) != 0 {
					ret |= m
				}
				if sum.sink&summaryBit(i) != 0 {
					if m&taintSrc != 0 {
						te.report(call.Lparen, te.spec.ForwardMsg, fn)
					}
					st.sink |= m &^ taintSrc
				}
			}
			return ret
		}
		// Unknown function (stdlib or module package outside the
		// analyzed set): propagate argument taint.
		return union
	}
}

func (te *taintEngine) report(pos token.Pos, format string, callee *types.Func) {
	if te.pass == nil || te.reported[pos] {
		return
	}
	te.reported[pos] = true
	te.pass.Reportf(pos, format, funcDisplayName(callee))
}
