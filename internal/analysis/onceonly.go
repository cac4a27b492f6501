package analysis

// onceonly: single-consumption soundness for one-shot readers. An
// io.Reader handed to a verification entry is a stream, not a value:
// after xmlstream.Parse or io.ReadAll has drained it, a second consume
// sees EOF (verifying an empty document), and wrapping it after a
// partial read re-frames the remaining bytes as a whole document —
// both are silent verification of the wrong content. Tracked readers
// are interface-typed parameters (anything the OpenReader family
// accepts) and http.Request.Body reads; aliasing follows assignment,
// wrapper constructors (MaxBytesReader, LimitReader, bufio.NewReader,
// &countReader{r: r}-style composite literals), and module callees
// whose flow summary consumes a reader parameter.

import (
	"go/ast"
	"go/types"
)

// OnceOnly flags one-shot readers consumed twice or re-wrapped after a
// partial read.
var OnceOnly = &Analyzer{
	Name:      "onceonly",
	Doc:       "one-shot readers (request bodies, OpenReader-family arguments) must not be consumed twice or re-wrapped after a partial read",
	RunModule: runOnceOnly,
}

// Abstract register states. Zero means untracked.
const (
	readerFresh    uint8 = 1
	readerPartial  uint8 = 2
	readerConsumed uint8 = 3
)

func runOnceOnly(pass *ModulePass) {
	rule := &onceOnlyRule{sums: pass.Graph.flowSums()}
	runFlowModule(pass, rule, func(fa *flowAnalysis, node *FuncNode, st *flowState) {
		// Interface-typed reader parameters are one-shot on entry:
		// the caller may have handed us a socket, a pipe, or a request
		// body. Concrete resettable readers never seed registers.
		for _, p := range funcParams(node.Pkg.Info, node.Decl) {
			if isOneShotReaderType(p.Type()) {
				reg := fa.register(p.Pos(), p.Name(), p)
				st.objs[p] = []vreg{reg}
				st.vals[reg] = readerFresh
			}
		}
	})
}

type onceOnlyRule struct {
	sums map[*types.Func]*flowSummary
}

// mergeVal: consumed on any path wins (MAY analysis).
func (r *onceOnlyRule) mergeVal(a, b uint8) uint8 {
	if a > b {
		return a
	}
	return b
}

func (r *onceOnlyRule) applyFact(fa *flowAnalysis, st *flowState, f branchFact) {}

func (r *onceOnlyRule) transferNode(fa *flowAnalysis, st *flowState, n ast.Node) {
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
		for _, lhs := range x.Lhs {
			if obj := assignedObj(fa.info, lhs); obj != nil {
				st.vers[obj] = lhs.Pos()
				delete(st.objs, obj)
			}
		}

	case *ast.DeclStmt:
		if gd, ok := x.Decl.(*ast.GenDecl); ok {
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
		}

	case *ast.ReturnStmt:
		for _, res := range x.Results {
			r.scanExpr(fa, st, res)
		}

	case *ast.DeferStmt:
		// Only argument evaluation happens at registration; the deferred
		// consume (e.g. a drain) runs last, after every legitimate use,
		// so its replay is deliberately not judged.
		for _, a := range x.Call.Args {
			r.scanExpr(fa, st, a)
		}

	case replayedDefer:
		// See DeferStmt.

	case *ast.GoStmt:
		r.call(fa, st, x.Call)

	case *ast.RangeStmt:
		r.scanExpr(fa, st, x.X)

	case *ast.ExprStmt:
		r.scanExpr(fa, st, x.X)

	case ast.Expr:
		r.scanExpr(fa, st, x)

	case *ast.SendStmt:
		r.scanExpr(fa, st, x.Chan)
		r.scanExpr(fa, st, x.Value)
	}
}

// scanExpr walks an expression and interprets every call's reader
// semantics. Identifiers on their own are not "uses" for this rule —
// only reads consume a stream.
func (r *onceOnlyRule) scanExpr(fa *flowAnalysis, st *flowState, e ast.Expr) {
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
		}
		return true
	})
}

// call interprets one call against the consumer/partial/wrapper tables
// and the interprocedural consume summaries.
func (r *onceOnlyRule) call(fa *flowAnalysis, st *flowState, call *ast.CallExpr) {
	// Nested calls in arguments evaluate first.
	for _, a := range call.Args {
		r.scanExpr(fa, st, a)
	}
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		r.scanExpr(fa, st, sel.X)
		// A raw r.Read(buf) is a partial read of the receiver.
		if sel.Sel.Name == "Read" && len(call.Args) == 1 {
			for _, reg := range r.aliasRegs(fa, st, sel.X) {
				if st.vals[reg] == readerFresh {
					st.vals[reg] = readerPartial
				}
			}
		}
	}
	fn := calleeFunc(fa.info, call)
	if fn == nil {
		return
	}
	args := effectiveArgs(fa.info, call)

	if ref, ok := readerConsumerFor(fn); ok {
		r.forRefArgs(ref, args, func(a ast.Expr) { r.consume(fa, st, a, fn) })
		return
	}
	if ref, ok := readerPartialFor(fn); ok {
		r.forRefArgs(ref, args, func(a ast.Expr) { r.partial(fa, st, a, fn) })
		return
	}
	if ref, ok := readerWrapperFor(fn); ok {
		r.forRefArgs(ref, args, func(a ast.Expr) { r.wrapCheck(fa, st, a, fn) })
		return
	}
	if sum, ok := r.sums[fn]; ok && sum.consumes != 0 {
		for i, a := range args {
			if sum.consumes&summaryBit(i) != 0 {
				r.consume(fa, st, a, fn)
			}
		}
	}
}

func (r *onceOnlyRule) forRefArgs(ref ReaderRef, args []ast.Expr, f func(ast.Expr)) {
	if ref.Arg < 0 {
		for _, a := range args {
			f(a)
		}
		return
	}
	if ref.Arg < len(args) {
		f(args[ref.Arg])
	}
}

func (r *onceOnlyRule) consume(fa *flowAnalysis, st *flowState, arg ast.Expr, fn *types.Func) {
	for _, reg := range r.aliasRegs(fa, st, arg) {
		if st.vals[reg] == readerConsumed {
			fa.reportf(arg.Pos(), "one-shot reader %s consumed twice: already fully read on this path, %s will see EOF or trailing bytes", fa.regs[reg].name, funcDisplayName(fn))
		}
		st.vals[reg] = readerConsumed
	}
}

func (r *onceOnlyRule) partial(fa *flowAnalysis, st *flowState, arg ast.Expr, fn *types.Func) {
	for _, reg := range r.aliasRegs(fa, st, arg) {
		if st.vals[reg] == readerConsumed {
			fa.reportf(arg.Pos(), "one-shot reader %s read again (%s) after being fully consumed on this path", fa.regs[reg].name, funcDisplayName(fn))
			continue
		}
		st.vals[reg] = readerPartial
	}
}

func (r *onceOnlyRule) wrapCheck(fa *flowAnalysis, st *flowState, arg ast.Expr, fn *types.Func) {
	for _, reg := range r.aliasRegs(fa, st, arg) {
		switch st.vals[reg] {
		case readerPartial:
			fa.reportf(arg.Pos(), "one-shot reader %s re-wrapped (%s) after a partial read; the wrapper presents a beheaded stream as a whole document", fa.regs[reg].name, funcDisplayName(fn))
		case readerConsumed:
			fa.reportf(arg.Pos(), "one-shot reader %s re-wrapped (%s) after being fully consumed on this path", fa.regs[reg].name, funcDisplayName(fn))
		}
	}
}

// bind propagates reader identity through one lhs := rhs pair.
func (r *onceOnlyRule) bind(fa *flowAnalysis, st *flowState, lhs, rhs ast.Expr) {
	// Writing a one-shot field source (req.Body = ...) starts a new
	// stream identity for future reads.
	if sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr); ok {
		if oneShotField(fa.info, sel) != nil {
			if base := rootObj(fa.info, sel.X); base != nil {
				st.vers[base] = lhs.Pos()
			}
		}
		return
	}
	obj := assignedObj(fa.info, lhs)
	if obj == nil {
		return
	}
	regs := r.aliasRegs(fa, st, rhs)
	if len(regs) > 0 {
		st.objs[obj] = append([]vreg(nil), regs...)
		st.vers[obj] = lhs.Pos()
		return
	}
	// True reassignment to an untracked value: the old stream is no
	// longer reachable through this name.
	fa.killRoot(st, obj)
	st.vers[obj] = lhs.Pos()
	delete(st.objs, obj)
}

// aliasRegs resolves an expression to the reader registers whose
// identity it carries: plain names, one-shot field reads (registers
// created on first touch), wrapper-constructor calls, composite
// literals embedding a reader, and the identity-preserving wrappers
// (&x, parens, type asserts).
func (r *onceOnlyRule) aliasRegs(fa *flowAnalysis, st *flowState, e ast.Expr) []vreg {
	var out []vreg
	seen := map[vreg]bool{}
	add := func(regs []vreg) {
		for _, reg := range regs {
			if !seen[reg] {
				seen[reg] = true
				out = append(out, reg)
			}
		}
	}
	var walk func(ast.Expr)
	walk = func(e ast.Expr) {
		e = unwrapValueExpr(e)
		switch x := e.(type) {
		case *ast.Ident:
			if obj := fa.info.Uses[x]; obj != nil {
				add(st.objs[obj])
			}
		case *ast.SelectorExpr:
			if oneShotField(fa.info, x) == nil {
				return
			}
			base := rootObj(fa.info, x.X)
			if base == nil {
				return
			}
			reg := fa.fieldRegister(st, base, x.Sel.Name, x.Sel.Pos())
			if _, tracked := st.vals[reg]; !tracked {
				st.vals[reg] = readerFresh
			}
			add([]vreg{reg})
		case *ast.CompositeLit:
			for _, elt := range x.Elts {
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					walk(kv.Value)
				} else {
					walk(elt)
				}
			}
		case *ast.CallExpr:
			fn := calleeFunc(fa.info, x)
			if fn == nil {
				return
			}
			if ref, ok := readerWrapperFor(fn); ok {
				args := effectiveArgs(fa.info, x)
				r.forRefArgs(ref, args, walk)
			}
		}
	}
	walk(e)
	return out
}

// oneShotField matches a selector against oneShotFieldSources,
// returning the field object or nil.
func oneShotField(info *types.Info, sel *ast.SelectorExpr) types.Object {
	return matchField(info, sel, oneShotFieldSources)
}

// matchField matches a selector against a field list, returning the
// field object or nil.
func matchField(info *types.Info, sel *ast.SelectorExpr, refs []FieldRef) types.Object {
	obj, ok := info.Uses[sel.Sel].(*types.Var)
	if !ok || !obj.IsField() || obj.Pkg() == nil {
		return nil
	}
	for _, fs := range refs {
		if obj.Pkg().Path() != fs.Pkg || obj.Name() != fs.Field {
			continue
		}
		t := info.Types[sel.X].Type
		if t == nil {
			continue
		}
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if named, ok := t.(*types.Named); ok && named.Obj().Name() == fs.Type {
			return obj
		}
	}
	return nil
}
