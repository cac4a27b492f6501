package analysis

// The value-flow framework behind the v4 rules (poolescape,
// errdominate, onceonly). It combines the SSA-lite CFG (ssa.go) with a
// classic iterative dataflow:
//
//   - Abstract values live in *virtual registers*. A register is
//     created at a definition site (a sync.Pool.Get, a verified-open
//     producer call, a one-shot reader read) and identified by that
//     site's position, so re-running the fixpoint converges. Local
//     variables map onto register *sets* — aliasing a value (`q := p`,
//     wrapping a reader) binds another name to the same register, which
//     is what lets a Put through one alias invalidate every other.
//   - Each rule supplies the lattice (mergeVal) and the transfer
//     function. poolescape/onceonly are MAY analyses (released on any
//     path wins); errdominate is a MUST analysis (a value is guarded
//     only if every path to the use saw err == nil for the producing
//     call's error).
//   - Branch sensitivity comes from the CFG's edge facts: the transfer
//     sees `err != nil`-shaped conditions with the truth value the edge
//     assumes, exactly the dominance information "checked before used"
//     needs. A fact guards a register only when the error variable still
//     holds the same definition it had when the register was bound
//     (vers), the renaming half of SSA.
//
// Interprocedural power rides the module call graph: flowSums solves,
// bottom-up with the shared summary solver (solve.go), which effective
// parameters a function releases into a pool, which reader parameters
// it consumes, and whether it returns pool-owned values — so
// `putParser(p)` releases p at the call site and `lib.OpenReader(ctx,
// r)` consumes r without either rule knowing those functions by name.

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// vreg indexes the per-function register table.
type vreg int

// regInfo is the immutable metadata of one virtual register.
type regInfo struct {
	pos  token.Pos // definition site
	name string    // display name for findings
	// rootObj is the variable the register was rooted at (field-read
	// registers: the struct variable), used for strong-update kills.
	rootObj types.Object
	// errObj/errPos bind the register to a specific definition of an
	// error variable (errdominate).
	errObj types.Object
	errPos token.Pos
}

// flowState is the per-program-point abstract store.
type flowState struct {
	// objs binds local variables to the registers they may hold.
	objs map[types.Object][]vreg
	// vals holds each live register's abstract state (rule-specific
	// small enum; 0 means untracked).
	vals map[vreg]uint8
	// vers records the current definition position of variables whose
	// identity matters across reassignment (error vars, reader roots).
	vers map[types.Object]token.Pos
}

func newFlowState() *flowState {
	return &flowState{
		objs: map[types.Object][]vreg{},
		vals: map[vreg]uint8{},
		vers: map[types.Object]token.Pos{},
	}
}

func (s *flowState) clone() *flowState {
	c := &flowState{
		objs: make(map[types.Object][]vreg, len(s.objs)),
		vals: make(map[vreg]uint8, len(s.vals)),
		vers: make(map[types.Object]token.Pos, len(s.vers)),
	}
	for k, v := range s.objs {
		c.objs[k] = append([]vreg(nil), v...)
	}
	for k, v := range s.vals {
		c.vals[k] = v
	}
	for k, v := range s.vers {
		c.vers[k] = v
	}
	return c
}

// equal reports deep equality (fixpoint detection).
func (s *flowState) equal(o *flowState) bool {
	if len(s.objs) != len(o.objs) || len(s.vals) != len(o.vals) || len(s.vers) != len(o.vers) {
		return false
	}
	for k, v := range s.objs {
		ov, ok := o.objs[k]
		if !ok || len(ov) != len(v) {
			return false
		}
		for i := range v {
			if v[i] != ov[i] {
				return false
			}
		}
	}
	for k, v := range s.vals {
		if ov, ok := o.vals[k]; !ok || ov != v {
			return false
		}
	}
	for k, v := range s.vers {
		if ov, ok := o.vers[k]; !ok || ov != v {
			return false
		}
	}
	return true
}

// mergeInto folds src into dst under the rule's value merge, returning
// whether dst changed. Register sets union; versions that disagree are
// dropped (the consuming rule treats a missing version conservatively).
func (s *flowState) mergeInto(dst *flowState, mergeVal func(a, b uint8) uint8) bool {
	changed := false
	for obj, regs := range s.objs {
		have := dst.objs[obj]
		for _, r := range regs {
			if !containsReg(have, r) {
				have = append(have, r)
				changed = true
			}
		}
		sort.Slice(have, func(i, j int) bool { return have[i] < have[j] })
		dst.objs[obj] = have
	}
	for r, v := range s.vals {
		if dv, ok := dst.vals[r]; ok {
			m := mergeVal(dv, v)
			if m != dv {
				dst.vals[r] = m
				changed = true
			}
		} else {
			dst.vals[r] = v
			changed = true
		}
	}
	for obj, pos := range s.vers {
		if dp, ok := dst.vers[obj]; ok {
			if dp != pos {
				delete(dst.vers, obj)
				changed = true
			}
		} else {
			dst.vers[obj] = pos
			changed = true
		}
	}
	return changed
}

func containsReg(regs []vreg, r vreg) bool {
	for _, x := range regs {
		if x == r {
			return true
		}
	}
	return false
}

// flowRule is one rule's semantics plugged into the runner.
type flowRule interface {
	// mergeVal joins two abstract states of one register at a CFG merge.
	mergeVal(a, b uint8) uint8
	// transferNode interprets one CFG node (statement or condition
	// expression), mutating st; findings are reported only when
	// fa.reporting is true.
	transferNode(fa *flowAnalysis, st *flowState, n ast.Node)
	// applyFact folds one assumed branch outcome into st.
	applyFact(fa *flowAnalysis, st *flowState, f branchFact)
}

// flowAnalysis carries one function body through one rule.
type flowAnalysis struct {
	pass *ModulePass
	pkg  *Package
	info *types.Info
	rule flowRule

	regs    []*regInfo
	regAt   map[token.Pos]vreg
	fieldAt map[fieldRegKey]vreg

	reporting bool
	reported  map[token.Pos]bool
}

// fieldRegKey identifies a field-read register: the root variable, its
// definition version, and the field name (so resp.Body after resp is
// reassigned is a different register).
type fieldRegKey struct {
	obj   types.Object
	ver   token.Pos
	field string
}

// register returns the register for the definition site, creating it on
// first touch.
func (fa *flowAnalysis) register(pos token.Pos, name string, root types.Object) vreg {
	if r, ok := fa.regAt[pos]; ok {
		return r
	}
	r := vreg(len(fa.regs))
	fa.regs = append(fa.regs, &regInfo{pos: pos, name: name, rootObj: root})
	fa.regAt[pos] = r
	return r
}

// fieldRegister returns the register for a field read rooted at obj
// under its current version.
func (fa *flowAnalysis) fieldRegister(st *flowState, obj types.Object, field string, pos token.Pos) vreg {
	key := fieldRegKey{obj: obj, ver: st.vers[obj], field: field}
	if r, ok := fa.fieldAt[key]; ok {
		return r
	}
	r := vreg(len(fa.regs))
	fa.regs = append(fa.regs, &regInfo{pos: pos, name: obj.Name() + "." + field, rootObj: obj})
	fa.fieldAt[key] = r
	return r
}

// killRoot resets every register rooted at obj: a strong update to the
// root variable makes previously read/obtained values unreachable
// through it.
func (fa *flowAnalysis) killRoot(st *flowState, obj types.Object) {
	for r := range st.vals {
		if fa.regs[r].rootObj == obj {
			delete(st.vals, r)
		}
	}
}

func (fa *flowAnalysis) reportf(pos token.Pos, format string, args ...any) {
	if !fa.reporting || fa.reported[pos] {
		return
	}
	fa.reported[pos] = true
	fa.pass.Reportf(pos, format, args...)
}

// runFlowFunc executes the rule over one function body (or function
// literal body): fixpoint first, then a single in-order reporting pass
// so every finding is emitted exactly once, deterministically.
func runFlowFunc(pass *ModulePass, pkg *Package, body *ast.BlockStmt, rule flowRule, init func(*flowAnalysis, *flowState)) {
	fa := &flowAnalysis{
		pass:    pass,
		pkg:     pkg,
		info:    pkg.Info,
		rule:    rule,
		regAt:   map[token.Pos]vreg{},
		fieldAt: map[fieldRegKey]vreg{},
	}
	g := buildCFG(body)

	in := make([]*flowState, len(g.blocks))
	entry := newFlowState()
	if init != nil {
		init(fa, entry)
	}
	in[g.entry.id] = entry

	// Worklist over block ids; seeded in id order (approximately
	// topological for the structural builder).
	work := make([]bool, len(g.blocks))
	queue := []int{g.entry.id}
	work[g.entry.id] = true
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		work[id] = false
		blk := g.blocks[id]
		if in[id] == nil {
			continue
		}
		st := in[id].clone()
		for _, n := range blk.nodes {
			rule.transferNode(fa, st, n)
		}
		for _, e := range blk.succs {
			es := st
			if len(e.assumes) > 0 {
				es = st.clone()
				for _, f := range e.assumes {
					rule.applyFact(fa, es, f)
				}
			}
			if in[e.to.id] == nil {
				in[e.to.id] = es.clone()
			} else if !es.mergeInto(in[e.to.id], rule.mergeVal) {
				continue
			}
			if !work[e.to.id] {
				work[e.to.id] = true
				queue = append(queue, e.to.id)
			}
		}
	}

	// Reporting pass: reachable blocks in id order (source order for the
	// structural builder), transfer once with reporting enabled.
	fa.reporting = true
	fa.reported = map[token.Pos]bool{}
	for _, blk := range g.blocks {
		if in[blk.id] == nil || !g.reachable(blk) {
			continue
		}
		st := in[blk.id].clone()
		for _, n := range blk.nodes {
			rule.transferNode(fa, st, n)
		}
	}
}

// runFlowModule runs the rule over every function declaration in the
// module and every function literal as an independent root, in
// deterministic order. init seeds the entry state of declarations
// (e.g. one-shot reader parameters); literals start empty.
func runFlowModule(pass *ModulePass, rule flowRule, init func(*flowAnalysis, *FuncNode, *flowState)) {
	nodes := sortedFuncNodes(pass.Graph)
	for _, n := range nodes {
		node := n
		var seed func(*flowAnalysis, *flowState)
		if init != nil {
			seed = func(fa *flowAnalysis, st *flowState) { init(fa, node, st) }
		}
		runFlowFunc(pass, n.Pkg, n.Decl.Body, rule, seed)
		// Function literals: fresh roots with no carried-in facts.
		ast.Inspect(n.Decl.Body, func(x ast.Node) bool {
			if lit, ok := x.(*ast.FuncLit); ok {
				runFlowFunc(pass, node.Pkg, lit.Body, rule, nil)
				return false
			}
			return true
		})
	}
}

// effectiveArgs returns the call's arguments with a method-value
// receiver prepended, aligning argument indexes with funcParams (the
// same convention the taint engine uses).
func effectiveArgs(info *types.Info, call *ast.CallExpr) []ast.Expr {
	args := make([]ast.Expr, 0, len(call.Args)+1)
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if s := info.Selections[sel]; s != nil && s.Kind() == types.MethodVal {
			args = append(args, sel.X)
		}
	}
	return append(args, call.Args...)
}

// releasedOperand is the value a poolPutFuncs call hands back: the
// argument of Pool.Put(x), or the receiver of an argument-less release
// method such as doc.Release(). Nil for any other shape.
func releasedOperand(call *ast.CallExpr) ast.Expr {
	switch len(call.Args) {
	case 1:
		return call.Args[0]
	case 0:
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			return sel.X
		}
	}
	return nil
}

// --- Interprocedural summaries -------------------------------------

// flowSummary abstracts one function for the value-flow rules. Bits
// index effective parameters (receiver first), saturating at 61 like
// the taint lattice.
type flowSummary struct {
	// releases: parameter i is Put back into a sync.Pool on some path.
	releases uint64
	// consumes: reader parameter i is consumed (streamed, drained, or
	// passed to a consuming callee) on some path.
	consumes uint64
	// returnsPooled: a sync.Pool.Get result may flow to a return value.
	returnsPooled bool
}

// flowSums solves the summaries (solve.go) on first use and caches them
// on the call graph, so parallel module analyzers share one solve.
func (g *CallGraph) flowSums() map[*types.Func]*flowSummary {
	g.flowOnce.Do(func() {
		sums := map[*types.Func]*flowSummary{}
		solveBottomUp(g, sums, func(n *FuncNode) flowSummary { return scanFlowSummary(n, sums) }, eq[flowSummary])
		g.flowSummaries = sums
	})
	return g.flowSummaries
}

// scanFlowSummary recomputes one function's summary under the current
// summary map. The scan is a MAY analysis over the plain AST: any path
// releasing/consuming a parameter sets the bit. Function literals are
// skipped — a release inside a deferred or spawned closure happens at
// an unknowable time, so crediting it to the enclosing function would
// be wrong in both directions.
func scanFlowSummary(n *FuncNode, sums map[*types.Func]*flowSummary) flowSummary {
	var out flowSummary
	params := funcParams(n.Pkg.Info, n.Decl)
	// aliasBits maps a local variable to the parameter bits whose value
	// identity it carries (q := p, cr := &countReader{r: r},
	// br := bufio.NewReader(r)), so a release or consume through the
	// alias is credited to the parameter.
	aliasBits := map[types.Object]uint64{}
	var bitsOf func(e ast.Expr) uint64
	bitsOf = func(e ast.Expr) uint64 {
		e = unwrapValueExpr(ast.Unparen(e))
		switch x := e.(type) {
		case *ast.Ident:
			obj := n.Pkg.Info.Uses[x]
			if obj == nil {
				return 0
			}
			for i, p := range params {
				if p == obj {
					return summaryBit(i)
				}
			}
			return aliasBits[obj]
		case *ast.CompositeLit:
			var bits uint64
			for _, elt := range x.Elts {
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					bits |= bitsOf(kv.Value)
				} else {
					bits |= bitsOf(elt)
				}
			}
			return bits
		case *ast.CallExpr:
			fn := calleeFunc(n.Pkg.Info, x)
			if fn == nil {
				return 0
			}
			if ref, ok := readerWrapperFor(fn); ok {
				args := effectiveArgs(n.Pkg.Info, x)
				var bits uint64
				if ref.Arg < 0 {
					for _, a := range args {
						bits |= bitsOf(a)
					}
				} else if ref.Arg < len(args) {
					bits = bitsOf(args[ref.Arg])
				}
				return bits
			}
		}
		return 0
	}
	paramBitOf := func(e ast.Expr) (uint64, bool) {
		bits := bitsOf(e)
		return bits, bits != 0
	}
	// pooled tracks local variables holding pool-owned values.
	pooled := map[types.Object]bool{}
	isPooledExpr := func(e ast.Expr) bool {
		e = ast.Unparen(e)
		if ta, ok := e.(*ast.TypeAssertExpr); ok {
			e = ast.Unparen(ta.X)
		}
		if call, ok := e.(*ast.CallExpr); ok {
			fn := calleeFunc(n.Pkg.Info, call)
			if fn == nil {
				return false
			}
			if matchAny(fn, poolGetFuncs) {
				return true
			}
			if s, ok := sums[fn]; ok && s.returnsPooled {
				return true
			}
			return false
		}
		if id, ok := e.(*ast.Ident); ok {
			return pooled[n.Pkg.Info.Uses[id]]
		}
		return false
	}

	ast.Inspect(n.Decl.Body, func(x ast.Node) bool {
		switch s := x.(type) {
		case *ast.FuncLit:
			return false
		case *ast.AssignStmt:
			for i, lhs := range s.Lhs {
				if i >= len(s.Rhs) {
					break
				}
				id, ok := ast.Unparen(lhs).(*ast.Ident)
				if !ok {
					continue
				}
				obj := n.Pkg.Info.Defs[id]
				if obj == nil {
					obj = n.Pkg.Info.Uses[id]
				}
				if obj == nil {
					continue
				}
				pooled[obj] = isPooledExpr(s.Rhs[i])
				aliasBits[obj] = bitsOf(s.Rhs[i])
			}
		case *ast.ReturnStmt:
			for _, r := range s.Results {
				if isPooledExpr(r) {
					out.returnsPooled = true
				}
			}
		case *ast.CallExpr:
			fn := calleeFunc(n.Pkg.Info, s)
			if fn == nil {
				return true
			}
			args := effectiveArgs(n.Pkg.Info, s)
			if matchAny(fn, poolPutFuncs) {
				if v := releasedOperand(s); v != nil {
					if bit, ok := paramBitOf(v); ok {
						out.releases |= bit
					}
				}
				return true
			}
			if ref, ok := readerConsumerFor(fn); ok {
				if ref.Arg < len(args) {
					if bit, ok := paramBitOf(args[ref.Arg]); ok {
						out.consumes |= bit
					}
				}
				return true
			}
			if csum, ok := sums[fn]; ok {
				for j, a := range args {
					bit, ok := paramBitOf(a)
					if !ok {
						continue
					}
					if csum.releases&summaryBit(j) != 0 {
						out.releases |= bit
					}
					if csum.consumes&summaryBit(j) != 0 {
						out.consumes |= bit
					}
				}
			}
		}
		return true
	})
	return out
}

// summaryBit is parameter i's bit in a summary mask (flow and taint
// alike), saturating at bit 61: the top bits are left for flags such
// as taintSrc.
func summaryBit(i int) uint64 {
	if i > 61 {
		i = 61
	}
	return 1 << uint(i)
}
