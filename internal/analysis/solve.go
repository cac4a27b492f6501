package analysis

import (
	"go/types"
	"slices"
	"sort"
)

// solveBottomUp is the one summary solver behind the taint (taint.go),
// lockset (locksets.go) and value-flow (flow.go) summaries. It sets
// sums[fn] to the lattice bottom (S's zero value) for every function of
// g, then walks the static call graph's strongly connected components
// bottom-up: a summary reads only its static callees' summaries, and
// Tarjan emits a component after every component it calls into. A
// function outside a cycle is thus scanned once, its callees final;
// the functions of a recursive component are rescanned, in declaration
// order, until a pass over the component changes none of them. scan
// recomputes one function's summary from sums and must be monotone in
// the summaries it reads, which makes the result the least fixpoint;
// equal reports whether a rescan changed a summary.
func solveBottomUp[S any](g *CallGraph, sums map[*types.Func]*S, scan func(*FuncNode) S, equal func(a, b S) bool) {
	nodes := sortedFuncNodes(g)
	bottom := make([]S, len(nodes))
	for i, n := range nodes {
		sums[n.Fn] = &bottom[i]
	}
	for _, scc := range stronglyConnected(nodes, g.staticCallees) {
		sort.Slice(scc, func(i, j int) bool { return scc[i].Decl.Pos() < scc[j].Decl.Pos() })
		cyclic := len(scc) > 1 || slices.Contains(g.staticCallees(scc[0]), scc[0])
		for {
			changed := false
			for _, n := range scc {
				if got := scan(n); !equal(got, *sums[n.Fn]) {
					*sums[n.Fn] = got
					changed = true
				}
			}
			if !changed || !cyclic {
				break
			}
		}
	}
}

// staticCallees returns n's statically resolved callees that have a
// node in g, once per call site.
func (g *CallGraph) staticCallees(n *FuncNode) []*FuncNode {
	var out []*FuncNode
	for _, e := range n.Out {
		if c, ok := g.Funcs[e.Callee]; ok && e.Kind == EdgeStatic {
			out = append(out, c)
		}
	}
	return out
}

// eq is the equality check of a lattice whose summaries are comparable
// values.
func eq[S comparable](a, b S) bool { return a == b }

// stronglyConnected is Tarjan's algorithm: it returns the components of
// the graph spanned by nodes and succ, each component after every
// component reachable from it. The order is deterministic for a
// deterministic nodes order and succ.
func stronglyConnected[T comparable](nodes []T, succ func(T) []T) [][]T {
	var (
		out     [][]T
		idx     = map[T]int{}
		low     = map[T]int{}
		onStack = map[T]bool{}
		stack   []T
	)
	var strong func(v T)
	strong = func(v T) {
		idx[v] = len(idx)
		low[v] = idx[v]
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range succ(v) {
			if _, ok := idx[w]; !ok {
				strong(w)
				low[v] = min(low[v], low[w])
			} else if onStack[w] {
				low[v] = min(low[v], idx[w])
			}
		}
		if low[v] == idx[v] {
			var comp []T
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				comp = append(comp, w)
				if w == v {
					break
				}
			}
			out = append(out, comp)
		}
	}
	for _, v := range nodes {
		if _, ok := idx[v]; !ok {
			strong(v)
		}
	}
	return out
}
