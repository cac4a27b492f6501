package analysis

import (
	"fmt"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// LockOrder is the interprocedural deadlock rule. On top of the
// lockset engine (locksets.go) it reports three things:
//
//   - cycles in the module-wide lock-acquisition-order graph: lock B
//     taken while A is held (directly or through any statically
//     resolved callee) adds edge A->B; a cycle means two goroutines
//     can each hold one lock and wait forever for the other;
//   - a potentially indefinite wait — channel operation, select with
//     no default, or a call matched by the blockingSinks table — while
//     a mutex is held, which stalls every contender of that mutex for
//     as long as the wait lasts;
//   - re-acquiring the same receiver's mutex while already holding it,
//     a guaranteed self-deadlock.
//
// The order graph abstracts locks per declaration (struct field or
// package-level var), so distinct instances of one field share a
// node; same-field nesting across instances is deliberately not a
// self-edge. See DESIGN.md §12 for the soundness trade-offs.
var LockOrder = &Analyzer{
	Name:      "lockorder",
	Doc:       "no lock-acquisition-order cycles; no indefinite waits while a mutex is held",
	RunModule: runLockOrder,
}

// orderEdge is one observed may-follow relation between named locks.
type orderEdge struct {
	from, to *types.Var
	pos      token.Pos // where the second lock was taken (or the call leading to it)
	inFunc   string
}

func runLockOrder(pass *ModulePass) {
	ls := pass.Graph.lockSets()

	edges := map[[2]*types.Var]*orderEdge{}
	addEdge := func(from, to *types.Var, pos token.Pos, in string) {
		if from == nil || to == nil || from == to {
			return
		}
		k := [2]*types.Var{from, to}
		if _, ok := edges[k]; !ok {
			edges[k] = &orderEdge{from: from, to: to, pos: pos, inFunc: in}
		}
	}

	w := &lockWalker{}
	w.onAcquire = func(held []*heldLock, taken *heldLock) {
		for _, h := range held {
			if h.key == taken.key {
				if h.write || taken.write {
					pass.Reportf(taken.pos,
						"%s locked again while already held (acquired at %s): guaranteed self-deadlock",
						taken.name, pass.Fset.Position(h.pos))
				}
				continue
			}
			addEdge(h.v, taken.v, taken.pos, funcDisplayName(w.fn.Fn))
		}
	}
	w.onBlocked = func(held []*heldLock, what string, pos token.Pos) {
		pass.Reportf(pos, "%s held across %s: contenders stall for as long as the wait lasts",
			heldNames(held), what)
	}
	w.onCall = func(held []*heldLock, callee *types.Func, pos token.Pos) {
		sum, ok := ls.sums[callee]
		if !ok {
			return
		}
		for _, v := range sortedLockVars(sum.acquired, ls.names) {
			for _, h := range held {
				addEdge(h.v, v, pos, funcDisplayName(w.fn.Fn))
			}
		}
		// A callee in blockingSinks already reported through onBlocked;
		// only the transitive may-block summary needs a report here.
		if sum.blocks != "" && !matchAny(callee, blockingSinks) {
			pass.Reportf(pos, "%s held across call to %s, which may block on %s",
				heldNames(held), funcDisplayName(callee), sum.blocks)
		}
	}
	w.walkModule(pass.Graph)

	reportLockCycles(pass, ls.names, edges)
}

// heldNames renders the held set for a diagnostic.
func heldNames(held []*heldLock) string {
	names := make([]string, len(held))
	for i, h := range held {
		names[i] = h.name
	}
	return "mutex " + strings.Join(names, ", ")
}

// sortedLockVars orders a lock set by display name for deterministic
// edge insertion.
func sortedLockVars(set map[*types.Var]bool, names map[*types.Var]string) []*types.Var {
	out := make([]*types.Var, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool {
		if names[out[i]] != names[out[j]] {
			return names[out[i]] < names[out[j]]
		}
		return out[i].Pos() < out[j].Pos()
	})
	return out
}

// reportLockCycles finds strongly connected components of the order
// graph and reports one diagnostic per cyclic component, tracing a
// concrete loop through it.
func reportLockCycles(pass *ModulePass, names map[*types.Var]string, edges map[[2]*types.Var]*orderEdge) {
	succ := map[*types.Var][]*types.Var{}
	var nodes []*types.Var
	seen := map[*types.Var]bool{}
	for k := range edges {
		for _, v := range k[:] {
			if !seen[v] {
				seen[v] = true
				nodes = append(nodes, v)
			}
		}
		succ[k[0]] = append(succ[k[0]], k[1])
	}
	name := func(v *types.Var) string { return names[v] }
	sort.Slice(nodes, func(i, j int) bool { return name(nodes[i]) < name(nodes[j]) })
	for _, v := range nodes {
		s := succ[v]
		sort.Slice(s, func(i, j int) bool { return name(s[i]) < name(s[j]) })
	}

	for _, scc := range stronglyConnected(nodes, func(v *types.Var) []*types.Var { return succ[v] }) {
		if len(scc) < 2 {
			continue
		}
		inSCC := map[*types.Var]bool{}
		for _, v := range scc {
			inSCC[v] = true
		}
		// Trace one loop: start at the smallest-named lock, greedily
		// follow the smallest in-component successor until a repeat.
		sort.Slice(scc, func(i, j int) bool { return name(scc[i]) < name(scc[j]) })
		path := []*types.Var{scc[0]}
		index := map[*types.Var]int{scc[0]: 0}
		for {
			cur := path[len(path)-1]
			var next *types.Var
			for _, c := range succ[cur] {
				if inSCC[c] {
					next = c
					break
				}
			}
			if next == nil {
				break // cannot happen in an SCC; defensive
			}
			if at, ok := index[next]; ok {
				loop := append(append([]*types.Var{}, path[at:]...), next)
				reportOneCycle(pass, names, edges, loop)
				break
			}
			index[next] = len(path)
			path = append(path, next)
		}
	}
}

func reportOneCycle(pass *ModulePass, names map[*types.Var]string, edges map[[2]*types.Var]*orderEdge, loop []*types.Var) {
	var chain, sites []string
	for i := 0; i+1 < len(loop); i++ {
		e := edges[[2]*types.Var{loop[i], loop[i+1]}]
		if e == nil {
			return // defensive: incomplete trace
		}
		chain = append(chain, names[loop[i]])
		sites = append(sites, fmt.Sprintf("%s->%s in %s at %s",
			names[e.from], names[e.to], e.inFunc, pass.Fset.Position(e.pos)))
	}
	chain = append(chain, names[loop[len(loop)-1]])
	first := edges[[2]*types.Var{loop[0], loop[1]}]
	pass.Reportf(first.pos, "lock-order cycle %s: potential deadlock (%s)",
		strings.Join(chain, " -> "), strings.Join(sites, "; "))
}
