package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// GoroutineLeak flags `go` statements whose spawned function has no
// visible termination signal. A goroutine passes when any of these
// holds:
//
//   - ctx-dominated: the body receives from a context's Done channel
//     or checks ctx.Err(), so cancellation reaches it;
//   - channel-close-dominated: the body ranges over (or receives
//     from) a channel that the spawning function closes, so the
//     spawner controls its lifetime;
//   - join-dominated: the body signals a sync.WaitGroup (wg.Done) and
//     the spawning function waits on a WaitGroup, the bounded
//     worker-pool idiom (internal/library's Mount prewarm) — unless
//     the body also contains an unbounded loop, which a join cannot
//     end;
//   - bounded: the body has no unbounded loop, no channel operation,
//     no select, and no call matched by the blockingSinks table, so
//     it runs to completion on its own.
//
// Spawned named functions resolve through the call graph; their
// bodies are classified one level deep (a callee that itself spawns
// or loops unboundedly behind a second hop is out of scope — see
// DESIGN.md §12). Spawning a function the module cannot analyze is
// flagged only when the blockingSinks table marks it as running until
// an external shutdown (e.g. http.Server.Serve): such spawns need a
// justified //discvet:ignore tying the goroutine to its shutdown
// path.
var GoroutineLeak = &Analyzer{
	Name:      "goroutineleak",
	Doc:       "spawned goroutines need a termination signal: ctx.Done, a spawner-closed channel, or a WaitGroup join",
	RunModule: runGoroutineLeak,
}

func runGoroutineLeak(pass *ModulePass) {
	for _, n := range sortedFuncNodes(pass.Graph) {
		info := n.Pkg.Info
		spawnerWaits := containsWaitGroupWait(info, n.Decl.Body)
		closed := channelsClosedIn(info, n.Decl.Body)
		ast.Inspect(n.Decl.Body, func(nd ast.Node) bool {
			g, ok := nd.(*ast.GoStmt)
			if !ok {
				return true
			}
			checkGoStmt(pass, n, g, spawnerWaits, closed)
			return true
		})
	}
}

func checkGoStmt(pass *ModulePass, n *FuncNode, g *ast.GoStmt, spawnerWaits bool, closed map[*types.Var]bool) {
	info := n.Pkg.Info
	var body *ast.BlockStmt
	var rename map[*types.Var]*types.Var
	if lit, ok := ast.Unparen(g.Call.Fun).(*ast.FuncLit); ok {
		body = lit.Body
	} else if fn := calleeFunc(info, g.Call); fn != nil {
		if node, ok := pass.Graph.Funcs[fn]; ok {
			// Channels the callee consumes are its parameter objects;
			// map them back to the spawner's argument variables so
			// close() in the spawner is recognized.
			rename = paramArgVars(info, fn, g.Call)
			body = node.Decl.Body
			info = node.Pkg.Info
		} else if matchAny(fn, blockingSinks) {
			pass.Reportf(g.Pos(),
				"goroutine runs %s, which blocks until an external shutdown; tie it to a termination path or justify with //discvet:ignore",
				funcDisplayName(fn))
			return
		} else {
			return // unanalyzable but not known-blocking: assume it terminates
		}
	} else {
		return // dynamic spawn target: nothing to classify
	}

	shape := classifyGoroutineBody(info, body)
	if !shape.suspicious() {
		return
	}
	if shape.ctxSignal {
		return
	}
	if (shape.chanOps || shape.chanRange) && !shape.endlessFor && spawnedChannelsClosed(info, body, closed, rename) {
		return
	}
	if shape.wgDone && spawnerWaits && !shape.endlessFor && !shape.chanRange {
		return
	}
	pass.Reportf(g.Pos(),
		"goroutine blocks on %s with no termination signal (ctx.Done, a channel the spawner closes, or a WaitGroup join); it may leak",
		shape.what)
}

// goBodyShape is what the leak heuristic saw in one spawned body.
type goBodyShape struct {
	endlessFor bool // for {} with no condition
	chanRange  bool // for range over a channel
	chanOps    bool // send, receive, or select without default
	blocking   bool // call matched by blockingSinks, or a one-hop callee that loops unboundedly
	ctxSignal  bool // <-ctx.Done() or ctx.Err() reachable in the body
	wgDone     bool // signals a sync.WaitGroup
	what       string
}

func (s *goBodyShape) suspicious() bool {
	return s.endlessFor || s.chanRange || s.chanOps || s.blocking
}

func (s *goBodyShape) note(cond *bool, what string) {
	if !*cond {
		*cond = true
		if s.what == "" {
			s.what = what
		}
	}
}

func classifyGoroutineBody(info *types.Info, body *ast.BlockStmt) *goBodyShape {
	s := &goBodyShape{}
	ast.Inspect(body, func(nd ast.Node) bool {
		switch x := nd.(type) {
		case *ast.FuncLit:
			return false // its own goroutine discipline, if spawned
		case *ast.ForStmt:
			if x.Cond == nil {
				s.note(&s.endlessFor, "an unbounded loop")
			}
		case *ast.RangeStmt:
			if isChanExpr(info, x.X) {
				s.note(&s.chanRange, "a range over a channel")
			}
		case *ast.SendStmt:
			s.note(&s.chanOps, "a channel send")
		case *ast.UnaryExpr:
			if x.Op == token.ARROW {
				if isCtxDoneRecv(info, x.X) {
					s.ctxSignal = true
				} else {
					s.note(&s.chanOps, "a channel receive")
				}
			}
		case *ast.SelectStmt:
			if !selectHasDefault(x) {
				s.note(&s.chanOps, "a select with no default")
			}
		case *ast.CallExpr:
			fn := calleeFunc(info, x)
			if fn == nil {
				return true
			}
			if isCtxMethod(fn, "Err") {
				s.ctxSignal = true
			}
			if isWaitGroupMethod(info, x, "Done") {
				s.wgDone = true
			}
			if matchAny(fn, blockingSinks) && !isWaitGroupMethod(info, x, "Wait") {
				s.note(&s.blocking, "blocking call "+funcDisplayName(fn))
			}
		}
		return true
	})
	return s
}

// isCtxDoneRecv matches the operand of a receive against
// context.Context.Done().
func isCtxDoneRecv(info *types.Info, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	return isCtxMethod(calleeFunc(info, call), "Done")
}

func isCtxMethod(fn *types.Func, name string) bool {
	return fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "context" &&
		fn.Name() == name && recvTypeName(fn) == "Context"
}

// isWaitGroupMethod matches wg.Done() / wg.Wait() on sync.WaitGroup.
func isWaitGroupMethod(info *types.Info, call *ast.CallExpr, name string) bool {
	fn := calleeFunc(info, call)
	return fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "sync" &&
		fn.Name() == name && recvTypeName(fn) == "WaitGroup"
}

// containsWaitGroupWait reports whether the spawning function joins a
// WaitGroup anywhere in its body (including nested literals: the
// prewarm pool spawns from inside a closure, the Wait sits at the
// function's end).
func containsWaitGroupWait(info *types.Info, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(nd ast.Node) bool {
		if call, ok := nd.(*ast.CallExpr); ok && isWaitGroupMethod(info, call, "Wait") {
			found = true
		}
		return !found
	})
	return found
}

// channelsClosedIn collects the channel variables the function calls
// close() on (directly or in a defer).
func channelsClosedIn(info *types.Info, body *ast.BlockStmt) map[*types.Var]bool {
	out := map[*types.Var]bool{}
	ast.Inspect(body, func(nd ast.Node) bool {
		call, ok := nd.(*ast.CallExpr)
		if !ok || len(call.Args) != 1 {
			return true
		}
		id, ok := ast.Unparen(call.Fun).(*ast.Ident)
		if !ok || id.Name != "close" {
			return true
		}
		if _, isBuiltin := info.Uses[id].(*types.Builtin); !isBuiltin {
			return true
		}
		if arg, ok := ast.Unparen(call.Args[0]).(*ast.Ident); ok {
			if v, ok := info.Uses[arg].(*types.Var); ok {
				out[v] = true
			}
		}
		return true
	})
	return out
}

// paramArgVars maps a spawned named function's parameter objects to
// the spawner's argument variables (identifier arguments only), so a
// channel the callee consumes as a parameter can be matched against a
// close() in the spawner.
func paramArgVars(callerInfo *types.Info, fn *types.Func, call *ast.CallExpr) map[*types.Var]*types.Var {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Variadic() {
		return nil
	}
	out := map[*types.Var]*types.Var{}
	for i := 0; i < sig.Params().Len() && i < len(call.Args); i++ {
		if id, ok := ast.Unparen(call.Args[i]).(*ast.Ident); ok {
			if v, ok := callerInfo.Uses[id].(*types.Var); ok {
				out[sig.Params().At(i)] = v
			}
		}
	}
	return out
}

// spawnedChannelsClosed reports whether every channel the spawned body
// ranges over or receives from is closed by the spawner. One closed
// channel is enough when it is the only one the body consumes.
func spawnedChannelsClosed(info *types.Info, body *ast.BlockStmt, closed map[*types.Var]bool, rename map[*types.Var]*types.Var) bool {
	if len(closed) == 0 {
		return false
	}
	consumed, allResolved := consumedChannels(info, body)
	if !allResolved || len(consumed) == 0 {
		return false
	}
	for v := range consumed {
		if rv, ok := rename[v]; ok {
			v = rv
		}
		if !closed[v] {
			return false
		}
	}
	return true
}

// consumedChannels collects the channel variables the body receives
// from or ranges over; allResolved is false when a consumed channel is
// not a plain identifier.
func consumedChannels(info *types.Info, body *ast.BlockStmt) (map[*types.Var]bool, bool) {
	out := map[*types.Var]bool{}
	allResolved := true
	record := func(e ast.Expr) {
		if id, ok := ast.Unparen(e).(*ast.Ident); ok {
			if v, ok := info.Uses[id].(*types.Var); ok {
				out[v] = true
				return
			}
		}
		allResolved = false
	}
	ast.Inspect(body, func(nd ast.Node) bool {
		switch x := nd.(type) {
		case *ast.FuncLit:
			return false
		case *ast.RangeStmt:
			if isChanExpr(info, x.X) {
				record(x.X)
			}
		case *ast.UnaryExpr:
			if x.Op == token.ARROW && !isCtxDoneRecv(info, x.X) {
				record(x.X)
			}
		}
		return true
	})
	return out, allResolved
}
