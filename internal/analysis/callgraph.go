package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"sync"
)

// EdgeKind classifies how a call-graph edge was discovered.
type EdgeKind int

const (
	// EdgeStatic is a direct call to a resolved function or method.
	EdgeStatic EdgeKind = iota
	// EdgeInterface is a call through an interface method, expanded to
	// every concrete implementation visible in the analyzed packages.
	EdgeInterface
	// EdgeFuncValue records a function whose value is taken (assigned,
	// passed, stored) inside the caller: the caller may invoke it
	// indirectly, so a conservative analysis must assume it does.
	EdgeFuncValue
)

func (k EdgeKind) String() string {
	switch k {
	case EdgeStatic:
		return "static"
	case EdgeInterface:
		return "interface"
	case EdgeFuncValue:
		return "funcvalue"
	}
	return "?"
}

// Edge is one caller->callee relationship.
type Edge struct {
	Callee *types.Func
	Kind   EdgeKind
	// Pos is the call site (or the reference site for EdgeFuncValue).
	Pos token.Pos
}

// FuncNode is one function or method with a body in the analyzed
// packages. Calls made inside function literals are attributed to the
// enclosing declaration.
type FuncNode struct {
	Fn   *types.Func
	Decl *ast.FuncDecl
	Pkg  *Package
	Out  []Edge
}

// CalleeSet returns the distinct callees of the node, sorted by full
// name, optionally restricted to the given edge kinds.
func (n *FuncNode) CalleeSet(kinds ...EdgeKind) []*types.Func {
	want := map[EdgeKind]bool{}
	for _, k := range kinds {
		want[k] = true
	}
	seen := map[*types.Func]bool{}
	var out []*types.Func
	for _, e := range n.Out {
		if len(kinds) > 0 && !want[e.Kind] {
			continue
		}
		if !seen[e.Callee] {
			seen[e.Callee] = true
			out = append(out, e.Callee)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].FullName() < out[j].FullName() })
	return out
}

// CallGraph is the module-wide call graph over a set of type-checked
// packages. It is conservative: interface calls fan out to every
// implementation in the analyzed set, and taking a function's value
// adds a may-call edge.
type CallGraph struct {
	// Funcs indexes every function and method that has a body in the
	// analyzed packages.
	Funcs map[*types.Func]*FuncNode

	// The summaries module analyzers share, each solved once per graph
	// on first use: module analyzers run in parallel, so each sits
	// behind a sync.Once.
	flowOnce      sync.Once
	flowSummaries map[*types.Func]*flowSummary // value flow (flow.go)
	lockOnce      sync.Once
	locks         *lockSets // locksets (locksets.go)
}

// sortedFuncNodes returns the call graph's nodes in declaration order.
func sortedFuncNodes(g *CallGraph) []*FuncNode {
	nodes := make([]*FuncNode, 0, len(g.Funcs))
	for _, n := range g.Funcs {
		nodes = append(nodes, n)
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].Decl.Pos() < nodes[j].Decl.Pos() })
	return nodes
}

// Lookup finds the node for the named function: pkgPath is the import
// path, recv the receiver type name ("" for plain functions).
func (g *CallGraph) Lookup(pkgPath, recv, name string) *FuncNode {
	for fn, node := range g.Funcs {
		if fn.Name() != name || fn.Pkg() == nil || fn.Pkg().Path() != pkgPath {
			continue
		}
		if recvTypeName(fn) == recv {
			return node
		}
	}
	return nil
}

// recvTypeName returns the receiver's named-type name for methods
// ("Image" for (*Image).Get), or "" for plain functions.
func recvTypeName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return ""
}

// funcDisplayName renders a compact human name: "markup.Interp.RunSource"
// or "xmldsig.Verify".
func funcDisplayName(fn *types.Func) string {
	pkg := ""
	if fn.Pkg() != nil {
		parts := strings.Split(fn.Pkg().Path(), "/")
		pkg = parts[len(parts)-1] + "."
	}
	if recv := recvTypeName(fn); recv != "" {
		return pkg + recv + "." + fn.Name()
	}
	return pkg + fn.Name()
}

// BuildCallGraph constructs the call graph for the packages. Every
// *ast.FuncDecl becomes a node; bodies (including nested function
// literals) contribute edges:
//
//   - resolved direct calls -> EdgeStatic
//   - calls through an interface method -> EdgeInterface to each
//     implementation found among the packages' named types
//   - references to a function outside call position -> EdgeFuncValue
func BuildCallGraph(pkgs []*Package) *CallGraph {
	g := &CallGraph{Funcs: map[*types.Func]*FuncNode{}}
	impls := collectNamedTypes(pkgs)

	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				node := &FuncNode{Fn: fn, Decl: fd, Pkg: pkg}
				addBodyEdges(node, pkg.Info, impls)
				g.Funcs[fn] = node
			}
		}
	}
	return g
}

// collectNamedTypes gathers every package-level named (non-interface)
// type so interface calls can be expanded to implementations.
func collectNamedTypes(pkgs []*Package) []*types.Named {
	var out []*types.Named
	for _, pkg := range pkgs {
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || types.IsInterface(named) {
				continue
			}
			out = append(out, named)
		}
	}
	return out
}

func addBodyEdges(node *FuncNode, info *types.Info, impls []*types.Named) {
	// First pass: remember which identifiers are the Fun of a call, so
	// the second pass can tell call position from value position.
	callIdents := map[*ast.Ident]bool{}
	ast.Inspect(node.Decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch fun := ast.Unparen(call.Fun).(type) {
		case *ast.Ident:
			callIdents[fun] = true
		case *ast.SelectorExpr:
			callIdents[fun.Sel] = true
		}
		addCallEdges(node, info, call, impls)
		return true
	})
	ast.Inspect(node.Decl.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || callIdents[id] {
			return true
		}
		fn, ok := info.Uses[id].(*types.Func)
		if !ok || fn.Pkg() == nil {
			return true
		}
		// Only module-analyzed functions matter as indirect targets.
		node.Out = append(node.Out, Edge{Callee: fn, Kind: EdgeFuncValue, Pos: id.Pos()})
		return true
	})
}

func addCallEdges(node *FuncNode, info *types.Info, call *ast.CallExpr, impls []*types.Named) {
	fn := calleeFunc(info, call)
	if fn == nil {
		return
	}
	sig, ok := fn.Type().(*types.Signature)
	if ok && sig.Recv() != nil {
		if iface, ok := sig.Recv().Type().Underlying().(*types.Interface); ok {
			// Interface dispatch: edge to every implementation's method.
			for _, named := range impls {
				if !types.Implements(named, iface) && !types.Implements(types.NewPointer(named), iface) {
					continue
				}
				if m := methodByName(named, fn.Name()); m != nil {
					node.Out = append(node.Out, Edge{Callee: m, Kind: EdgeInterface, Pos: call.Lparen})
				}
			}
			return
		}
	}
	node.Out = append(node.Out, Edge{Callee: fn, Kind: EdgeStatic, Pos: call.Lparen})
}

// methodByName resolves the declared method on named (value or pointer
// receiver), or nil.
func methodByName(named *types.Named, name string) *types.Func {
	ms := types.NewMethodSet(types.NewPointer(named))
	for i := 0; i < ms.Len(); i++ {
		if m, ok := ms.At(i).Obj().(*types.Func); ok && m.Name() == name {
			return m
		}
	}
	return nil
}
