package analysis

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
)

// httpClientPackages are the internal/<name> packages that talk to
// remote peers in the paper's §5.1/§7 usage model. Every HTTP client
// there must carry a deadline: http.DefaultClient (and the
// package-level helpers that use it) has no Timeout, so one
// unreachable content server or trust service would hang the player
// forever instead of entering the resilience layer's retry/degrade
// path.
var httpClientPackages = []string{"server", "keymgmt", "player", "health", "cluster"}

// httpDefaultClientFuncs are the net/http package-level helpers that
// route through DefaultClient.
var httpDefaultClientFuncs = map[string]bool{
	"Get": true, "Head": true, "Post": true, "PostForm": true,
}

// HTTPClient forbids deadline-less HTTP clients in the networked
// packages: any use of http.DefaultClient, any call to the net/http
// package-level request helpers (which use it), any http.Client
// composite literal that does not set Timeout, and any assignment of a
// constant zero to a client's Timeout (`c := *client; c.Timeout = 0`).
var HTTPClient = &Analyzer{
	Name: "httpclient",
	Doc:  "networked packages must use http.Clients with a Timeout, never http.DefaultClient",
	Run:  runHTTPClient,
}

func runHTTPClient(pass *Pass) {
	if !pathHasInternalPkg(pass.Path, httpClientPackages...) {
		return
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.SelectorExpr:
				if obj, ok := pass.Info.Uses[x.Sel].(*types.Var); ok &&
					obj.Pkg() != nil && obj.Pkg().Path() == "net/http" && obj.Name() == "DefaultClient" {
					pass.Reportf(x.Pos(),
						"http.DefaultClient has no Timeout; use a client with a deadline so dead peers hit the retry path instead of hanging")
				}
			case *ast.CallExpr:
				fn := calleeFunc(pass.Info, x)
				if fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "net/http" && httpDefaultClientFuncs[fn.Name()] &&
					fn.Type().(*types.Signature).Recv() == nil { // methods like (*Client).Get are fine
					pass.Reportf(x.Pos(),
						"http.%s uses http.DefaultClient (no Timeout); build a request and send it through a client with a deadline", fn.Name())
				}
			case *ast.CompositeLit:
				if isHTTPClientLit(pass.Info, x) && !literalSetsField(x, "Timeout") {
					pass.Reportf(x.Pos(),
						"http.Client literal without a Timeout; a zero-Timeout client hangs forever on a dead peer")
				}
			case *ast.AssignStmt:
				if x.Tok != token.ASSIGN || len(x.Lhs) != len(x.Rhs) {
					return true
				}
				for i, lhs := range x.Lhs {
					if isClientTimeout(pass.Info, lhs) && isConstZero(pass.Info, x.Rhs[i]) {
						pass.Reportf(lhs.Pos(),
							"http.Client Timeout set to zero; a zero-Timeout client hangs forever on a dead peer")
					}
				}
			}
			return true
		})
	}
}

// isHTTPClientLit reports whether the composite literal constructs a
// net/http.Client value.
func isHTTPClientLit(info *types.Info, lit *ast.CompositeLit) bool {
	t := info.Types[lit].Type
	if t == nil {
		return false
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "net/http" && obj.Name() == "Client"
}

// isClientTimeout reports whether e selects the Timeout field of a
// net/http.Client (the only net/http struct with a field of that name).
func isClientTimeout(info *types.Info, e ast.Expr) bool {
	sel, ok := e.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	s := info.Selections[sel]
	if s == nil || s.Kind() != types.FieldVal {
		return false
	}
	f := s.Obj()
	return f.Pkg() != nil && f.Pkg().Path() == "net/http" && f.Name() == "Timeout"
}

// isConstZero reports whether e is a constant expression equal to 0.
func isConstZero(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	return ok && tv.Value != nil && tv.Value.Kind() == constant.Int && constant.Sign(tv.Value) == 0
}

// literalSetsField reports whether a keyed composite literal sets the
// named field. Positional literals count as setting everything (all
// fields must be present for them to compile).
func literalSetsField(lit *ast.CompositeLit, field string) bool {
	for _, elt := range lit.Elts {
		kv, ok := elt.(*ast.KeyValueExpr)
		if !ok {
			return true // positional literal: every field is spelled out
		}
		if id, ok := kv.Key.(*ast.Ident); ok && id.Name == field {
			return true
		}
	}
	return false
}
