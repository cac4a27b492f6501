package analysis

import (
	"go/ast"
	"go/types"
)

// readerFirstEntry is one reader-first verification entry point plus
// the index of its io.Reader parameter.
type readerFirstEntry struct {
	ref FuncRef
	arg int
}

// readerFirstEntries are the reader entry points of the verification
// path. Each reads its reader once, to EOF, into a buffer of its own,
// so materializing the payload first (io.ReadAll) and re-wrapping it in
// a bytes/strings reader holds the document twice and copies it once
// more, while the []byte forms (Opener.Open, Library.OpenDocument,
// Engine.LoadDocument) scan already-resident payloads in place.
var readerFirstEntries = []readerFirstEntry{
	{FuncRef{Pkg: pkgCore, Recv: "Opener", Name: "OpenReader"}, 1},
	{FuncRef{Pkg: pkgLibrary, Recv: "Library", Name: "OpenReader"}, 1},
	{FuncRef{Pkg: pkgCluster, Recv: "Edge", Name: "OpenReader"}, 1},
	{FuncRef{Pkg: pkgPlayer, Recv: "Engine", Name: "LoadFrom"}, 1},
	{FuncRef{Pkg: modulePath + "/internal/xmldom", Name: "Parse"}, 0},
}

// readerWrapFuncs are the constructors that turn a resident buffer
// back into a reader.
var readerWrapFuncs = []FuncRef{
	{Pkg: "bytes", Name: "NewReader"},
	{Pkg: "bytes", Name: "NewBuffer"},
	{Pkg: "bytes", Name: "NewBufferString"},
	{Pkg: "strings", Name: "NewReader"},
}

// ReaderFirst flags buffering a payload with io.ReadAll only to
// re-wrap it for a reader verification entry, which buffers it again:
// pass the original reader, or give the resident bytes to the []byte
// form of the API.
var ReaderFirst = &Analyzer{
	Name: "readerfirst",
	Doc:  "payloads buffered with io.ReadAll must not be re-wrapped in a reader for the reader verification entries, which buffer it again; pass the original reader through, or use the []byte API form",
	Run:  runReaderFirst,
}

func runReaderFirst(pass *Pass) {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkReaderFirstFunc(pass, fd.Body)
		}
	}
}

// checkReaderFirstFunc runs the two-pass, function-local analysis:
// first collect every variable holding an io.ReadAll result (and every
// reader variable wrapping one), then flag reader entry calls whose
// reader argument drains such a buffer.
func checkReaderFirstFunc(pass *Pass, body *ast.BlockStmt) {
	buffered := map[*types.Var]bool{} // []byte vars from io.ReadAll
	wrapped := map[*types.Var]bool{}  // reader vars wrapping a buffered var

	collect := func(lhs []ast.Expr, rhs []ast.Expr) {
		// Only the single-call forms matter: buf, err := io.ReadAll(r)
		// assigns through a tuple, so len(rhs) == 1 covers it.
		if len(rhs) != 1 {
			return
		}
		call, ok := rhs[0].(*ast.CallExpr)
		if !ok {
			return
		}
		fn := calleeFunc(pass.Info, call)
		switch {
		case fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "io" && fn.Name() == "ReadAll":
			if v := assignedVar(pass.Info, lhs, 0); v != nil {
				buffered[v] = true
			}
		case matchAny(fn, readerWrapFuncs):
			if len(call.Args) == 1 && readerFirstBufferedArg(pass.Info, call.Args[0], buffered) {
				if v := assignedVar(pass.Info, lhs, 0); v != nil {
					wrapped[v] = true
				}
			}
		}
	}

	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.AssignStmt:
			collect(x.Lhs, x.Rhs)
		case *ast.CallExpr:
			fn := calleeFunc(pass.Info, x)
			for _, e := range readerFirstEntries {
				if !e.ref.matches(fn) || e.arg >= len(x.Args) {
					continue
				}
				arg := x.Args[e.arg]
				bad := false
				switch a := arg.(type) {
				case *ast.CallExpr:
					// Inline wrap: OpenReader(ctx, bytes.NewReader(buf)).
					bad = matchAny(calleeFunc(pass.Info, a), readerWrapFuncs) &&
						len(a.Args) == 1 && readerFirstBufferedArg(pass.Info, a.Args[0], buffered)
				case *ast.Ident:
					// Two-step wrap: r := bytes.NewReader(buf); OpenReader(ctx, r).
					if v, ok := pass.Info.Uses[a].(*types.Var); ok {
						bad = wrapped[v]
					}
				}
				if bad {
					pass.Reportf(arg.Pos(),
						"payload buffered with io.ReadAll re-streamed into %s; pass the original reader straight through, or use the []byte form for resident bytes", fn.Name())
				}
			}
		}
		return true
	})
}

// readerFirstBufferedArg reports whether the wrap constructor's
// argument drains an io.ReadAll buffer, looking through string([]byte)
// conversions (the strings.NewReader(string(buf)) spelling).
func readerFirstBufferedArg(info *types.Info, arg ast.Expr, buffered map[*types.Var]bool) bool {
	if call, ok := arg.(*ast.CallExpr); ok && len(call.Args) == 1 {
		if id, ok := call.Fun.(*ast.Ident); ok {
			if _, isType := info.Uses[id].(*types.TypeName); isType {
				arg = call.Args[0] // conversion such as string(buf)
			}
		}
	}
	id, ok := arg.(*ast.Ident)
	if !ok {
		return false
	}
	v, ok := info.Uses[id].(*types.Var)
	return ok && buffered[v]
}

// assignedVar resolves the i-th assignment target to its variable, or
// nil for blanks and non-identifier targets.
func assignedVar(info *types.Info, lhs []ast.Expr, i int) *types.Var {
	if i >= len(lhs) {
		return nil
	}
	id, ok := lhs[i].(*ast.Ident)
	if !ok || id.Name == "_" {
		return nil
	}
	if v, ok := info.Defs[id].(*types.Var); ok {
		return v
	}
	v, _ := info.Uses[id].(*types.Var)
	return v
}
