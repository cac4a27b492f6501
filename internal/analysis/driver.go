package analysis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one parsed, type-checked package ready for analysis.
type Package struct {
	// Path is the import path the package was loaded as.
	Path string
	// Dir is the directory the sources were read from.
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Loader parses and type-checks packages of a single module using only
// the standard library. Module-local imports are resolved recursively
// from the module root; everything else (the standard library — the
// module has no external dependencies) is resolved by the stdlib
// source importer. Test files are never loaded: the invariants discvet
// enforces are about production code, and _test.go files may import
// packages the source importer cannot see.
type Loader struct {
	// Root is the absolute module root (the directory with go.mod).
	Root string
	// Module is the module path declared in go.mod.
	Module string

	fset  *token.FileSet
	std   types.ImporterFrom
	cache map[string]*Package
}

// NewLoader locates the module root at or above dir and reads the
// module path from go.mod.
func NewLoader(dir string) (*Loader, error) {
	root, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	for {
		if _, err := os.Stat(filepath.Join(root, "go.mod")); err == nil {
			break
		}
		parent := filepath.Dir(root)
		if parent == root {
			return nil, fmt.Errorf("analysis: no go.mod at or above %s", dir)
		}
		root = parent
	}
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	module := ""
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			module = strings.TrimSpace(rest)
			break
		}
	}
	if module == "" {
		return nil, fmt.Errorf("analysis: no module directive in %s/go.mod", root)
	}
	fset := token.NewFileSet()
	return &Loader{
		Root:   root,
		Module: module,
		fset:   fset,
		std:    importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		cache:  map[string]*Package{},
	}, nil
}

// Load expands the patterns ("./...", "./internal/disc", "dir/...")
// relative to the module root and returns the matched packages in
// path order. Directories named testdata, hidden directories, and
// directories without non-test Go files are skipped.
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	dirs := map[string]bool{}
	for _, pat := range patterns {
		pat = filepath.ToSlash(pat)
		recursive := false
		if rest, ok := strings.CutSuffix(pat, "/..."); ok {
			recursive, pat = true, rest
		} else if pat == "..." {
			recursive, pat = true, "."
		}
		base := filepath.Join(l.Root, filepath.FromSlash(pat))
		if !recursive {
			dirs[base] = true
			continue
		}
		err := filepath.WalkDir(base, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if path != base && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			if ok, err := hasGoFiles(path); err != nil {
				return err
			} else if ok {
				dirs[path] = true
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	// Parse in a fixed order: LoadDir parses into the shared FileSet, so
	// the order fixes every token position and every Decl.Pos sort.
	sorted := make([]string, 0, len(dirs))
	for dir := range dirs {
		sorted = append(sorted, dir)
	}
	sort.Strings(sorted)
	var pkgs []*Package
	for _, dir := range sorted {
		rel, err := filepath.Rel(l.Root, dir)
		if err != nil {
			return nil, err
		}
		path := l.Module
		if rel != "." {
			path = l.Module + "/" + filepath.ToSlash(rel)
		}
		pkg, err := l.LoadDir(dir, path)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].Path < pkgs[j].Path })
	return pkgs, nil
}

// LoadDir parses and type-checks the non-test Go files in dir that
// the default build compiles (build constraints and GOOS/GOARCH file
// names honoured, so a test-only build such as xmldom's domPoison file
// is left out) as the package with the given import path. Results are
// memoized per path.
func (l *Loader) LoadDir(dir, path string) (*Package, error) {
	if pkg, ok := l.cache[path]; ok {
		return pkg, nil
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range ents {
		if !isBuiltGoFile(dir, e) {
			continue
		}
		name := e.Name()
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("analysis: no buildable Go files in %s", dir)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
	}
	conf := types.Config{Importer: (*moduleImporter)(l)}
	tpkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("analysis: type-checking %s: %w", path, err)
	}
	pkg := &Package{Path: path, Dir: dir, Fset: l.fset, Files: files, Types: tpkg, Info: info}
	l.cache[path] = pkg
	return pkg, nil
}

// moduleImporter resolves module-local import paths through the
// Loader and delegates the rest to the stdlib source importer.
type moduleImporter Loader

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	l := (*Loader)(m)
	if path == l.Module || strings.HasPrefix(path, l.Module+"/") {
		rel := strings.TrimPrefix(strings.TrimPrefix(path, l.Module), "/")
		pkg, err := l.LoadDir(filepath.Join(l.Root, filepath.FromSlash(rel)), path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.std.Import(path)
}

func hasGoFiles(dir string) (bool, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return false, err
	}
	for _, e := range ents {
		if isBuiltGoFile(dir, e) {
			return true, nil
		}
	}
	return false, nil
}

// isBuiltGoFile reports whether e is a non-test Go file the default
// build of dir compiles.
func isBuiltGoFile(dir string, e os.DirEntry) bool {
	name := e.Name()
	if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
		return false
	}
	ok, err := build.Default.MatchFile(dir, name)
	return err == nil && ok
}
