package analysis

import (
	"go/types"
	"sort"
	"strings"
	"testing"
)

// tableRows lists every declarative table of discvet's rules by its
// variable name: the FuncRef rows (readerFirstEntries and the
// ReaderRef tables contribute theirs) and the FieldRef rows. The taint
// specs are assembled from these tables.
func tableRows() (map[string][]FuncRef, map[string][]FieldRef) {
	funcs := map[string][]FuncRef{
		"auditVerifiers":      auditVerifiers,
		"auditDenyChecks":     auditDenyChecks,
		"poolGetFuncs":        poolGetFuncs,
		"poolPutFuncs":        poolPutFuncs,
		"poolCopyFuncs":       poolCopyFuncs,
		"arenaTextFuncs":      arenaTextFuncs,
		"errCheckedProducers": errCheckedProducers,
		"blockingSinks":       blockingSinks,
		"readerWrapFuncs":     readerWrapFuncs,
		"taintSources":        taintSources,
		"networkTaintSources": networkTaintSources,
		"taintSanitizers":     taintSanitizers,
		"executionSinks":      executionSinks,
		"persistenceSinks":    persistenceSinks,
	}
	for _, e := range readerFirstEntries {
		funcs["readerFirstEntries"] = append(funcs["readerFirstEntries"], e.ref)
	}
	for name, refs := range map[string][]ReaderRef{
		"readerConsumers": readerConsumers,
		"readerPartials":  readerPartials,
		"readerWrappers":  readerWrappers,
	} {
		for _, r := range refs {
			funcs[name] = append(funcs[name], r.FuncRef)
		}
	}
	fields := map[string][]FieldRef{
		"arenaTextFields":     arenaTextFields,
		"oneShotFieldSources": oneShotFieldSources,
		"requestBodySource":   requestBodySource,
	}
	return funcs, fields
}

// TestTableRowsResolve: every table row that names a module package
// resolves to a function, method or field declared in the loaded
// module, so deleting an entry point cannot leave a row behind that
// matches nothing. A package-level table the test does not list fails
// it too, so a new table is checked from the start.
func TestTableRowsResolve(t *testing.T) {
	l, err := sharedLoader()
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	loaded, err := l.Load("./...")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	pkgs := map[string]*types.Package{}
	for _, p := range loaded {
		pkgs[p.Path] = p.Types
	}
	funcs, fields := tableRows()

	self := pkgs[modulePath+"/internal/analysis"]
	if self == nil {
		t.Fatal("the analysis package is not in the loaded module")
	}
	tableTypes := map[string]bool{
		"[]" + modulePath + "/internal/analysis.FuncRef":          true,
		"[]" + modulePath + "/internal/analysis.ReaderRef":        true,
		"[]" + modulePath + "/internal/analysis.readerFirstEntry": true,
		"[]" + modulePath + "/internal/analysis.FieldRef":         true,
	}
	for _, name := range self.Scope().Names() {
		v, ok := self.Scope().Lookup(name).(*types.Var)
		if !ok || !tableTypes[v.Type().String()] {
			continue
		}
		if _, ok := funcs[name]; !ok {
			if _, ok := fields[name]; !ok {
				t.Errorf("table %s is not checked by TestTableRowsResolve", name)
			}
		}
	}

	inModule := func(path string) bool {
		return path == modulePath || strings.HasPrefix(path, modulePath+"/")
	}
	funcRows, fieldRows := 0, 0
	for _, table := range sortedKeys(funcs) {
		for _, r := range funcs[table] {
			if !inModule(r.Pkg) {
				continue
			}
			funcRows++
			if !funcDeclared(pkgs[r.Pkg], r) {
				t.Errorf("%s: %+v names no function or method declared in the module", table, r)
			}
		}
	}
	for _, table := range sortedKeys(fields) {
		for _, r := range fields[table] {
			if !inModule(r.Pkg) {
				continue
			}
			fieldRows++
			if !fieldDeclared(pkgs[r.Pkg], r) {
				t.Errorf("%s: %+v names no field declared in the module", table, r)
			}
		}
	}
	t.Logf("%d function and %d field rows name module packages", funcRows, fieldRows)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// funcDeclared reports whether pkg declares the function r names, or,
// with a receiver, a method of that name on the named type itself (a
// promoted method does not match r, see FuncRef.matches).
func funcDeclared(pkg *types.Package, r FuncRef) bool {
	if pkg == nil {
		return false
	}
	if r.Recv == "" {
		_, ok := pkg.Scope().Lookup(r.Name).(*types.Func)
		return ok
	}
	tn, ok := pkg.Scope().Lookup(r.Recv).(*types.TypeName)
	if !ok {
		return false
	}
	named, ok := tn.Type().(*types.Named)
	if !ok {
		return false
	}
	if iface, ok := named.Underlying().(*types.Interface); ok {
		for i := 0; i < iface.NumExplicitMethods(); i++ {
			if iface.ExplicitMethod(i).Name() == r.Name {
				return true
			}
		}
		return false
	}
	for i := 0; i < named.NumMethods(); i++ {
		if named.Method(i).Name() == r.Name {
			return true
		}
	}
	return false
}

// fieldDeclared reports whether pkg declares the struct type r names
// with a field of r's name.
func fieldDeclared(pkg *types.Package, r FieldRef) bool {
	if pkg == nil {
		return false
	}
	tn, ok := pkg.Scope().Lookup(r.Type).(*types.TypeName)
	if !ok {
		return false
	}
	st, ok := tn.Type().Underlying().(*types.Struct)
	if !ok {
		return false
	}
	for i := 0; i < st.NumFields(); i++ {
		if st.Field(i).Name() == r.Field {
			return true
		}
	}
	return false
}
