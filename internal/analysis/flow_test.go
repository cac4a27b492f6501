package analysis

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestPoolEscapeFixture(t *testing.T) {
	pkg := loadFixture(t, "poolescape", "discsec/internal/xmlstream/pefixture")
	checkFixture(t, pkg, PoolEscape)
}

func TestErrDominateFixture(t *testing.T) {
	pkg := loadFixture(t, "errdominate", "discsec/internal/core/edfixture")
	checkFixture(t, pkg, ErrDominate)
}

func TestOnceOnlyFixture(t *testing.T) {
	pkg := loadFixture(t, "onceonly", "discsec/internal/server/oofixture")
	checkFixture(t, pkg, OnceOnly)
}

// TestFlowSummariesRealModule pins the interprocedural summaries over
// the real packages the rules are seeded on: xmlstream's putParser
// must release its parameter, and the library's key front must consume
// its reader (through bytes.Buffer.ReadFrom into its pooled buffer).
func TestFlowSummariesRealModule(t *testing.T) {
	l, err := sharedLoader()
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	pkgs, err := l.Load("./...")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	g := BuildCallGraph(pkgs)
	sums := g.flowSums()

	find := func(pkgPath, recv, name string) *flowSummary {
		t.Helper()
		node := g.Lookup(pkgPath, recv, name)
		if node == nil {
			t.Fatalf("function %s.%s.%s not in call graph", pkgPath, recv, name)
		}
		return sums[node.Fn]
	}

	if s := find(pkgXMLStream, "", "putParser"); s.releases&summaryBit(0) == 0 {
		t.Error("xmlstream.putParser: parameter 0 not summarized as released")
	}
	if s := find(pkgXMLStream, "", "Parse"); !s.releasesNothingOf(t) {
		t.Error("xmlstream.Parse releases a parameter; it only Puts a local")
	}
	if s := find(pkgLibrary, "", "ReadFront"); s.consumes == 0 {
		t.Error("library.ReadFront: reader parameter not summarized as consumed")
	}
	if s := find(pkgLibrary, "Library", "OpenReader"); s.consumes == 0 {
		t.Error("library.Library.OpenReader: reader parameter not summarized as consumed")
	}
}

// releasesNothingOf keeps the assertion above readable.
func (s *flowSummary) releasesNothingOf(t *testing.T) bool {
	t.Helper()
	return s.releases == 0
}

// TestParallelRunDeterministic pins the parallel driver's ordering
// contract: two full runs over the same packages with every analyzer
// enabled must produce byte-identical SARIF, whatever order the
// worker pool finished in.
func TestParallelRunDeterministic(t *testing.T) {
	pkgs := []*Package{
		loadFixture(t, "poolescape", "discsec/internal/xmlstream/pefixture"),
		loadFixture(t, "errdominate", "discsec/internal/core/edfixture"),
		loadFixture(t, "onceonly", "discsec/internal/server/oofixture"),
		loadFixture(t, "cryptocompare", "discsec/internal/disc/ccfixture"),
		loadFixture(t, "readerfirst", "discsec/internal/player/rffixture"),
	}
	all := Analyzers()
	first, err := SARIFReport(Run(pkgs, all), all, ".")
	if err != nil {
		t.Fatalf("SARIFReport: %v", err)
	}
	if len(first) == 0 || !strings.Contains(string(first), "poolescape") {
		t.Fatalf("first run produced no v4 findings to compare")
	}
	for i := 0; i < 3; i++ {
		again, err := SARIFReport(Run(pkgs, all), all, ".")
		if err != nil {
			t.Fatalf("SARIFReport: %v", err)
		}
		if !bytes.Equal(first, again) {
			t.Fatalf("run %d: SARIF output differs from first run", i+2)
		}
	}
}

// TestUselessIgnoreV4Rules: stale //discvet:ignore directives naming
// the v4 value-flow rules are themselves reported, one per rule.
func TestUselessIgnoreV4Rules(t *testing.T) {
	pkg := loadFixture(t, "uselessignore4", "discsec/internal/uifixture4")
	diags := Run([]*Package{pkg}, []*Analyzer{PoolEscape, ErrDominate, OnceOnly})

	named := map[string]int{}
	for _, d := range diags {
		if d.Rule != "uselessignore" {
			t.Errorf("unexpected non-uselessignore diagnostic: %v", d)
			continue
		}
		for _, rule := range []string{"poolescape", "errdominate", "onceonly"} {
			if strings.Contains(d.Message, `"`+rule+`"`) {
				named[rule]++
			}
		}
	}
	if len(diags) != 3 {
		t.Fatalf("got %d diagnostics, want 3 stale-suppression reports: %v", len(diags), diags)
	}
	for _, rule := range []string{"poolescape", "errdominate", "onceonly"} {
		if named[rule] != 1 {
			t.Errorf("rule %s: got %d stale-suppression reports naming it, want 1", rule, named[rule])
		}
	}
}

// TestBaselineRoundTripV4Rules: findings from all three v4 rules
// survive a baseline save/load cycle and are fully absorbed by it,
// while a new finding still surfaces.
func TestBaselineRoundTripV4Rules(t *testing.T) {
	pkgs := []*Package{
		loadFixture(t, "poolescape", "discsec/internal/xmlstream/pefixture"),
		loadFixture(t, "errdominate", "discsec/internal/core/edfixture"),
		loadFixture(t, "onceonly", "discsec/internal/server/oofixture"),
	}
	diags := Run(pkgs, []*Analyzer{PoolEscape, ErrDominate, OnceOnly})
	byRule := map[string]int{}
	for _, d := range diags {
		byRule[d.Rule]++
	}
	for _, rule := range []string{"poolescape", "errdominate", "onceonly"} {
		if byRule[rule] == 0 {
			t.Fatalf("rule %s produced no findings to baseline (got %v)", rule, byRule)
		}
	}

	b := NewBaseline(diags, "")
	path := filepath.Join(t.TempDir(), "baseline.json")
	if err := b.Save(path); err != nil {
		t.Fatalf("Save: %v", err)
	}
	loaded, err := LoadBaseline(path)
	if err != nil {
		t.Fatalf("LoadBaseline: %v", err)
	}
	if !reflect.DeepEqual(loaded, b) {
		t.Errorf("baseline did not round-trip:\nsaved  %+v\nloaded %+v", b, loaded)
	}
	if left := loaded.Filter(diags, ""); len(left) != 0 {
		t.Errorf("baseline left %d findings, want 0: %v", len(left), left)
	}
	extra := Diagnostic{
		Rule:    "poolescape",
		Pos:     token.Position{Filename: "other.go", Line: 3, Column: 1},
		Message: "a brand-new pooled-object escape",
	}
	if left := loaded.Filter(append(diags, extra), ""); len(left) != 1 || left[0].Message != extra.Message {
		t.Errorf("new finding did not survive the baseline: %v", left)
	}
}

// parseFuncCFG builds the CFG of the first function in src.
func parseFuncCFG(t *testing.T, src string) *funcCFG {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "cfg.go", "package p\n"+src, 0)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
			return buildCFG(fd.Body)
		}
	}
	t.Fatal("no function in source")
	return nil
}

func TestCFGDominance(t *testing.T) {
	g := parseFuncCFG(t, `
func f(a, b int) int {
	if a > 0 {
		a++
	} else {
		a--
	}
	return a + b
}`)
	// The entry (holding the condition) must dominate every reachable
	// block; neither arm dominates the join.
	for _, blk := range g.blocks {
		if !g.reachable(blk) {
			continue
		}
		if !g.dominates(g.entry, blk) {
			t.Errorf("entry does not dominate block %d", blk.id)
		}
	}
	// Arms are blocks 1 and 2 (builder order: cond=0, then, else, join).
	then, els, join := g.blocks[1], g.blocks[2], g.blocks[3]
	if g.dominates(then, join) || g.dominates(els, join) {
		t.Error("a branch arm must not dominate the join")
	}
	if g.idom[join.id] != g.entry.id {
		t.Errorf("join idom = %d, want entry %d", g.idom[join.id], g.entry.id)
	}
}

func TestCFGBranchFacts(t *testing.T) {
	g := parseFuncCFG(t, `
func f(err error) {
	if err != nil {
		return
	}
}`)
	// The entry's two outgoing edges assume err != nil with opposite
	// truth values.
	if len(g.entry.succs) != 2 {
		t.Fatalf("entry has %d successors, want 2", len(g.entry.succs))
	}
	seen := map[bool]bool{}
	for _, e := range g.entry.succs {
		if len(e.assumes) != 1 {
			t.Fatalf("edge assumes %d facts, want 1", len(e.assumes))
		}
		seen[e.assumes[0].val] = true
	}
	if !seen[true] || !seen[false] {
		t.Errorf("edges do not cover both truth values: %v", seen)
	}
}

func TestCFGShortCircuitFacts(t *testing.T) {
	g := parseFuncCFG(t, `
func f(a, b bool) {
	if a && b {
		return
	}
}`)
	for _, e := range g.entry.succs {
		if len(e.assumes) > 0 && e.assumes[0].val {
			if len(e.assumes) != 2 {
				t.Errorf("true edge of a && b carries %d facts, want 2", len(e.assumes))
			}
		}
	}
}

func TestCFGDefersReplayedInExit(t *testing.T) {
	g := parseFuncCFG(t, `
func f() {
	defer first()
	defer second()
}`)
	if len(g.exit.nodes) != 2 {
		t.Fatalf("exit holds %d nodes, want 2 replayed defers", len(g.exit.nodes))
	}
	// Reverse registration order: second runs first.
	calls := make([]string, 0, 2)
	for _, n := range g.exit.nodes {
		rd, ok := n.(replayedDefer)
		if !ok {
			t.Fatalf("exit node %T, want replayedDefer", n)
		}
		calls = append(calls, rd.Fun.(*ast.Ident).Name)
	}
	if calls[0] != "second" || calls[1] != "first" {
		t.Errorf("replay order %v, want [second first]", calls)
	}
}
