package analysis

import (
	"go/token"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestLockOrderFixture(t *testing.T) {
	pkg := loadFixture(t, "lockorder", "discsec/internal/lofixture")
	checkFixture(t, pkg, LockOrder)
}

// TestLockOrderCycleTrace pins the cycle diagnostic's rendering: the
// loop through the order graph and the function that contributed each
// edge, so a deadlock report is actionable without re-running anything.
func TestLockOrderCycleTrace(t *testing.T) {
	pkg := loadFixture(t, "lockorder", "discsec/internal/lofixture")
	var cycle []Diagnostic
	for _, d := range Run([]*Package{pkg}, []*Analyzer{LockOrder}) {
		if strings.Contains(d.Message, "lock-order cycle") {
			cycle = append(cycle, d)
		}
	}
	if len(cycle) != 1 {
		t.Fatalf("got %d cycle diagnostics, want 1: %v", len(cycle), cycle)
	}
	msg := cycle[0].Message
	if !strings.Contains(msg, "P.mu -> Q.mu -> P.mu") {
		t.Errorf("cycle trace does not show the loop: %q", msg)
	}
	if !strings.Contains(msg, "in lofixture.P.LockBoth") || !strings.Contains(msg, "in lofixture.Q.Reverse") {
		t.Errorf("cycle sites do not name both contributing functions: %q", msg)
	}
}

func TestLockOrderCleanTwin(t *testing.T) {
	pkg := loadFixture(t, "lockorder_clean", "discsec/internal/locfixture")
	if diags := Run([]*Package{pkg}, []*Analyzer{LockOrder}); len(diags) != 0 {
		t.Errorf("consistent-order twin: got %d diagnostics, want 0: %v", len(diags), diags)
	}
}

func TestGoroutineLeakFixture(t *testing.T) {
	pkg := loadFixture(t, "goroutineleak", "discsec/internal/glfixture")
	checkFixture(t, pkg, GoroutineLeak)
}

func TestGoroutineLeakCleanTwin(t *testing.T) {
	pkg := loadFixture(t, "goroutineleak_clean", "discsec/internal/glcfixture")
	if diags := Run([]*Package{pkg}, []*Analyzer{GoroutineLeak}); len(diags) != 0 {
		t.Errorf("signal-tied twin: got %d diagnostics, want 0: %v", len(diags), diags)
	}
}

func TestHotPathAllocFixture(t *testing.T) {
	pkg := loadFixture(t, "hotpathalloc", "discsec/internal/hpfixture")
	checkFixture(t, pkg, HotPathAlloc)
}

// TestHotPathAllocNamesRoot pins that every finding names the hot root
// that pulled the function into the hot set — for transitively hot
// helpers that is the annotated caller, not the helper itself.
func TestHotPathAllocNamesRoot(t *testing.T) {
	pkg := loadFixture(t, "hotpathalloc", "discsec/internal/hpfixture")
	diags := Run([]*Package{pkg}, []*Analyzer{HotPathAlloc})
	if len(diags) == 0 {
		t.Fatal("fixture produced no findings")
	}
	for _, d := range diags {
		if !strings.HasPrefix(d.Message, "hot path (hpfixture.Sum): ") {
			t.Errorf("finding does not name its root: %v", d)
		}
	}
}

func TestHotPathAllocUnannotatedTwin(t *testing.T) {
	pkg := loadFixture(t, "hotpathalloc_plain", "discsec/internal/hppfixture")
	if diags := Run([]*Package{pkg}, []*Analyzer{HotPathAlloc}); len(diags) != 0 {
		t.Errorf("unannotated twin: got %d diagnostics, want 0: %v", len(diags), diags)
	}
}

// TestUselessIgnoreV3Rules: stale //discvet:ignore directives naming
// the v3 rules are themselves reported, one per rule.
func TestUselessIgnoreV3Rules(t *testing.T) {
	pkg := loadFixture(t, "uselessignore3", "discsec/internal/uifixture3")
	diags := Run([]*Package{pkg}, []*Analyzer{LockOrder, GoroutineLeak, HotPathAlloc})

	named := map[string]int{}
	for _, d := range diags {
		if d.Rule != "uselessignore" {
			t.Errorf("unexpected non-uselessignore diagnostic: %v", d)
			continue
		}
		for _, rule := range []string{"lockorder", "goroutineleak", "hotpathalloc"} {
			if strings.Contains(d.Message, `"`+rule+`"`) {
				named[rule]++
			}
		}
	}
	if len(diags) != 3 {
		t.Fatalf("got %d diagnostics, want 3 stale-suppression reports: %v", len(diags), diags)
	}
	for _, rule := range []string{"lockorder", "goroutineleak", "hotpathalloc"} {
		if named[rule] != 1 {
			t.Errorf("rule %s: got %d stale-suppression reports naming it, want 1", rule, named[rule])
		}
	}
}

// TestBaselineRoundTripV3Rules: findings from all three v3 rules
// survive a baseline save/load cycle and are fully absorbed by it,
// while a new finding still surfaces.
func TestBaselineRoundTripV3Rules(t *testing.T) {
	pkgs := []*Package{
		loadFixture(t, "lockorder", "discsec/internal/lofixture"),
		loadFixture(t, "goroutineleak", "discsec/internal/glfixture"),
		loadFixture(t, "hotpathalloc", "discsec/internal/hpfixture"),
	}
	diags := Run(pkgs, []*Analyzer{LockOrder, GoroutineLeak, HotPathAlloc})
	byRule := map[string]int{}
	for _, d := range diags {
		byRule[d.Rule]++
	}
	for _, rule := range []string{"lockorder", "goroutineleak", "hotpathalloc"} {
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
		Rule:    "lockorder",
		Pos:     token.Position{Filename: "other.go", Line: 3, Column: 1},
		Message: "a brand-new deadlock",
	}
	if left := loaded.Filter(append(diags, extra), ""); len(left) != 1 || left[0].Message != extra.Message {
		t.Errorf("new finding did not survive the baseline: %v", left)
	}
}

// TestProductionHotPathAnnotated pins the seed annotations on the real
// module: the warm-open path, the c14n escape loops, and the obs
// recorder hot path are hotpath roots, and the audited escapes are
// coldpath. If an annotation comment drifts out of directive position
// (and so silently stops being enforced), this fails.
func TestProductionHotPathAnnotated(t *testing.T) {
	l, err := sharedLoader()
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	pkgs, err := l.Load("./internal/library", "./internal/c14n", "./internal/obs", "./internal/cowmap")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	ann := collectPathAnnotations(&ModulePass{Pkgs: pkgs})
	byName := map[string]pathAnnotation{}
	for fn, a := range ann {
		byName[funcDisplayName(fn)] = a
	}
	wantHot := []string{
		"library.Library.lookup", "library.Library.entryValid",
		"library.Library.signerEpochOf", "library.Library.shardFor", "library.shard.get",
		"c14n.appendText", "c14n.appendAttrValue", "c14n.Stream.walk",
		"obs.Recorder.Add", "obs.Recorder.Inc", "obs.Recorder.Observe",
		"obs.Recorder.Start", "obs.Span.End",
		"cowmap.Map.Get", "cowmap.Map.GetOrCreate",
	}
	for _, name := range wantHot {
		if byName[name] != annHot {
			t.Errorf("%s is not annotated //discvet:hotpath (got %d)", name, byName[name])
		}
	}
	wantCold := []string{"library.Library.fill", "obs.Recorder.Audit", "cowmap.Map.getOrCreateSlow"}
	for _, name := range wantCold {
		if byName[name] != annCold {
			t.Errorf("%s is not annotated //discvet:coldpath (got %d)", name, byName[name])
		}
	}
}

// TestV3RulesRegistered: the three v3 rules are module-level analyzers
// reachable through the registry (and therefore through -rules, SARIF
// rule tables, and suppression checking).
func TestV3RulesRegistered(t *testing.T) {
	for _, name := range []string{"lockorder", "goroutineleak", "hotpathalloc"} {
		a := ByName(name)
		if a == nil {
			t.Fatalf("rule %s not registered", name)
		}
		if a.RunModule == nil || a.Run != nil {
			t.Errorf("rule %s must be a module-level analyzer", name)
		}
		if a.Doc == "" {
			t.Errorf("rule %s has no Doc", name)
		}
	}
}
