package analysis

import (
	"fmt"
	"go/token"
	"go/types"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// solveRoundRobin is the reference the bottom-up solver is checked
// against: every function starts at the lattice bottom and every
// function is rescanned, in declaration order, until a full pass over
// the whole graph changes nothing. It returns the number of passes.
func solveRoundRobin[S any](g *CallGraph, sums map[*types.Func]*S, scan func(*FuncNode) S, equal func(a, b S) bool) int {
	nodes := sortedFuncNodes(g)
	for _, n := range nodes {
		sums[n.Fn] = new(S)
	}
	passes := 0
	for changed := true; changed; passes++ {
		changed = false
		for _, n := range nodes {
			if got := scan(n); !equal(got, *sums[n.Fn]) {
				*sums[n.Fn] = got
				changed = true
			}
		}
	}
	return passes
}

// compareSummaries reports every function whose two summaries differ
// under same.
func compareSummaries[S any](t *testing.T, what string, g *CallGraph, got, want map[*types.Func]*S, same func(a, b S) bool) {
	t.Helper()
	for _, n := range sortedFuncNodes(g) {
		if !same(*got[n.Fn], *want[n.Fn]) {
			t.Errorf("%s summary of %s: bottom-up %+v, round-robin %+v", what, funcDisplayName(n.Fn), *got[n.Fn], *want[n.Fn])
		}
	}
}

// checkSolverMatchesReference solves the taint (both specs), lockset
// and flow summaries of g with the bottom-up solver and the round-robin
// reference and requires equal results. Lockset fields that keep the
// first value found (blocks) depend on scan order, so only whether a
// function may block is compared there. It also requires every function
// outside a recursive cycle to have been scanned exactly once.
func checkSolverMatchesReference(t *testing.T, g *CallGraph) {
	t.Helper()
	for _, spec := range []*TaintSpec{taintflowSpec, unverifiedWriteSpec} {
		got := &taintEngine{spec: spec, sum: map[*types.Func]*taintSummary{}}
		scans := map[*types.Func]int{}
		solveBottomUp(g, got.sum, func(n *FuncNode) taintSummary {
			scans[n.Fn]++
			return got.analyzeFunc(n)
		}, eq[taintSummary])
		ref := &taintEngine{spec: spec, sum: map[*types.Func]*taintSummary{}}
		passes := solveRoundRobin(g, ref.sum, ref.analyzeFunc, eq[taintSummary])
		compareSummaries(t, "taint", g, got.sum, ref.sum, eq[taintSummary])
		checkScannedOnce(t, g, scans)
		total := 0
		for _, c := range scans {
			total += c
		}
		t.Logf("taint: %d functions, %d bottom-up scans, %d round-robin passes", len(g.Funcs), total, passes)
	}

	refLocks := &lockSets{
		sums:    map[*types.Func]*lockSummary{},
		names:   map[*types.Var]string{},
		namedAt: map[*types.Var]token.Pos{},
	}
	t.Logf("lockset: %d round-robin passes", solveRoundRobin(g, refLocks.sums, refLocks.scan, equalLockSummary))
	compareSummaries(t, "lockset", g, g.lockSets().sums, refLocks.sums, func(a, b lockSummary) bool {
		return maps.Equal(a.acquired, b.acquired) && (a.blocks == "") == (b.blocks == "")
	})
	if !maps.Equal(g.lockSets().names, refLocks.names) {
		t.Errorf("lock display names differ: bottom-up %v, round-robin %v", g.lockSets().names, refLocks.names)
	}

	refFlow := map[*types.Func]*flowSummary{}
	t.Logf("flow: %d round-robin passes",
		solveRoundRobin(g, refFlow, func(n *FuncNode) flowSummary { return scanFlowSummary(n, refFlow) }, eq[flowSummary]))
	compareSummaries(t, "flow", g, g.flowSums(), refFlow, eq[flowSummary])
}

// checkScannedOnce requires one scan of every function that is not part
// of a recursive cycle.
func checkScannedOnce(t *testing.T, g *CallGraph, scans map[*types.Func]int) {
	t.Helper()
	for _, scc := range stronglyConnected(sortedFuncNodes(g), g.staticCallees) {
		if len(scc) > 1 {
			continue
		}
		n := scc[0]
		if !slices.Contains(g.staticCallees(n), n) && scans[n.Fn] != 1 {
			t.Errorf("%s is not recursive but was scanned %d times", funcDisplayName(n.Fn), scans[n.Fn])
		}
	}
}

func TestSolverMatchesRoundRobinModule(t *testing.T) {
	l, err := sharedLoader()
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	pkgs, err := l.Load("./...")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	checkSolverMatchesReference(t, BuildCallGraph(pkgs))
}

func TestSolverMatchesRoundRobinFixtures(t *testing.T) {
	l, err := sharedLoader()
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	ents, err := os.ReadDir(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		t.Run(e.Name(), func(t *testing.T) {
			pkg, err := l.LoadDir(filepath.Join("testdata", "src", e.Name()), "discsec/internal/solvefixture/"+e.Name())
			if err != nil {
				t.Fatalf("LoadDir: %v", err)
			}
			checkSolverMatchesReference(t, BuildCallGraph([]*Package{pkg}))
		})
	}
}

// recursiveSrc holds two mutually recursive pairs, each declared so
// that the first member has its facts only through the second: ping
// forwards disc bytes to the script interpreter, takes g.mu and may
// block on g.ch only through pong; keep releases its buffer to a pool
// only through release.
const recursiveSrc = `package recfixture

import (
	"sync"

	"discsec/internal/disc"
	"discsec/internal/markup"
)

var g struct {
	mu sync.Mutex
	ch chan int
}

func start(im *disc.Image, in *markup.Interp) error {
	raw, _ := im.Get("APP/main.xml")
	return ping(in, raw, 3)
}

func ping(in *markup.Interp, code []byte, n int) error {
	return pong(in, code, n)
}

func pong(in *markup.Interp, code []byte, n int) error {
	if n == 0 {
		return in.RunSource(string(code))
	}
	g.mu.Lock()
	g.mu.Unlock()
	<-g.ch
	return ping(in, code, n-1)
}

var pool sync.Pool

func keep(b *[]byte, n int) {
	release(b, n)
}

func release(b *[]byte, n int) {
	if n == 0 {
		pool.Put(b)
		return
	}
	keep(b, n-1)
}
`

// TestSolverMutualRecursion covers cyclic components of two functions:
// a summary fact that one member has only through the other must come
// out of the bottom-up solve, equal to the reference.
func TestSolverMutualRecursion(t *testing.T) {
	l, err := sharedLoader()
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "rec.go"), []byte(recursiveSrc), 0o644); err != nil {
		t.Fatal(err)
	}
	const path = "discsec/internal/recfixture"
	pkg, err := l.LoadDir(dir, path)
	if err != nil {
		t.Fatalf("LoadDir: %v", err)
	}
	g := BuildCallGraph([]*Package{pkg})
	checkSolverMatchesReference(t, g)

	fn := func(name string) *types.Func {
		t.Helper()
		n := g.Lookup(path, "", name)
		if n == nil {
			t.Fatalf("%s not in call graph", name)
		}
		return n.Fn
	}
	te := &taintEngine{spec: taintflowSpec, sum: map[*types.Func]*taintSummary{}}
	solveBottomUp(g, te.sum, te.analyzeFunc, eq[taintSummary])
	if te.sum[fn("ping")].sink&summaryBit(1) == 0 {
		t.Error("ping: code parameter not summarized as reaching a sink through pong")
	}
	locks := g.lockSets().sums
	if len(locks[fn("ping")].acquired) != 1 {
		t.Errorf("ping acquires %d locks, want g.mu through pong", len(locks[fn("ping")].acquired))
	}
	if locks[fn("ping")].blocks != "a channel receive" {
		t.Errorf("ping blocks on %q, want the receive in pong", locks[fn("ping")].blocks)
	}
	if g.flowSums()[fn("keep")].releases&summaryBit(0) == 0 {
		t.Error("keep: buffer parameter not summarized as released through release")
	}
	diags := Run([]*Package{pkg}, []*Analyzer{Taintflow})
	if len(diags) != 1 || diags[0].Pos.Line != 17 {
		t.Errorf("got %v, want one taintflow finding at start's call to ping (line 17)", diags)
	}
}

// TestLoadOrderDeterministic loads the module twice with fresh loaders:
// packages parse in a fixed order, so every function's declaration
// position, and with it the declaration-order node list, is the same.
func TestLoadOrderDeterministic(t *testing.T) {
	positions := func() []string {
		t.Helper()
		l, err := NewLoader(".")
		if err != nil {
			t.Fatalf("NewLoader: %v", err)
		}
		pkgs, err := l.Load("./...")
		if err != nil {
			t.Fatalf("Load: %v", err)
		}
		var out []string
		for _, n := range sortedFuncNodes(BuildCallGraph(pkgs)) {
			out = append(out, fmt.Sprintf("%s@%d", n.Fn.FullName(), n.Decl.Pos()))
		}
		return out
	}
	first, second := positions(), positions()
	if !slices.Equal(first, second) {
		t.Error("two loads of the module gave different declaration positions")
	}
}
