package main

import (
	"encoding/json"
	"math"
	"os"
	"sort"
	"strings"
	"testing"
	"time"
)

// TestMain lets the test binary serve as the speed kernel's child.
func TestMain(m *testing.M) {
	runKernelChild()
	os.Exit(m.Run())
}

// benchmarkFile declares the workloads and metrics the suite must emit.
const benchmarkFile = "../../../BENCHMARK.json"

// tinySeconds keeps every phase of the smoke runs short.
const tinySeconds = 0.3

// tiny shrinks a workload to a 16-document corpus.
func tiny(t *testing.T, name string) spec {
	t.Helper()
	for _, sp := range specs {
		if sp.name == name {
			sp.docs = 16
			return sp
		}
	}
	t.Fatalf("no workload %q", name)
	return spec{}
}

type declaredMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type declaration struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []declaredMetric `json:"end_to_end"`
	PerLayer []declaredMetric `json:"per_layer"`
}

// TestSuiteEmitsDeclaredMetrics runs every workload, untraced and
// traced, at a tiny scale and checks each emits exactly the metrics
// BENCHMARK.json declares, with the declared units.
func TestSuiteEmitsDeclaredMetrics(t *testing.T) {
	b, err := os.ReadFile(benchmarkFile)
	if err != nil {
		t.Fatal(err)
	}
	var decl declaration
	if err := json.Unmarshal(b, &decl); err != nil {
		t.Fatalf("%s: %v", benchmarkFile, err)
	}
	if len(decl.Workloads) != len(specs) {
		t.Fatalf("%s declares %d workloads, the suite has %d", benchmarkFile, len(decl.Workloads), len(specs))
	}
	for _, w := range decl.Workloads {
		for _, traced := range []bool{false, true} {
			res, err := runWorkload(tiny(t, w.Name), 1, tinySeconds, traced, "")
			if err != nil || !res.Correct || res.Attempted == 0 || res.Failed != 0 {
				t.Fatalf("%s traced=%v: err %v, result %+v", w.Name, traced, err, res)
			}
			want := decl.EndToEnd
			if traced {
				want = decl.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: emitted %d metrics, %s declares %d", w.Name, traced, len(res.Metrics), benchmarkFile, len(want))
			}
			for _, m := range want {
				if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("%s traced=%v: metric %s = %+v (present %v), want unit %q", w.Name, traced, m.Name, got, ok, m.Unit)
				}
			}
		}
	}
}

// TestHeapLiveIndependentOfSeconds runs a workload of small, fast hits
// for one and for four times the phase length: heap_live_mib must not
// follow the number of opens measured.
func TestHeapLiveIndependentOfSeconds(t *testing.T) {
	sp := tiny(t, "lib-warm")
	sp.maxStmts = sp.minStmts
	heap := func(seconds float64) float64 {
		res, err := runWorkload(sp, 1, seconds, false, "")
		if err != nil || !res.Correct {
			t.Fatalf("%.1f s: err %v, result %+v", seconds, err, res)
		}
		return res.Metrics["heap_live_mib"].Value
	}
	short, long := heap(tinySeconds), heap(4*tinySeconds)
	t.Logf("heap_live_mib %.3f after %.1f s, %.3f after %.1f s", short, tinySeconds, long, 4*tinySeconds)
	if long > short+0.05 {
		t.Errorf("heap_live_mib %.3f after %.1f s, %.3f after %.1f s", short, tinySeconds, long, 4*tinySeconds)
	}
}

// TestHist checks the histogram's quantiles against exact ones and that
// recording allocates nothing.
func TestHist(t *testing.T) {
	var h hist
	var exact []time.Duration
	for i := 1; i <= 100000; i++ {
		d := time.Duration(i*i) % (5 * time.Millisecond)
		h.add(d)
		exact = append(exact, d)
	}
	sort.Slice(exact, func(i, j int) bool { return exact[i] < exact[j] })
	for _, q := range []float64{0.01, 0.5, 0.9, 0.99, 0.999} {
		want := exact[int(math.Ceil(q*float64(len(exact))))-1]
		if got := h.quantile(q); math.Abs(float64(got-want)) > 0.008*float64(want)+1 {
			t.Errorf("quantile %v = %v, exact %v", q, got, want)
		}
	}
	if n := testing.AllocsPerRun(1000, func() { h.add(time.Microsecond) }); n != 0 {
		t.Errorf("add allocates %v times", n)
	}
}

// TestGateRejectsWrongVerdicts plants an accepted tampered control and
// a wrong expected key; each must fail the run.
func TestGateRejectsWrongVerdicts(t *testing.T) {
	for _, tc := range []struct {
		name, want string
		plant      func(p *plan)
	}{
		{"accepted control", "tampered control accepted", func(p *plan) {
			for i := range p.controls {
				p.controls[i] = p.docs[0].raw
			}
		}},
		{"key mismatch", "verdict mismatch", func(p *plan) { p.docs[0].want = strings.Repeat("0", 64) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, err := newPlan(tiny(t, "lib-cold"), 1, tinySeconds)
			if err != nil {
				t.Fatal(err)
			}
			tc.plant(p)
			if _, err := runPlan(p, tinySeconds, false, ""); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("run error %v, want one reporting %q", err, tc.want)
			}
		})
	}
}
