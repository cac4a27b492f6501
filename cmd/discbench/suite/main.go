// Command suite is the repository's benchmark: it opens seeded corpora
// of signed, partially encrypted cluster documents through the four
// serving forms — the shared library warm and cold, the server's
// POST /verify, and a cluster edge fleet — checks every verdict, and
// prints every end-to-end metric with its unit. A traced run reports
// where the time goes, layer by layer.
//
// Usage (from the repository root):
//
//	bash cmd/discbench/suite/run.sh --workload lib-warm|lib-cold|verify-http|edge-fleet|all \
//	    --seed N [--seconds S] [--trace 0|1] [--trace-out spans.json]
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. See README.md for the
// workloads, the metrics and how to read a trace.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

type formKind int

const (
	formLibrary formKind = iota
	formHTTP
	formEdge
)

// spec describes one workload. Every timing decision of a run comes
// from these fields, never from the workload's name.
type spec struct {
	name string
	form formKind
	// docs documents with script lengths log-uniform in
	// [minStmts, maxStmts] statements.
	docs, minStmts, maxStmts int
	// budgetShare sets the library byte budget to this share of the
	// corpus bytes (0 keeps the default, which holds the corpus).
	budgetShare float64
	// zipf draws documents by Zipf popularity instead of cycling.
	zipf bool
	// tamperEvery > 0 makes every tamperEvery-th request a control.
	tamperEvery int
	// coldRate > 0 opens never-seen documents at this rate per second.
	coldRate float64
}

var specs = []spec{
	// Every open is a library cache hit, which still tokenizes, builds a
	// DOM and digests the document.
	{name: "lib-warm", form: formLibrary, docs: 512, minStmts: 20, maxStmts: 2000},
	// A byte budget of a quarter of the corpus, opened cyclically, so
	// every open runs the full verification fill and evicts.
	{name: "lib-cold", form: formLibrary, docs: 2048, minStmts: 20, maxStmts: 200, budgetShare: 0.25, tamperEvery: 64},
	// POST /verify over two keep-alive connections, Zipf popularity
	// against a quarter-corpus budget: the HTTP layer over a mix of hits
	// and fills.
	{name: "verify-http", form: formHTTP, docs: 2048, minStmts: 20, maxStmts: 2000, budgetShare: 0.25, zipf: true, tamperEvery: 64},
	// Two edges over one origin: warm hits re-derive the key without a
	// DOM, cold opens take the forward, fill and push path.
	{name: "edge-fleet", form: formEdge, docs: 512, minStmts: 20, maxStmts: 2000, coldRate: 100},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the benchmark prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

const (
	// slices splits the measured phase; the end-to-end metrics are
	// medians over slices.
	slices = 20
	// setups is how often an untraced run builds its system; setup_s is
	// the median.
	setups = 3
	// setupCalibration is the speed measurement around each set-up.
	setupCalibration = 50 * time.Millisecond
)

func main() {
	runKernelChild()
	name := flag.String("workload", "all", "workload to run: "+names()+", or all")
	seed := flag.Uint64("seed", 1, "seed of every generated input")
	seconds := flag.Float64("seconds", 10, "length of the measured phase in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced run and reports the per-layer metrics")
	traceOut := flag.String("trace-out", "", "with --trace 1, write the spans to this JSON file")
	flag.Parse()

	var run []spec
	for _, sp := range specs {
		if *name == "all" || *name == sp.name {
			run = append(run, sp)
		}
	}
	if len(run) == 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "usage: --workload %s|all --seed N --seconds S --trace 0|1\n", names())
		os.Exit(2)
	}
	fmt.Printf("seed %d\n", *seed)
	ok := true
	for _, sp := range run {
		res, err := runWorkload(sp, *seed, *seconds, *trace == 1, *traceOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", sp.name, err)
			res.Correct = false
		}
		b, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: encode result: %v\n", sp.name, err)
			os.Exit(1)
		}
		fmt.Println(string(b))
		ok = ok && res.Correct
	}
	if !ok {
		os.Exit(1)
	}
}

func names() string {
	s := ""
	for i, sp := range specs {
		if i > 0 {
			s += "|"
		}
		s += sp.name
	}
	return s
}

// runWorkload generates the inputs, sets the system up, measures it
// and reports the end-to-end metrics, or with traced the per-layer
// metrics.
func runWorkload(sp spec, seed uint64, seconds float64, traced bool, traceOut string) (result, error) {
	p, err := newPlan(sp, seed, seconds)
	if err != nil {
		return result{Metrics: map[string]metric{}}, err
	}
	return runPlan(p, seconds, traced, traceOut)
}

// runPlan runs one workload on its generated inputs.
func runPlan(p *plan, seconds float64, traced bool, traceOut string) (result, error) {
	sp := p.spec
	res := result{Correct: true, Metrics: map[string]metric{}}
	var err error
	fmt.Printf("%s: %d docs, %.2f MiB corpus, %d set-up opens, budget %s, expected hit ratio %.3f, %d controls, %d cold docs\n",
		sp.name, len(p.docs), float64(p.corpusBytes)/(1<<20), len(p.prewarm), budgetString(p.budget), p.expectHit, len(p.controls), len(p.cold))

	base := liveHeap()
	ctx := context.Background()
	r := &runner{p: p}
	n := setups
	if traced {
		r.tr = newTracer()
		n = 1
	}
	var setupTimes []float64
	defer func() {
		if r.sys != nil {
			r.sys.close()
		}
	}()
	for i := 0; i < n; i++ {
		if r.sys != nil {
			r.sys.close()
			r.sys = nil
			runtime.GC()
		}
		if r.tr != nil {
			r.tr.on.Store(true)
		}
		before, err := speed(setupCalibration)
		if err != nil {
			return res, err
		}
		start := time.Now()
		if r.sys, err = build(p, r.tr); err != nil {
			return res, fmt.Errorf("set-up: %w", err)
		}
		if err := r.prewarm(ctx); err != nil {
			return res, fmt.Errorf("set-up: %w", err)
		}
		took := time.Since(start).Seconds()
		after, err := speed(setupCalibration)
		if err != nil {
			return res, err
		}
		setupTimes = append(setupTimes, took*(before+after)/2)
	}

	d := time.Duration(seconds / slices * float64(time.Second))
	r.run(ctx, d, false) // warm-up, not measured
	if err := r.err(); err != nil {
		return res, err
	}
	firstReq := uint64(0)
	if r.tr != nil {
		firstReq = r.tr.reqs.Load() + 1
	}
	ph, err := r.measure(ctx, slices, d)
	if err != nil {
		return res, err
	}
	for _, s := range ph.slices {
		res.Attempted += s.opens
		res.Failed += s.failed
	}

	if traced {
		err = r.perLayer(res.Metrics, ph, firstReq)
		if err == nil && traceOut != "" {
			err = r.tr.write(traceOut)
		}
		return res, err
	}
	heap := liveHeap() - base
	runtime.KeepAlive(r.sys)
	return res, endToEnd(res.Metrics, ph, setupTimes, heap)
}

// endToEnd computes the user-visible metrics of an untraced run. Slice
// throughputs and latency quantiles are scaled to the reference speed
// and reduced by their median over slices, so a burst of interference
// in a few slices does not move them.
func endToEnd(m map[string]metric, ph *phase, setupTimes []float64, heap float64) error {
	var thr, p50s, p90s, speeds []float64
	var c counts
	for _, s := range ph.slices {
		speeds = append(speeds, s.speed)
		thr = append(thr, s.throughput())
		if s.samples > 0 {
			p50s = append(p50s, us(s.p50)*s.speed)
			p90s = append(p90s, us(s.p90)*s.speed)
		}
		c.merge(s.counts)
	}
	if ph.lat.n == 0 {
		return errNoSamples
	}
	m["setup_s"] = metric{median(setupTimes), "s"}
	m["opens_per_s"] = metric{median(thr), "1/s"}
	m["open_p50_us"] = metric{median(p50s), "us"}
	m["open_p90_us"] = metric{median(p90s), "us"}
	m["heap_live_mib"] = metric{heap / (1 << 20), "MiB"}

	tail, q := tailQuantile(ph.lat.n)
	sort.Float64s(speeds)
	fmt.Printf("  %d latency samples, unscaled p50 %.1f us, p90 %.1f us, p99 %.1f us, p%s %.1f us; speed %.3f..%.3f of reference\n",
		ph.lat.n, us(ph.lat.quantile(0.5)), us(ph.lat.quantile(0.9)), us(ph.lat.quantile(0.99)),
		tail, us(ph.lat.quantile(q)), speeds[0], speeds[len(speeds)-1])
	fmt.Printf("  hit ratio %.3f, %d controls rejected, generator lag p99 %.1f us\n",
		float64(c.hits)/float64(max(c.opens, 1)), c.controls, us(ph.lag.quantile(0.99)))
	return nil
}

// liveHeap is the heap still referenced after two collections (the
// second one empties what sync.Pools kept through the first).
func liveHeap() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc)
}

func budgetString(b int64) string {
	if b == 0 {
		return "default"
	}
	return fmt.Sprintf("%.2f MiB", float64(b)/(1<<20))
}

// tailQuantile is the highest percentile with at least ten samples
// beyond it.
func tailQuantile(n uint64) (string, float64) {
	label, q := "50", 0.5
	for _, c := range []struct {
		label string
		q     float64
	}{{"90", 0.9}, {"99", 0.99}, {"99.9", 0.999}, {"99.99", 0.9999}} {
		if float64(n)*(1-c.q) >= 10 {
			label, q = c.label, c.q
		}
	}
	return label, q
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
