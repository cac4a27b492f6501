package main

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// clients is the number of load-generating goroutines and, for HTTP,
// keep-alive connections: one per core of the 2-core reference box.
const clients = 2

// runner drives one system with one plan's request stream.
type runner struct {
	p   *plan
	sys *system
	tr  *tracer // nil in an untraced run

	pos atomic.Uint64 // next stream position

	// Cold opens are due at coldStart + k/coldRate; coldNext is k.
	coldStart time.Time
	coldNext  atomic.Int64

	// bad holds the first correctness violation; it stops every worker.
	bad atomic.Pointer[error]
}

// item is one request: the bytes to present and the key they must
// verify to ("" for a tampered control, which must be rejected).
type item struct {
	raw  []byte
	want string
}

func (r *runner) next() item {
	if r.p.spec.coldRate > 0 && !r.coldStart.IsZero() {
		k := r.coldNext.Load()
		due := r.coldStart.Add(time.Duration(float64(k) / r.p.spec.coldRate * float64(time.Second)))
		if k < int64(len(r.p.cold)) && !time.Now().Before(due) && r.coldNext.CompareAndSwap(k, k+1) {
			return item{raw: r.p.cold[k].raw, want: r.p.cold[k].want}
		}
	}
	v := r.p.stream[(r.pos.Add(1)-1)%uint64(len(r.p.stream))]
	if v < 0 {
		return item{raw: r.p.controls[-1-v]}
	}
	return item{raw: r.p.docs[v].raw, want: r.p.docs[v].want}
}

// counts are the outcomes of a number of requests.
type counts struct {
	opens, controls, failed, hits int
}

func (c *counts) merge(o counts) {
	c.opens += o.opens
	c.controls += o.controls
	c.failed += o.failed
	c.hits += o.hits
}

// tally accumulates one worker's outcomes in one slice: lat holds the
// latencies of the successful opens, lag the generator's turnarounds.
type tally struct {
	counts
	lat, lag hist
}

func (t *tally) merge(o *tally) {
	t.counts.merge(o.counts)
	t.lat.merge(&o.lat)
	t.lag.merge(&o.lag)
}

// do opens one item, times it and checks the answer. It returns false
// once the run has a correctness violation.
func (r *runner) do(ctx context.Context, slot int, it item, t *tally) bool {
	start := time.Now()
	var v verdict
	var err error
	if r.tr != nil && r.tr.on.Load() {
		tc := r.tr.begin(ctx, 0, "client")
		v, err = r.sys.open(tc.ctx, slot, it.raw)
		r.tr.end(tc, spanOpen)
		r.tr.opens.Add(1)
		if err != nil || !v.hit {
			r.tr.colds.Add(1)
		}
	} else {
		v, err = r.sys.open(ctx, slot, it.raw)
	}
	done := time.Now()
	switch {
	case it.want == "":
		t.controls++
		if err == nil {
			r.fail(fmt.Errorf("tampered control accepted: verdict key %.16s", v.key))
		}
	case err != nil:
		t.opens++
		t.failed++
	case v.key != it.want || v.signer != r.p.signer:
		t.opens++
		r.fail(fmt.Errorf("verdict mismatch: key %.16s signer %.16s, want key %.16s signer %.16s", v.key, v.signer, it.want, r.p.signer))
	default:
		t.opens++
		if v.hit {
			t.hits++
		}
		t.lat.add(done.Sub(start))
	}
	return r.bad.Load() == nil
}

func (r *runner) fail(err error) {
	r.bad.CompareAndSwap(nil, &err)
}

func (r *runner) err() error {
	if e := r.bad.Load(); e != nil {
		return *e
	}
	return nil
}

// prewarm opens the set-up documents once each on two workers.
func (r *runner) prewarm(ctx context.Context) error {
	var next atomic.Int64
	var wg sync.WaitGroup
	var failed atomic.Int64
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var t tally
			for i := next.Add(1) - 1; i < int64(len(r.p.prewarm)); i = next.Add(1) - 1 {
				d := r.p.docs[r.p.prewarm[i]]
				if !r.do(ctx, r.sys.prewarmSlots[w], item{raw: d.raw, want: d.want}, &t) {
					return
				}
			}
			failed.Add(int64(t.failed))
		}()
	}
	wg.Wait()
	if err := r.err(); err != nil {
		return err
	}
	if n := failed.Load(); n > 0 {
		return fmt.Errorf("set-up: %d of %d opens failed", n, len(r.p.prewarm))
	}
	return nil
}

// slice is the outcome of one measurement slice. It keeps only a
// summary of its latencies; the histograms go into the phase's totals.
type slice struct {
	traced  bool
	elapsed time.Duration
	// speed is the box's speed around the slice relative to the
	// reference (see calibrate.go).
	speed float64
	counts
	// samples counts the latencies, p50 and p90 are their quantiles.
	samples  uint64
	p50, p90 time.Duration
	mem      runtime.MemStats // deltas of Mallocs, TotalAlloc, NumGC, PauseTotalNs
}

// throughput is the slice's successful legitimate opens per second,
// scaled to the reference speed.
func (s *slice) throughput() float64 {
	return float64(s.opens-s.failed) / s.elapsed.Seconds() / s.speed
}

// phase is the outcome of the measured phase: its slices, and the
// latency and lag histograms of its untraced slices.
type phase struct {
	slices   []slice
	lat, lag hist
}

// run drives one closed-loop slice of length d: each client opens again
// as soon as it is answered. It returns the slice's summary and its
// workers' merged tally.
func (r *runner) run(ctx context.Context, d time.Duration, traced bool) (slice, *tally) {
	if r.tr != nil {
		r.tr.on.Store(traced)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	end := start.Add(d)
	tallies := make([]tally, clients)
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			t := &tallies[w]
			// A request is due when the previous answer arrives; its lag
			// is the generator's own turnaround.
			due := time.Now()
			for due.Before(end) {
				it := r.next()
				t.lag.add(time.Since(due))
				if !r.do(ctx, w, it, t) {
					return
				}
				due = time.Now()
			}
		}()
	}
	wg.Wait()
	s := slice{traced: traced, elapsed: time.Since(start)}
	runtime.ReadMemStats(&m1)
	s.mem.Mallocs = m1.Mallocs - m0.Mallocs
	s.mem.TotalAlloc = m1.TotalAlloc - m0.TotalAlloc
	s.mem.NumGC = m1.NumGC - m0.NumGC
	s.mem.PauseTotalNs = m1.PauseTotalNs - m0.PauseTotalNs
	t := &tallies[0]
	for i := 1; i < len(tallies); i++ {
		t.merge(&tallies[i])
	}
	s.counts = t.counts
	s.samples = t.lat.n
	s.p50, s.p90 = t.lat.quantile(0.50), t.lat.quantile(0.90)
	if r.tr != nil {
		r.tr.on.Store(false)
	}
	return s, t
}

// measure runs the measured phase: n slices of length d. In a traced
// run tracing is on in every other slice, so traced and untraced slices
// interleave over the same system state.
func (r *runner) measure(ctx context.Context, n int, d time.Duration) (*phase, error) {
	// Cold arrivals follow the slices' clock: it stops while the speed
	// is measured.
	r.coldStart = time.Now()
	calibrate := func() (float64, error) {
		start := time.Now()
		v, err := speed(d / calibrationShare)
		r.coldStart = r.coldStart.Add(time.Since(start))
		return v, err
	}
	before, err := calibrate()
	if err != nil {
		return nil, err
	}
	ph := &phase{}
	for k := 0; k < n; k++ {
		traced := r.tr != nil && k%2 == 1
		s, t := r.run(ctx, d, traced)
		if err := r.err(); err != nil {
			return nil, err
		}
		after, err := calibrate()
		if err != nil {
			return nil, err
		}
		s.speed = (before + after) / 2
		before = after
		ph.slices = append(ph.slices, s)
		if !traced {
			ph.lat.merge(&t.lat)
			ph.lag.merge(&t.lag)
		}
	}
	return ph, nil
}

// calibrationShare sizes the speed measurement around a slice: one
// tenth of the slice.
const calibrationShare = 10

var errNoSamples = errors.New("no successful opens measured")
