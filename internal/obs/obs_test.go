package obs

import (
	"context"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

// fakeClock steps a deterministic clock forward on every read.
type fakeClock struct {
	mu   sync.Mutex
	t    time.Time
	step time.Duration
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(c.step)
	return c.t
}

func TestNilRecorderIsNoOp(t *testing.T) {
	var r *Recorder
	r.Inc("x")
	r.Add("x", 5)
	r.Observe(StageC14N, time.Millisecond)
	sp := r.Start(StageLoad)
	sp.End()
	r.Audit(AuditPolicyDenied, "denied %s", "net")
	r.SetEnabled(true)
	r.SetSink(&MemorySink{})
	if got := r.Counter("x"); got != 0 {
		t.Errorf("nil recorder counter = %d, want 0", got)
	}
	snap := r.Snapshot()
	if len(snap.Stages) != 0 || len(snap.Counters) != 0 || len(snap.Audit) != 0 {
		t.Errorf("nil recorder snapshot not empty: %+v", snap)
	}
	if tr := r.AuditTrail(); len(tr) != 0 {
		t.Errorf("nil recorder audit trail = %v, want empty", tr)
	}
}

func TestDisabledRecorderRecordsNothing(t *testing.T) {
	sink := &MemorySink{}
	r := NewRecorder(WithSink(sink))
	r.SetEnabled(false)
	r.Inc("c")
	r.Start(StageLoad).End()
	r.Audit(AuditVerifyFailed, "x")
	snap := r.Snapshot()
	if len(snap.Counters) != 0 || len(snap.Stages) != 0 || len(snap.Audit) != 0 {
		t.Errorf("disabled recorder recorded: %+v", snap)
	}
	if len(sink.Spans()) != 0 || len(sink.Counters()) != 0 || len(sink.Audits()) != 0 {
		t.Error("disabled recorder streamed events to sink")
	}
}

func TestCountersAndSink(t *testing.T) {
	sink := &MemorySink{}
	r := NewRecorder(WithSink(sink))
	r.Inc("policy.permit")
	r.Add("policy.permit", 2)
	r.Inc("policy.deny")
	if got := r.Counter("policy.permit"); got != 3 {
		t.Errorf("policy.permit = %d, want 3", got)
	}
	recs := sink.Counters()
	if len(recs) != 3 {
		t.Fatalf("sink saw %d counter events, want 3", len(recs))
	}
	if recs[1].Name != "policy.permit" || recs[1].Delta != 2 || recs[1].Total != 3 {
		t.Errorf("second counter event = %+v", recs[1])
	}
}

func TestSpanDurationsAndSnapshot(t *testing.T) {
	clock := &fakeClock{t: time.Unix(1000, 0), step: time.Millisecond}
	r := NewRecorder(WithClock(clock.now))
	for i := 0; i < 10; i++ {
		sp := r.Start(StageDigest)
		sp.End() // one clock step = 1ms per span
	}
	snap := r.Snapshot()
	if len(snap.Stages) != 1 {
		t.Fatalf("got %d stages, want 1", len(snap.Stages))
	}
	st := snap.Stages[0]
	if st.Stage != StageDigest || st.Count != 10 {
		t.Fatalf("stage stat = %+v", st)
	}
	if st.Total != 10*time.Millisecond || st.Min != time.Millisecond || st.Max != time.Millisecond {
		t.Errorf("durations wrong: %+v", st)
	}
	if st.P50 > st.Max || st.P50 == 0 {
		t.Errorf("p50 = %v out of range (max %v)", st.P50, st.Max)
	}
	if st.Mean() != time.Millisecond {
		t.Errorf("mean = %v, want 1ms", st.Mean())
	}
}

func TestHistogramBuckets(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want int
	}{
		{0, 0},
		{500 * time.Nanosecond, 0},
		{time.Microsecond, 0},
		{2 * time.Microsecond, 1},
		{3 * time.Microsecond, 2},
		{4 * time.Microsecond, 2},
		{5 * time.Microsecond, 3},
		{time.Millisecond, 10},
		{time.Second, 20},
		{time.Hour, 32},
		{100 * time.Hour, histBuckets - 1},
	}
	for _, c := range cases {
		if got := bucketIndex(c.d); got != c.want {
			t.Errorf("bucketIndex(%v) = %d, want %d", c.d, got, c.want)
		}
	}
	// Monotonic upper bounds.
	for i := 1; i < histBuckets; i++ {
		if bucketUpper(i) <= bucketUpper(i-1) {
			t.Fatalf("bucket upper bounds not increasing at %d", i)
		}
	}
}

func TestQuantileClampedToMax(t *testing.T) {
	h := newHistogram()
	h.observe(3 * time.Microsecond) // bucket upper bound is 4µs
	if q := h.quantile(0.99); q != 3*time.Microsecond {
		t.Errorf("p99 of single 3µs sample = %v, want 3µs (clamped to max)", q)
	}
}

func TestAuditRingBounded(t *testing.T) {
	r := NewRecorder()
	for i := 0; i < auditRingSize+10; i++ {
		r.Audit(AuditPolicyDenied, "event %d", i)
	}
	trail := r.AuditTrail()
	if len(trail) != auditRingSize {
		t.Fatalf("trail length = %d, want %d", len(trail), auditRingSize)
	}
	if trail[0].Seq != 11 || trail[len(trail)-1].Seq != auditRingSize+10 {
		t.Errorf("ring kept wrong window: first seq %d, last seq %d", trail[0].Seq, trail[len(trail)-1].Seq)
	}
	if r.Snapshot().AuditDropped != 10 {
		t.Errorf("dropped = %d, want 10", r.Snapshot().AuditDropped)
	}
}

func TestContextRoundTrip(t *testing.T) {
	r := NewRecorder()
	ctx := WithRecorder(context.Background(), r)
	if FromContext(ctx) != r {
		t.Error("FromContext did not return the attached recorder")
	}
	if FromContext(context.Background()) != nil {
		t.Error("FromContext on bare context should be nil")
	}
	if FromContext(nil) != nil { //nolint:staticcheck // exercising nil tolerance
		t.Error("FromContext(nil) should be nil")
	}
	if WithRecorder(context.Background(), nil) != context.Background() {
		t.Error("WithRecorder(nil) should return ctx unchanged")
	}
}

func TestStageTableAndMetricsText(t *testing.T) {
	clock := &fakeClock{t: time.Unix(1000, 0), step: 100 * time.Microsecond}
	r := NewRecorder(WithClock(clock.now))
	r.Start(StageC14N).End()
	r.Inc("http.requests")
	snap := r.Snapshot()

	table := snap.StageTable()
	for _, want := range []string{"stage", StageC14N, "http.requests"} {
		if !strings.Contains(table, want) {
			t.Errorf("stage table missing %q:\n%s", want, table)
		}
	}

	var b strings.Builder
	if err := snap.WriteMetrics(&b); err != nil {
		t.Fatalf("WriteMetrics: %v", err)
	}
	text := b.String()
	for _, want := range []string{
		`discsec_counter{name="http.requests"} 1`,
		`discsec_stage_count{stage="c14n"} 1`,
		`discsec_stage_seconds{stage="c14n",quantile="0.5"}`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics text missing %q:\n%s", want, text)
		}
	}
}

func TestSnapshotJSON(t *testing.T) {
	r := NewRecorder()
	r.Start(StageDecrypt).End()
	r.Inc("download.retries")
	r.Audit(AuditDegradedEnter, "trust service down")
	data, err := json.MarshalIndent(r.Snapshot(), "", "  ")
	if err != nil {
		t.Fatalf("MarshalIndent: %v", err)
	}
	for _, want := range []string{`"stage": "decrypt"`, `"download.retries"`, `"degraded-trust-entered"`} {
		if !strings.Contains(string(data), want) {
			t.Errorf("JSON missing %q:\n%s", want, data)
		}
	}
}

func TestConcurrentRecorder(t *testing.T) {
	r := NewRecorder(WithSink(&MemorySink{}))
	const workers = 8
	const iters = 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				r.Inc("c")
				sp := r.Start(StageLoad)
				sp.End()
				if i%50 == 0 {
					r.Audit(AuditVerifyFailed, "w")
				}
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("c"); got != workers*iters {
		t.Errorf("counter = %d, want %d", got, workers*iters)
	}
	snap := r.Snapshot()
	if snap.Stages[0].Count != workers*iters {
		t.Errorf("span count = %d, want %d", snap.Stages[0].Count, workers*iters)
	}
}
