// Package obs is the pipeline observability substrate: named counters,
// log-scale duration histograms, lightweight spans, and a structured
// security-audit event stream, built only on the standard library.
//
// A *Recorder aggregates everything. A nil *Recorder is the universal
// no-op — every method is safe on a nil receiver — so instrumented hot
// paths pay a pointer nil check when observability is absent and a
// single atomic load when a recorder is present but disabled. No clock
// is read and no allocation happens unless the recorder is live.
//
// Recorders travel through context.Context (WithRecorder/FromContext),
// so one recorder follows a load request across the facade, verifier,
// decryptor, policy engine, and script runtime without widening every
// signature with metrics plumbing. A pluggable Sink streams individual
// events (span ends, counter increments, audit events) to a consumer;
// with no sink installed the recorder only aggregates.
//
// Security-relevant transitions (signature verification failure, policy
// denial, degraded-trust entry/exit) are recorded as AuditEvents in a
// bounded ring buffer, giving operators an auditable trail of security
// decisions rather than pass/fail booleans (see SECURITY.md).
package obs

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"discsec/internal/cowmap"
)

// Stage names used across the pipeline. Packages record spans under
// these constants so per-stage tables line up between the player, the
// server, and the bench tooling.
const (
	// StageLoad covers a whole engine load (parse → verify → decode).
	StageLoad = "load"
	// StageParse covers hardened XML parsing.
	StageParse = "parse"
	// StageDectrans covers the decryption-transform pass before
	// signature validation.
	StageDectrans = "dectrans"
	// StageC14N covers one canonicalization.
	StageC14N = "c14n"
	// StageDigest covers one reference validation (dereference,
	// transforms, hash, compare).
	StageDigest = "digest"
	// StageSignature covers key resolution (KeyInfo, chain validation)
	// and SignatureValue validation.
	StageSignature = "signature"
	// StageDecrypt covers one EncryptedData decryption.
	StageDecrypt = "decrypt"
	// StagePolicy covers one PDP decision.
	StagePolicy = "policy"
	// StageExecute covers application execution (markup + scripts).
	StageExecute = "execute"
	// StageDownload covers one content download (across retries).
	StageDownload = "download"
	// StageXKMS covers one XKMS request round trip.
	StageXKMS = "xkms"
	// StageLibrary covers one shared-library track open (cache lookup
	// plus, on a miss, the full verification fill).
	StageLibrary = "library"
	// StageCluster covers one cluster-tier open on an edge node
	// (replica lookup plus, on a miss, the forward/origin fill).
	StageCluster = "cluster"
)

// Audit event kinds.
const (
	// AuditVerifyFailed records a signature that failed validation.
	AuditVerifyFailed = "verify-failed"
	// AuditPolicyDenied records a permission the PDP denied.
	AuditPolicyDenied = "policy-denied"
	// AuditRuntimeDenied records a host-API operation refused at
	// runtime by the granted permission set.
	AuditRuntimeDenied = "runtime-denied"
	// AuditDegradedEnter records entry into degraded trust (stale
	// cached key binding served because the trust service is down).
	AuditDegradedEnter = "degraded-trust-entered"
	// AuditDegradedExit records recovery to live trust resolution.
	AuditDegradedExit = "degraded-trust-exited"
	// AuditDegradedServe records a cached verification verdict served
	// while the trust service is degraded (the verdict was filled from
	// live trust, but revocation checks may be stale).
	AuditDegradedServe = "degraded-trust-serve"
	// AuditBreakerTransition records a dependency circuit breaker
	// changing state (closed / open / half-open).
	AuditBreakerTransition = "breaker-transition"
	// AuditHealthChanged records a supervised component moving between
	// Healthy, Degraded, and Down.
	AuditHealthChanged = "component-health-changed"
	// AuditFailClosed records work refused outright because a
	// dependency it requires is down (e.g. a cold library fill while
	// the trust service's breaker is open).
	AuditFailClosed = "fail-closed"
	// AuditClusterEpoch records a cluster trust-epoch advance — a
	// revocation (or rollover) propagating fleet-wide. Recorded on the
	// origin when it bumps the epoch and on every edge that applies
	// the announce.
	AuditClusterEpoch = "cluster-epoch-advanced"
	// AuditClusterPartition records an edge refusing to serve because
	// it has missed its heartbeat budget: revocations may not be
	// reaching it, so it fails closed rather than serve possibly
	// stale verdicts.
	AuditClusterPartition = "cluster-partition-fail-closed"
)

// AuditEvent is one security-relevant decision.
type AuditEvent struct {
	// Seq orders events across the recorder's lifetime (1-based).
	Seq uint64 `json:"seq"`
	// Time is the recorder-clock timestamp.
	Time time.Time `json:"time"`
	// Kind is one of the Audit* constants.
	Kind string `json:"kind"`
	// Detail is a human-readable description of the decision.
	Detail string `json:"detail"`
}

// Sink consumes individual observability events as they happen. All
// methods must be safe for concurrent use; they run inline on the
// instrumented path, so they must be fast.
type Sink interface {
	// OnSpan observes a completed span.
	OnSpan(stage string, start time.Time, d time.Duration)
	// OnCounter observes a counter change and its new total.
	OnCounter(name string, delta, total int64)
	// OnAudit observes a security audit event.
	OnAudit(ev AuditEvent)
}

// auditRingSize bounds the retained audit trail.
const auditRingSize = 256

// Recorder aggregates counters, histograms, and audit events.
type Recorder struct {
	enabled atomic.Bool
	sink    atomic.Pointer[sinkBox]
	now     func() time.Time

	// counters and hists are copy-on-write: the instrumented hot paths
	// only ever read them (one atomic load, no key boxing), and the
	// tables stop growing once every stage and counter name has been
	// touched. sync.Map here cost one interface allocation per Add.
	counters cowmap.Map[string, *atomic.Int64]
	hists    cowmap.Map[string, *Histogram]

	auditMu      sync.Mutex
	auditSeq     uint64
	audit        []AuditEvent // ring buffer, newest at (start+len-1)%cap
	auditStart   int
	auditDropped uint64
}

// sinkBox wraps a Sink for atomic.Pointer (interfaces cannot be stored
// directly).
type sinkBox struct{ s Sink }

// Option configures a Recorder at construction.
type Option func(*Recorder)

// WithSink streams every event to s in addition to aggregation.
func WithSink(s Sink) Option {
	return func(r *Recorder) {
		if s != nil {
			r.sink.Store(&sinkBox{s: s})
		}
	}
}

// WithClock overrides the recorder's clock (tests, deterministic
// benches).
func WithClock(now func() time.Time) Option {
	return func(r *Recorder) {
		if now != nil {
			r.now = now
		}
	}
}

// NewRecorder creates an enabled recorder.
func NewRecorder(opts ...Option) *Recorder {
	r := &Recorder{now: time.Now}
	r.enabled.Store(true)
	for _, o := range opts {
		o(r)
	}
	return r
}

// SetEnabled toggles recording. While disabled every operation is a
// single atomic load.
func (r *Recorder) SetEnabled(v bool) {
	if r != nil {
		r.enabled.Store(v)
	}
}

// SetSink replaces the streaming sink (nil removes it). Aggregation is
// unaffected.
func (r *Recorder) SetSink(s Sink) {
	if r == nil {
		return
	}
	if s == nil {
		r.sink.Store(nil)
		return
	}
	r.sink.Store(&sinkBox{s: s})
}

// live reports whether the recorder should record.
func (r *Recorder) live() bool {
	return r != nil && r.enabled.Load()
}

func (r *Recorder) clock() time.Time {
	if r.now != nil {
		return r.now()
	}
	return time.Now()
}

func (r *Recorder) loadSink() Sink {
	if b := r.sink.Load(); b != nil {
		return b.s
	}
	return nil
}

// Add adjusts a named counter by delta.
//
//discvet:hotpath counters tick inside verification inner loops
func (r *Recorder) Add(name string, delta int64) {
	if !r.live() {
		return
	}
	total := r.counters.GetOrCreate(name, newCounter).Add(delta)
	if s := r.loadSink(); s != nil {
		s.OnCounter(name, delta, total)
	}
}

// newCounter is GetOrCreate's first-touch factory: a declared function
// so the steady-state Add never builds a closure.
func newCounter() *atomic.Int64 { return new(atomic.Int64) }

// Inc increments a named counter.
//
//discvet:hotpath counters tick inside verification inner loops
func (r *Recorder) Inc(name string) { r.Add(name, 1) }

// Counter returns the current value of a named counter (0 if never
// touched).
func (r *Recorder) Counter(name string) int64 {
	if r == nil {
		return 0
	}
	if c, ok := r.counters.Get(name); ok {
		return c.Load()
	}
	return 0
}

// Observe records one duration sample for a stage.
//
//discvet:hotpath one sample per reference validation / c14n pass
func (r *Recorder) Observe(stage string, d time.Duration) {
	if !r.live() {
		return
	}
	r.histogram(stage).observe(d)
}

func (r *Recorder) histogram(stage string) *Histogram {
	return r.hists.GetOrCreate(stage, newHistogram)
}

// Span is an in-flight stage measurement. The zero Span (from a nil or
// disabled recorder) is a no-op.
type Span struct {
	r     *Recorder
	stage string
	start time.Time
}

// Start begins a span for the stage. Call End exactly once.
//
//discvet:hotpath spans wrap every pipeline stage, including cache hits
func (r *Recorder) Start(stage string) Span {
	if !r.live() {
		return Span{}
	}
	return Span{r: r, stage: stage, start: r.clock()}
}

// End completes the span, recording its duration.
//
//discvet:hotpath spans wrap every pipeline stage, including cache hits
func (s Span) End() {
	if s.r == nil {
		return
	}
	d := s.r.clock().Sub(s.start)
	if d < 0 {
		d = 0
	}
	s.r.histogram(s.stage).observe(d)
	if sink := s.r.loadSink(); sink != nil {
		sink.OnSpan(s.stage, s.start, d)
	}
}

// Audit records a security-relevant decision in the bounded audit ring
// and streams it to the sink.
//
//discvet:coldpath audit events are rare security decisions; formatting may allocate
func (r *Recorder) Audit(kind, format string, args ...any) {
	if !r.live() {
		return
	}
	ev := AuditEvent{Time: r.clock(), Kind: kind, Detail: fmt.Sprintf(format, args...)}

	r.auditMu.Lock()
	r.auditSeq++
	ev.Seq = r.auditSeq
	if len(r.audit) < auditRingSize {
		r.audit = append(r.audit, ev)
	} else {
		r.audit[r.auditStart] = ev
		r.auditStart = (r.auditStart + 1) % auditRingSize
		r.auditDropped++
	}
	r.auditMu.Unlock()

	if s := r.loadSink(); s != nil {
		s.OnAudit(ev)
	}
}

// AuditTrail returns the retained audit events, oldest first.
func (r *Recorder) AuditTrail() []AuditEvent {
	if r == nil {
		return nil
	}
	r.auditMu.Lock()
	defer r.auditMu.Unlock()
	out := make([]AuditEvent, 0, len(r.audit))
	for i := 0; i < len(r.audit); i++ {
		out = append(out, r.audit[(r.auditStart+i)%len(r.audit)])
	}
	return out
}

// ctxKey is the context key for the recorder.
type ctxKey struct{}

// WithRecorder returns a context carrying r. A nil r returns ctx
// unchanged.
func WithRecorder(ctx context.Context, r *Recorder) context.Context {
	if r == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, r)
}

// FromContext extracts the recorder from ctx, or nil (the no-op
// recorder) when none is attached.
func FromContext(ctx context.Context) *Recorder {
	if ctx == nil {
		return nil
	}
	r, _ := ctx.Value(ctxKey{}).(*Recorder)
	return r
}

// MemorySink is a Sink that retains every event in memory, for tests
// and interactive debugging. Safe for concurrent use.
type MemorySink struct {
	mu       sync.Mutex
	spans    []SpanRecord
	counters []CounterRecord
	audits   []AuditEvent
}

// SpanRecord is one completed span seen by a MemorySink.
type SpanRecord struct {
	Stage    string
	Start    time.Time
	Duration time.Duration
}

// CounterRecord is one counter change seen by a MemorySink.
type CounterRecord struct {
	Name         string
	Delta, Total int64
}

// OnSpan implements Sink.
func (m *MemorySink) OnSpan(stage string, start time.Time, d time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.spans = append(m.spans, SpanRecord{Stage: stage, Start: start, Duration: d})
}

// OnCounter implements Sink.
func (m *MemorySink) OnCounter(name string, delta, total int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.counters = append(m.counters, CounterRecord{Name: name, Delta: delta, Total: total})
}

// OnAudit implements Sink.
func (m *MemorySink) OnAudit(ev AuditEvent) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.audits = append(m.audits, ev)
}

// Spans returns the recorded spans in completion order.
func (m *MemorySink) Spans() []SpanRecord {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]SpanRecord(nil), m.spans...)
}

// SpanStages returns just the stage names, in completion order.
func (m *MemorySink) SpanStages() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]string, len(m.spans))
	for i, s := range m.spans {
		out[i] = s.Stage
	}
	return out
}

// Counters returns the recorded counter changes in order.
func (m *MemorySink) Counters() []CounterRecord {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]CounterRecord(nil), m.counters...)
}

// Audits returns the recorded audit events in order.
func (m *MemorySink) Audits() []AuditEvent {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]AuditEvent(nil), m.audits...)
}
