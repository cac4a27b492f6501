package health_test

// The chaos matrix: deterministic dependency-failure scenarios driven
// through the full supervised pipeline — faults.Transport injecting
// scripted XKMS outages under the keymgmt client's breaker/bulkhead,
// the health monitor deriving component state, the shared library
// deciding serve-degraded versus fail-closed, and /healthz reflecting
// every transition. No wall-clock sleeps: breakers and the monitor run
// on a manual clock, and the retry policies use zero jitter so every
// backoff is zero.

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"discsec/internal/core"
	"discsec/internal/experiments"
	"discsec/internal/faults"
	"discsec/internal/health"
	"discsec/internal/keymgmt"
	"discsec/internal/library"
	"discsec/internal/obs"
	"discsec/internal/player"
	"discsec/internal/resilience"
	"discsec/internal/server"
	"discsec/internal/workload"
	"discsec/internal/xmldsig"
)

type chaosClock struct {
	mu sync.Mutex
	t  time.Time
}

func newChaosClock() *chaosClock {
	return &chaosClock{t: time.Unix(1700000000, 0)}
}

func (c *chaosClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *chaosClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
}

// signedDoc builds a cluster document carrying a KeyName-only
// signature, so every cold verification must resolve the signer
// through the (faultable) trust service.
func signedDoc(t *testing.T, seed uint64) []byte {
	t.Helper()
	_, creator := experiments.PKIFixture()
	cluster, _ := workload.Cluster(workload.ClusterSpec{AVTracks: 1, AppTracks: 1, Seed: seed})
	doc := cluster.Document()
	if _, err := xmldsig.SignEnveloped(doc, doc.Root(), xmldsig.SignOptions{
		Key:     creator.Key,
		KeyInfo: xmldsig.KeyInfoSpec{KeyName: creator.Name},
	}); err != nil {
		t.Fatal(err)
	}
	return doc.Bytes()
}

const (
	chaosFailureThreshold = 3
	chaosSuccessThreshold = 2
	chaosOpenTimeout      = 30 * time.Second
)

// chaosRig is the full supervised pipeline under test.
type chaosRig struct {
	clk     *chaosClock
	rec     *obs.Recorder
	mon     *health.Monitor
	kc      *keymgmt.Client
	lib     *library.Library
	cs      *server.ContentServer
	wire    *faults.Transport
	creator *keymgmt.Identity
}

// newChaosRig stands up a live XKMS service behind a fault-injecting
// transport and wires the breaker, bulkhead, monitor, library, and
// content server exactly the way player.Supervise composes them.
func newChaosRig(t *testing.T, maxStale time.Duration) *chaosRig {
	t.Helper()
	root, creator := experiments.PKIFixture()
	svc := keymgmt.NewService(root.Pool())
	if err := svc.Register(creator.Name, creator.Cert, "pw"); err != nil {
		t.Fatal(err)
	}
	xkms := httptest.NewServer(&keymgmt.Handler{Service: svc})
	t.Cleanup(xkms.Close)

	clk := newChaosClock()
	rec := obs.NewRecorder()
	wire := &faults.Transport{}
	kc := &keymgmt.Client{
		BaseURL:    xkms.URL,
		HTTPClient: &http.Client{Timeout: 5 * time.Second, Transport: wire},
		Retry:      &resilience.Policy{MaxAttempts: 4, Jitter: func() float64 { return 0 }},
		MaxStale:   maxStale,
		Recorder:   rec,
		Breaker: &resilience.Breaker{
			Name:             health.ComponentXKMS,
			FailureThreshold: chaosFailureThreshold,
			SuccessThreshold: chaosSuccessThreshold,
			OpenTimeout:      chaosOpenTimeout,
			ProbeBudget:      1,
			Clock:            clk.Now,
		},
		Bulkhead: resilience.NewBulkhead(health.ComponentXKMS, 4),
	}
	mon := health.New(health.WithRecorder(rec), health.WithClock(clk.Now))
	player.Supervise(mon, kc, nil)
	lib := library.New(
		library.WithOpener(core.Opener{RequireSignature: true, KeyByName: kc.PublicKeyByName}),
		library.WithDegradedFunc(mon.DegradedFunc(health.ComponentXKMS)),
		library.WithRecorder(rec),
		library.WithFillLimit(2),
	)
	cs := server.NewContentServer(
		server.WithRecorder(rec),
		server.WithLibrary(lib),
		server.WithHealth(mon),
	)
	return &chaosRig{clk: clk, rec: rec, mon: mon, kc: kc, lib: lib, cs: cs, wire: wire, creator: creator}
}

// healthz performs an in-process GET /healthz and decodes the JSON.
func (r *chaosRig) healthz(t *testing.T) (int, health.Snapshot) {
	t.Helper()
	w := httptest.NewRecorder()
	r.cs.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	var snap health.Snapshot
	if err := json.Unmarshal(w.Body.Bytes(), &snap); err != nil {
		t.Fatalf("healthz body %q: %v", w.Body.String(), err)
	}
	return w.Code, snap
}

func (r *chaosRig) xkmsState(snap health.Snapshot) string {
	for _, c := range snap.Components {
		if c.Name == health.ComponentXKMS {
			return c.State
		}
	}
	return ""
}

func hasAuditKind(rec *obs.Recorder, kind string) bool {
	for _, ev := range rec.AuditTrail() {
		if ev.Kind == kind {
			return true
		}
	}
	return false
}

// TestChaosFlappingXKMSConverges is the acceptance scenario: a
// 50%-available flapping trust service. The breaker opens within its
// failure threshold, open-circuit cold fills fail closed with typed
// errors and zero wire attempts, warm library opens keep serving
// degraded+audited, half-open probes restore Healthy within the probe
// budget, and /healthz tracks every phase. MaxStale is 0 (strict
// mode), so a trust outage cannot be papered over by the client's
// stale cache — cold fills must fail closed.
func TestChaosFlappingXKMSConverges(t *testing.T) {
	r := newChaosRig(t, 0)
	ctx := context.Background()
	docA, docB, docC := signedDoc(t, 41), signedDoc(t, 42), signedDoc(t, 43)

	// Phase 1 — healthy: a clean wire, docA verifies and caches.
	vA, st, err := r.lib.OpenDocument(ctx, docA)
	if err != nil || st != library.StatusMiss {
		t.Fatalf("healthy fill: status=%q err=%v", st, err)
	}
	if vA.Fingerprint == "" || len(vA.Result.Signatures) == 0 {
		t.Fatal("healthy fill served without a verified signature")
	}
	if code, snap := r.healthz(t); code != http.StatusOK || snap.Overall != "healthy" {
		t.Fatalf("healthy healthz: code=%d overall=%q", code, snap.Overall)
	}

	// Phase 2 — the flap's down blocks: every wire request resets. The
	// first cold fill burns exactly FailureThreshold wire attempts
	// before the breaker opens and stops the retry loop.
	r.wire.Schedule = faults.Flap(1, 50, 0, faults.Fault{Kind: faults.Reset})
	base := r.rec.Counter("xkms.requests")
	_, _, err = r.lib.OpenDocument(ctx, docB)
	if !errors.Is(err, library.ErrDependencyDown) || !errors.Is(err, resilience.ErrCircuitOpen) {
		t.Fatalf("cold fill during outage = %v; want typed ErrDependencyDown wrapping ErrCircuitOpen", err)
	}
	if got := r.rec.Counter("xkms.requests") - base; got != chaosFailureThreshold {
		t.Errorf("outage fill made %d wire attempts, want exactly %d (no retry amplification)", got, chaosFailureThreshold)
	}

	// Further cold fills fail immediately without touching the wire.
	base = r.rec.Counter("xkms.requests")
	if _, _, err := r.lib.OpenDocument(ctx, docC); !errors.Is(err, library.ErrDependencyDown) {
		t.Fatalf("second cold fill = %v", err)
	}
	if got := r.rec.Counter("xkms.requests") - base; got != 0 {
		t.Errorf("open circuit leaked %d wire attempts", got)
	}

	// Warm opens keep serving — degraded and audited, never unverified.
	vA2, st, err := r.lib.OpenDocument(ctx, docA)
	if err != nil || st != library.StatusHit {
		t.Fatalf("warm open during outage: status=%q err=%v", st, err)
	}
	if vA2.Fingerprint == "" {
		t.Fatal("warm open served unverified bytes")
	}
	if r.rec.Counter("library.degraded_serve") == 0 || !hasAuditKind(r.rec, obs.AuditDegradedServe) {
		t.Error("warm serve under open breaker not audited as degraded")
	}

	if code, snap := r.healthz(t); code != http.StatusServiceUnavailable ||
		snap.Overall != "down" || r.xkmsState(snap) != "down" {
		t.Fatalf("outage healthz: code=%d snap=%+v", code, snap)
	}

	// Phase 3 — the flap's up block: the wire is clean again. Past the
	// open window, one cold fill's two trust round trips are admitted
	// as half-open probes (budget 1, sequential) and close the circuit.
	r.wire.Schedule = nil
	r.clk.Advance(chaosOpenTimeout)
	base = r.rec.Counter("xkms.requests")
	vB, st, err := r.lib.OpenDocument(ctx, docB)
	if err != nil || st != library.StatusMiss {
		t.Fatalf("recovery fill: status=%q err=%v", st, err)
	}
	if vB.Degraded {
		t.Error("verdict filled after recovery still marked degraded")
	}
	if got := r.rec.Counter("xkms.requests") - base; got != chaosSuccessThreshold {
		t.Errorf("recovery made %d wire attempts, want %d probe successes", got, chaosSuccessThreshold)
	}
	if r.kc.Breaker.State() != resilience.StateClosed {
		t.Errorf("breaker after recovery = %v", r.kc.Breaker.State())
	}
	if code, snap := r.healthz(t); code != http.StatusOK || snap.Overall != "healthy" {
		t.Fatalf("recovered healthz: code=%d overall=%q", code, snap.Overall)
	}

	// Every transition was observed.
	if r.rec.Counter("breaker.xkms.open") == 0 || r.rec.Counter("breaker.xkms.half-open") == 0 ||
		r.rec.Counter("breaker.xkms.closed") == 0 {
		t.Error("breaker transition counters incomplete")
	}
	if r.rec.Counter("health.xkms.down") == 0 || r.rec.Counter("health.xkms.healthy") == 0 {
		t.Error("health transition counters incomplete")
	}
	if !hasAuditKind(r.rec, obs.AuditBreakerTransition) || !hasAuditKind(r.rec, obs.AuditHealthChanged) ||
		!hasAuditKind(r.rec, obs.AuditFailClosed) {
		t.Error("missing transition / fail-closed audit events")
	}
}

// TestChaosBrownoutStaleCacheFallback: with MaxStale enabled, a warm
// trust client rides out a browned-out service on its stale cache —
// the breaker opens, resolutions degrade instead of failing, and
// recovery restores both the client and the monitor.
func TestChaosBrownoutStaleCacheFallback(t *testing.T) {
	r := newChaosRig(t, time.Hour)

	// Warm: resolve the signer live so the stale cache has an entry.
	if _, err := r.kc.PublicKeyByName(r.creator.Name); err != nil {
		t.Fatalf("warm resolution: %v", err)
	}
	if r.mon.State(health.ComponentXKMS) != health.Healthy {
		t.Fatalf("state after warm resolution = %v", r.mon.State(health.ComponentXKMS))
	}

	// Brownout: the service sheds every request with 503. The breaker
	// opens; the resolution still succeeds from the stale cache and the
	// degradation propagates to the monitor.
	r.wire.Schedule = faults.Brownout(50, http.StatusServiceUnavailable, 0)
	key, err := r.kc.PublicKeyByName(r.creator.Name)
	if err != nil || key == nil {
		t.Fatalf("brownout resolution with warm cache = %v; want stale-cache success", err)
	}
	if !r.kc.Degraded() {
		t.Fatal("client not degraded after stale-cache fallback")
	}
	if r.mon.State(health.ComponentXKMS) != health.Down {
		t.Errorf("monitor state during brownout = %v, want Down (breaker open)", r.mon.State(health.ComponentXKMS))
	}
	if !hasAuditKind(r.rec, obs.AuditDegradedEnter) {
		t.Error("degraded-trust entry not audited")
	}
	// While open, resolutions keep succeeding degraded with zero wire
	// traffic.
	base := r.rec.Counter("xkms.requests")
	if _, err := r.kc.PublicKeyByName(r.creator.Name); err != nil {
		t.Fatalf("open-circuit resolution = %v", err)
	}
	if got := r.rec.Counter("xkms.requests") - base; got != 0 {
		t.Errorf("open circuit leaked %d wire attempts", got)
	}

	// Recovery: service healthy again, open window elapsed. Probes
	// close the circuit, restore() clears the client's degraded flag,
	// and the OnRestored hook clears the monitor's.
	r.wire.Schedule = nil
	r.clk.Advance(chaosOpenTimeout)
	if _, err := r.kc.PublicKeyByName(r.creator.Name); err != nil {
		t.Fatalf("recovery resolution: %v", err)
	}
	if r.kc.Degraded() {
		t.Error("client still degraded after live answer")
	}
	if r.mon.State(health.ComponentXKMS) != health.Healthy {
		t.Errorf("monitor state after recovery = %v", r.mon.State(health.ComponentXKMS))
	}
	if !hasAuditKind(r.rec, obs.AuditDegradedExit) {
		t.Error("degraded-trust exit not audited")
	}
}

// TestChaosBulkheadIsolatesSlowTrust: with the trust compartment full,
// an additional caller's cancellation surfaces as a terminal bulkhead
// error instead of queueing forever.
func TestChaosBulkheadIsolatesSlowTrust(t *testing.T) {
	r := newChaosRig(t, 0)
	// Fill the compartment directly.
	var releases []func()
	for i := 0; i < r.kc.Bulkhead.Capacity(); i++ {
		rel, ok := r.kc.Bulkhead.TryAcquire()
		if !ok {
			t.Fatal("could not fill trust compartment")
		}
		releases = append(releases, rel)
	}
	// The context is alive when the attempt starts (so the retry layer
	// admits it) and expires while Acquire waits on the full
	// compartment.
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	_, err := r.kc.PublicKeyByNameContext(ctx, r.creator.Name)
	if !errors.Is(err, resilience.ErrBulkheadFull) {
		t.Fatalf("full-compartment resolution = %v; want ErrBulkheadFull", err)
	}
	for _, rel := range releases {
		rel()
	}
	// With slots free again the pipeline works.
	if _, err := r.kc.PublicKeyByName(r.creator.Name); err != nil {
		t.Fatalf("post-release resolution: %v", err)
	}
}
