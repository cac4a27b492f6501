package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"discsec/internal/health"
	"discsec/internal/library"
	"discsec/internal/obs"
	"discsec/internal/resilience"
)

func TestHealthzJSONWithMonitor(t *testing.T) {
	mon := health.New()
	mon.Register(health.ComponentXKMS)
	cs := NewContentServer(WithHealth(mon))

	get := func() (*httptest.ResponseRecorder, health.Snapshot) {
		w := httptest.NewRecorder()
		cs.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/healthz", nil))
		var snap health.Snapshot
		if err := json.Unmarshal(w.Body.Bytes(), &snap); err != nil {
			t.Fatalf("healthz body %q: %v", w.Body.String(), err)
		}
		return w, snap
	}

	w, snap := get()
	if w.Code != http.StatusOK || snap.Overall != "healthy" {
		t.Fatalf("healthy: code=%d snap=%+v", w.Code, snap)
	}
	if ct := w.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q", ct)
	}

	// A Degraded component stays routable (200) — only Down is not.
	mon.SetDegraded(health.ComponentXKMS, true, "stale cache")
	if w, snap := get(); w.Code != http.StatusOK || snap.Overall != "degraded" {
		t.Fatalf("degraded: code=%d overall=%q", w.Code, snap.Overall)
	}
	mon.SetDegraded(health.ComponentXKMS, false, "")

	boom := errors.New("probe refused")
	for i := 0; i < 3; i++ {
		mon.ReportProbe(health.ComponentXKMS, boom)
	}
	w, snap = get()
	if w.Code != http.StatusServiceUnavailable || snap.Overall != "down" {
		t.Fatalf("down: code=%d overall=%q", w.Code, snap.Overall)
	}
	if len(snap.Components) != 1 || snap.Components[0].State != "down" || snap.Components[0].Cause == "" {
		t.Errorf("components = %+v", snap.Components)
	}
}

// TestShutdownFlipsHealthzBeforeListenerStops pins the drain ordering:
// the moment shutdown starts, /healthz must answer 503 while the
// listener is still accepting — the drainHook fires between the flip
// and srv.Shutdown, and performs a real over-the-wire health check.
func TestShutdownFlipsHealthzBeforeListenerStops(t *testing.T) {
	cs := NewContentServer()
	cs.ShutdownTimeout = 5 * time.Second
	base, shutdown, err := cs.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	// Healthy while serving.
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pre-drain healthz = %d", resp.StatusCode)
	}

	checked := false
	cs.drainHook = func() {
		// The listener has not been told to stop yet: a live request
		// must get through and see the draining state.
		resp, err := http.Get(base + "/healthz")
		if err != nil {
			t.Errorf("healthz unreachable during drain window: %v", err)
			return
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("healthz during drain window = %d, want 503", resp.StatusCode)
		}
		checked = true
	}
	if err := shutdown(); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if !checked {
		t.Fatal("drain ordering hook never ran")
	}
}

// TestShutdownDrainWithHealthMonitor: the JSON form reports
// "draining" with 503 once shutdown begins, regardless of component
// health.
func TestShutdownDrainWithHealthMonitor(t *testing.T) {
	mon := health.New()
	mon.Register(health.ComponentXKMS)
	cs := NewContentServer(WithHealth(mon))
	cs.draining.Store(true)
	w := httptest.NewRecorder()
	cs.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz = %d", w.Code)
	}
	var snap health.Snapshot
	if err := json.Unmarshal(w.Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Overall != "draining" {
		t.Errorf("overall = %q, want draining", snap.Overall)
	}
}

func TestLibraryErrorDependencyDownMaps503(t *testing.T) {
	rec := obs.NewRecorder()
	cs := NewContentServer(WithRecorder(rec))
	w := httptest.NewRecorder()
	err := fmt.Errorf("library: verification: %w: %w", library.ErrDependencyDown,
		fmt.Errorf("%w: xkms", resilience.ErrCircuitOpen))
	cs.libraryError(w, httptest.NewRequest(http.MethodGet, "/library/d/t", nil), err)
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("dependency-down status = %d, want 503", w.Code)
	}
	if w.Header().Get("Retry-After") == "" {
		t.Error("dependency-down response missing Retry-After")
	}
	if rec.Counter("http.library.dependency_down") != 1 {
		t.Error("dependency-down not counted")
	}
}

// TestDownloaderBreakerStopsRetries: a dead origin opens the
// downloader's breaker within its failure threshold, later fetches
// fail immediately with ErrCircuitOpen and zero wire attempts, and
// recovery admits probes again.
func TestDownloaderBreakerStopsRetries(t *testing.T) {
	now := time.Unix(1700000000, 0)
	clock := func() time.Time { return now }
	rec := obs.NewRecorder()
	d := &Downloader{
		HTTPClient: &http.Client{Timeout: time.Second},
		Retry:      &resilience.Policy{MaxAttempts: 5, Jitter: func() float64 { return 0 }},
		Breaker: &resilience.Breaker{
			Name:             "origin",
			FailureThreshold: 2,
			SuccessThreshold: 1,
			OpenTimeout:      time.Minute,
			Clock:            func() time.Time { return clock() },
		},
		Recorder: rec,
	}
	// An unroutable origin: every attempt fails transiently.
	_, err := d.FetchContext(context.Background(), "http://127.0.0.1:1", "x")
	if err == nil {
		t.Fatal("fetch from dead origin succeeded")
	}
	if got := rec.Counter("download.attempts"); got != 2 {
		t.Errorf("dead origin saw %d attempts, want 2 (breaker threshold)", got)
	}
	if !errors.Is(err, resilience.ErrCircuitOpen) {
		t.Errorf("final error = %v; want the open-circuit rejection", err)
	}

	// While open: no wire attempts at all.
	_, err = d.FetchContext(context.Background(), "http://127.0.0.1:1", "x")
	if !errors.Is(err, resilience.ErrCircuitOpen) {
		t.Fatalf("open-circuit fetch = %v", err)
	}
	if got := rec.Counter("download.attempts"); got != 2 {
		t.Errorf("open circuit leaked wire attempts: %d total", got)
	}

	// Past the window, a live origin closes the circuit again.
	cs := NewContentServer()
	cs.PublishDocument("doc.xml", []byte("<d/>"))
	srv := httptest.NewServer(cs)
	defer srv.Close()
	now = now.Add(time.Minute)
	b, err := d.FetchContext(context.Background(), srv.URL, "doc.xml")
	if err != nil || string(b) != "<d/>" {
		t.Fatalf("post-recovery fetch: %q %v", b, err)
	}
	if d.Breaker.State() != resilience.StateClosed {
		t.Errorf("breaker state after recovery = %v", d.Breaker.State())
	}
}
