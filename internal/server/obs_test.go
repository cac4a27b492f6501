package server

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"discsec/internal/obs"
)

// stepClock is a deterministic clock advancing 1ms per read.
type stepClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *stepClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(time.Millisecond)
	return c.t
}

func TestServerRouteMetrics(t *testing.T) {
	rec := obs.NewRecorder()
	clk := &stepClock{t: time.Unix(1700000000, 0)}
	cs := NewContentServer(WithRecorder(rec), WithClock(clk.now))
	cs.PublishDocument("doc.xml", []byte("<d/>"))

	get := func(path string) *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		cs.ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil))
		return w
	}

	get("/doc.xml")
	get("/missing.xml")
	get("/catalog")

	if n := rec.Counter("http.requests.content"); n != 2 {
		t.Errorf("http.requests.content = %d, want 2", n)
	}
	if n := rec.Counter("http.requests.catalog"); n != 1 {
		t.Errorf("http.requests.catalog = %d, want 1", n)
	}
	if n := rec.Counter("http.notfound"); n != 1 {
		t.Errorf("http.notfound = %d, want 1", n)
	}

	hz := get("/healthz")
	if hz.Code != http.StatusOK || !strings.HasPrefix(hz.Body.String(), "ok\n") {
		t.Errorf("/healthz = %d %q", hz.Code, hz.Body.String())
	}

	mz := get("/metricsz")
	if mz.Code != http.StatusOK {
		t.Fatalf("/metricsz = %d", mz.Code)
	}
	body := mz.Body.String()
	for _, want := range []string{
		`discsec_counter{name="http.requests.content"} 2`,
		`discsec_counter{name="http.notfound"} 1`,
		`discsec_stage_count{stage="http.content"} 2`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metricsz missing %q in:\n%s", want, body)
		}
	}
	// Endpoints themselves are not metered routes.
	if n := rec.Counter("http.requests.content"); n != 2 {
		t.Errorf("metricsz/healthz counted as content requests: %d", n)
	}
}

func TestServerShedMetric(t *testing.T) {
	rec := obs.NewRecorder()
	cs := NewContentServer(WithRecorder(rec))
	cs.MaxInFlight = 1
	cs.PublishResource("big.bin", bigPayload, "application/octet-stream")

	bw := newBlockingWriter()
	done := make(chan struct{})
	go func() {
		defer close(done)
		cs.ServeHTTP(bw, httptest.NewRequest(http.MethodGet, "/big.bin", nil))
	}()
	<-bw.started

	w := httptest.NewRecorder()
	cs.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/big.bin", nil))
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("second request = %d, want 503", w.Code)
	}
	if n := rec.Counter("http.shed"); n != 1 {
		t.Errorf("http.shed = %d, want 1", n)
	}
	close(bw.release)
	<-done
	if n := rec.Counter("http.inflight"); n != 0 {
		t.Errorf("http.inflight gauge = %d, want 0 after drain", n)
	}
}
