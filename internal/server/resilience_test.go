package server

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"discsec/internal/faults"
	"discsec/internal/resilience"
)

func fastRetry() *resilience.Policy {
	return &resilience.Policy{BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond}
}

var bigPayload = bytes.Repeat([]byte("interactive-application-bytes."), 100) // 3000 bytes

func publishAndServe(t *testing.T, name string, data []byte) (*ContentServer, *httptest.Server) {
	t.Helper()
	cs := NewContentServer()
	cs.PublishResource(name, data, "application/octet-stream")
	srv := httptest.NewServer(cs)
	t.Cleanup(srv.Close)
	return cs, srv
}

func TestErrTooLargeExactBoundary(t *testing.T) {
	_, srv := publishAndServe(t, "app.bin", bigPayload)

	exact := &Downloader{MaxBytes: int64(len(bigPayload)), Retry: fastRetry()}
	got, err := exact.Fetch(srv.URL, "app.bin")
	if err != nil {
		t.Fatalf("payload == MaxBytes must succeed, got %v", err)
	}
	if !bytes.Equal(got, bigPayload) {
		t.Error("boundary fetch corrupted payload")
	}

	under := &Downloader{MaxBytes: int64(len(bigPayload)) - 1, Retry: fastRetry()}
	if _, err := under.Fetch(srv.URL, "app.bin"); !errors.Is(err, ErrTooLarge) {
		t.Errorf("MaxBytes+1 payload: err = %v, want ErrTooLarge", err)
	}
	if !resilience.IsTerminal(err2(under.Fetch(srv.URL, "app.bin"))) {
		t.Error("ErrTooLarge must be terminal (no retry can shrink the payload)")
	}
}

func err2[T any](_ T, err error) error { return err }

func TestFetchNotFoundTyped(t *testing.T) {
	_, srv := publishAndServe(t, "exists.bin", []byte("x"))
	d := &Downloader{Retry: fastRetry()}
	_, err := d.Fetch(srv.URL, "missing.bin")
	if !errors.Is(err, ErrNotFound) {
		t.Errorf("err = %v, want ErrNotFound", err)
	}
	if !resilience.IsTerminal(err) {
		t.Error("404 must be terminal")
	}
}

func TestFetchErrorIncludesBodySnippet(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "license server rejected region code", http.StatusForbidden)
	}))
	defer srv.Close()
	d := &Downloader{Retry: fastRetry()}
	_, err := d.Fetch(srv.URL, "app.xml")
	if err == nil || !strings.Contains(err.Error(), "license server rejected region code") {
		t.Errorf("error lacks body snippet: %v", err)
	}
	if !resilience.IsTerminal(err) {
		t.Errorf("403 must be terminal: %v", err)
	}
}

func TestFetchErrorBodySnippetBounded(t *testing.T) {
	long := strings.Repeat("x", 4096)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, long, http.StatusBadRequest)
	}))
	defer srv.Close()
	d := &Downloader{Retry: fastRetry()}
	_, err := d.Fetch(srv.URL, "app.xml")
	if err == nil || len(err.Error()) > 1024 {
		t.Errorf("snippet unbounded: %d bytes", len(err.Error()))
	}
}

func TestFetchRecovers5xxBurst(t *testing.T) {
	_, srv := publishAndServe(t, "app.bin", bigPayload)
	var attempts atomic.Int64
	d := &Downloader{
		Retry: fastRetry(),
		HTTPClient: &http.Client{Timeout: 5 * time.Second, Transport: &countingTransport{
			count: &attempts,
			inner: &faults.Transport{Schedule: faults.NewSchedule(
				faults.Fault{Kind: faults.Status, Code: 503},
				faults.Fault{Kind: faults.Status, Code: 502},
			)},
		}},
	}
	got, err := d.FetchContext(context.Background(), srv.URL, "app.bin")
	if err != nil {
		t.Fatalf("burst not recovered: %v", err)
	}
	if !bytes.Equal(got, bigPayload) {
		t.Error("payload corrupted")
	}
	if attempts.Load() != 3 {
		t.Errorf("attempts = %d, want 3", attempts.Load())
	}
}

type countingTransport struct {
	count *atomic.Int64
	inner http.RoundTripper
}

func (c *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	c.count.Add(1)
	return c.inner.RoundTrip(r)
}

func TestFetchHonorsRetryAfter(t *testing.T) {
	_, srv := publishAndServe(t, "app.bin", bigPayload)
	ctx, cancel := context.WithCancel(context.Background())
	var floor time.Duration
	policy := fastRetry()
	policy.OnRetry = func(attempt int, err error, backoff time.Duration) {
		floor = backoff
		cancel() // observed; no need to actually wait out the server's ask
	}
	d := &Downloader{
		Retry: policy,
		HTTPClient: &http.Client{Timeout: 5 * time.Second, Transport: &faults.Transport{
			Schedule: faults.NewSchedule(faults.Fault{Kind: faults.Status, Code: 503, RetryAfter: 7 * time.Second}),
		}},
	}
	_, err := d.FetchContext(ctx, srv.URL, "app.bin")
	if floor < 7*time.Second {
		t.Errorf("backoff %v ignores Retry-After: 7", floor)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v", err)
	}
}

func TestFetchResumesTruncatedTransfer(t *testing.T) {
	cs := NewContentServer()
	cs.PublishResource("movie.bin", bigPayload, "application/octet-stream")
	var ranges []string
	var mu sync.Mutex
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		ranges = append(ranges, r.Header.Get("Range"))
		mu.Unlock()
		cs.ServeHTTP(w, r)
	}))
	defer srv.Close()

	d := &Downloader{
		Retry: fastRetry(),
		HTTPClient: &http.Client{Timeout: 5 * time.Second, Transport: &faults.Transport{
			Schedule: faults.NewSchedule(faults.Fault{Kind: faults.Truncate, Bytes: 1200}),
		}},
	}
	got, err := d.FetchContext(context.Background(), srv.URL, "movie.bin")
	if err != nil {
		t.Fatalf("truncated transfer not recovered: %v", err)
	}
	if !bytes.Equal(got, bigPayload) {
		t.Fatal("resumed payload corrupted")
	}
	mu.Lock()
	defer mu.Unlock()
	if len(ranges) != 2 || ranges[0] != "" || ranges[1] != "bytes=1200-" {
		t.Errorf("expected a resume from byte 1200, got ranges %q", ranges)
	}
}

func TestFetchResumeReverifyCatchesSplicedTail(t *testing.T) {
	correct := bigPayload
	sum := sha256.Sum256(correct)
	etag := `"` + hex.EncodeToString(sum[:]) + `"`
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("ETag", etag)
		w.Header().Set("Accept-Ranges", "bytes")
		if r.Header.Get("Range") == "" {
			w.Header().Set("Content-Length", fmt.Sprint(len(correct)))
			w.Write(correct)
			return
		}
		// A lying origin: the resumed tail is different content under
		// the same validator.
		tail := bytes.Repeat([]byte("!"), len(correct)-1200)
		w.Header().Set("Content-Range", fmt.Sprintf("bytes 1200-%d/%d", len(correct)-1, len(correct)))
		w.Header().Set("Content-Length", fmt.Sprint(len(tail)))
		w.WriteHeader(http.StatusPartialContent)
		w.Write(tail)
	}))
	defer srv.Close()

	var sawReverifyFailure bool
	policy := fastRetry()
	policy.OnRetry = func(attempt int, err error, backoff time.Duration) {
		if errors.Is(err, ErrResumeVerify) {
			sawReverifyFailure = true
		}
	}
	d := &Downloader{
		Retry: policy,
		HTTPClient: &http.Client{Timeout: 5 * time.Second, Transport: &faults.Transport{
			Schedule: faults.NewSchedule(faults.Fault{Kind: faults.Truncate, Bytes: 1200}),
		}},
	}
	got, err := d.FetchContext(context.Background(), srv.URL, "movie.bin")
	if err != nil {
		t.Fatalf("fetch failed: %v", err)
	}
	if !bytes.Equal(got, correct) {
		t.Fatal("spliced bytes were returned to the caller")
	}
	if !sawReverifyFailure {
		t.Error("re-verification never rejected the spliced tail")
	}
}

func TestFetchContextCancelMidRetry(t *testing.T) {
	_, srv := publishAndServe(t, "app.bin", bigPayload)
	d := &Downloader{
		Retry: &resilience.Policy{MaxAttempts: 10, BaseDelay: 200 * time.Millisecond, MaxDelay: time.Second},
		HTTPClient: &http.Client{Timeout: 5 * time.Second, Transport: &faults.Transport{
			Schedule: faults.NewSchedule(
				faults.Fault{Kind: faults.Reset}, faults.Fault{Kind: faults.Reset},
				faults.Fault{Kind: faults.Reset}, faults.Fault{Kind: faults.Reset},
				faults.Fault{Kind: faults.Reset}, faults.Fault{Kind: faults.Reset},
			),
		}},
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := d.FetchContext(ctx, srv.URL, "app.bin")
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("cancellation ignored for %v", elapsed)
	}
}

func TestHeadAndRangeSupport(t *testing.T) {
	_, srv := publishAndServe(t, "clip.bin", bigPayload)

	resp, err := http.DefaultClient.Head(srv.URL + "/clip.bin")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || resp.Header.Get("ETag") == "" {
		t.Errorf("HEAD: status %d, ETag %q", resp.StatusCode, resp.Header.Get("ETag"))
	}
	if resp.ContentLength != int64(len(bigPayload)) {
		t.Errorf("HEAD Content-Length = %d", resp.ContentLength)
	}

	req, _ := http.NewRequest(http.MethodGet, srv.URL+"/clip.bin", nil)
	req.Header.Set("Range", "bytes=10-19")
	rresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer rresp.Body.Close()
	if rresp.StatusCode != http.StatusPartialContent {
		t.Fatalf("Range status = %d", rresp.StatusCode)
	}
	b, _ := io.ReadAll(rresp.Body)
	if !bytes.Equal(b, bigPayload[10:20]) {
		t.Errorf("range body = %q", b)
	}
}

// blockingWriter lets a test hold one request in flight
// deterministically: the handler's first Write parks until released.
type blockingWriter struct {
	header  http.Header
	started chan struct{}
	release chan struct{}
	once    sync.Once
}

func newBlockingWriter() *blockingWriter {
	return &blockingWriter{header: make(http.Header), started: make(chan struct{}), release: make(chan struct{})}
}

func (w *blockingWriter) Header() http.Header { return w.header }
func (w *blockingWriter) WriteHeader(int)     {}
func (w *blockingWriter) Write(p []byte) (int, error) {
	w.once.Do(func() { close(w.started) })
	<-w.release
	return len(p), nil
}

func TestInFlightLimitShedsWithRetryAfter(t *testing.T) {
	cs := NewContentServer()
	cs.MaxInFlight = 1
	cs.RetryAfter = 3 * time.Second
	cs.PublishResource("big.bin", bigPayload, "application/octet-stream")

	bw := newBlockingWriter()
	done := make(chan struct{})
	go func() {
		defer close(done)
		cs.ServeHTTP(bw, httptest.NewRequest(http.MethodGet, "/big.bin", nil))
	}()
	<-bw.started

	rec := httptest.NewRecorder()
	cs.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/big.bin", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Errorf("second request status = %d, want 503", rec.Code)
	}
	if got := rec.Result().Header.Get("Retry-After"); got != "3" {
		t.Errorf("Retry-After = %q, want 3", got)
	}
	if cs.Shed() != 1 {
		t.Errorf("Shed() = %d", cs.Shed())
	}

	close(bw.release)
	<-done
	rec2 := httptest.NewRecorder()
	cs.ServeHTTP(rec2, httptest.NewRequest(http.MethodGet, "/big.bin", nil))
	if rec2.Code != http.StatusOK {
		t.Errorf("after release status = %d", rec2.Code)
	}
}

func TestDownloaderRetriesShedServer(t *testing.T) {
	// A shed 503 + Retry-After is transient: the Downloader backs off
	// and the next attempt succeeds once capacity frees up.
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) == 1 {
			w.Header().Set("Retry-After", "0")
			http.Error(w, "content server over capacity", http.StatusServiceUnavailable)
			return
		}
		w.Write(bigPayload)
	}))
	defer srv.Close()
	d := &Downloader{Retry: fastRetry()}
	got, err := d.FetchContext(context.Background(), srv.URL, "big.bin")
	if err != nil || !bytes.Equal(got, bigPayload) {
		t.Fatalf("fetch after shed = %d bytes, %v", len(got), err)
	}
}

func TestGracefulShutdown(t *testing.T) {
	cs := NewContentServer()
	cs.ShutdownTimeout = 2 * time.Second
	cs.PublishDocument("doc.xml", []byte("<d/>"))
	base, shutdown, err := cs.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	d := &Downloader{Retry: fastRetry()}
	if _, err := d.Fetch(base, "doc.xml"); err != nil {
		t.Fatalf("pre-shutdown fetch: %v", err)
	}
	if err := shutdown(); err != nil {
		t.Fatalf("graceful shutdown: %v", err)
	}
	if _, err := d.Fetch(base, "doc.xml"); err == nil {
		t.Error("fetch succeeded after shutdown")
	}
}

func TestConcurrentPublishUnpublishFetch(t *testing.T) {
	cs := NewContentServer()
	cs.PublishResource("stable.bin", bigPayload, "application/octet-stream")
	srv := httptest.NewServer(cs)
	defer srv.Close()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(3)
		go func(g int) { // publishers/unpublishers churn the catalog
			defer wg.Done()
			name := fmt.Sprintf("churn-%d.bin", g)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				cs.PublishResource(name, []byte{byte(i)}, "application/octet-stream")
				cs.Unpublish(name)
			}
		}(g)
		go func() { // fetchers hammer the stable entry
			defer wg.Done()
			d := &Downloader{Retry: fastRetry()}
			for {
				select {
				case <-stop:
					return
				default:
				}
				b, err := d.Fetch(srv.URL, "stable.bin")
				if err != nil || !bytes.Equal(b, bigPayload) {
					t.Errorf("concurrent fetch = %d bytes, %v", len(b), err)
					return
				}
			}
		}()
		go func() { // readers poll the counters and catalog
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				cs.Catalog()
				cs.Downloads()
				cs.Shed()
			}
		}()
	}
	time.Sleep(150 * time.Millisecond)
	close(stop)
	wg.Wait()
	if cs.Downloads() == 0 {
		t.Error("no downloads recorded under concurrency")
	}
}
