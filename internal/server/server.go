// Package server implements the content-server half of the paper's §1
// and §5.1 usage model: movie companies and independent vendors host
// packaged interactive applications (bonus materials, clips, application
// extensions) that connected players download over broadband and
// authenticate before execution. Downloads are served over HTTP or TLS
// (the paper's §7 notes SSL/TLS for transport secrecy; content trust
// still comes from the XML signatures inside).
//
// Both halves are built for unreliable consumer links: the server
// supports HEAD and Range requests (resume), sheds load with
// 503 + Retry-After past its in-flight limit, and shuts down
// gracefully; the Downloader retries transient failures with
// exponential backoff, honors Retry-After, resumes truncated
// transfers (re-verifying the assembled bytes against the server's
// content hash), and fails closed on anything it cannot classify.
package server

import (
	"bytes"
	"context"
	"crypto/sha256"
	"crypto/tls"
	"crypto/x509"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"discsec/internal/disc"
	"discsec/internal/health"
	"discsec/internal/library"
	"discsec/internal/obs"
	"discsec/internal/resilience"
)

// ContentServer hosts packaged applications and disc images.
type ContentServer struct {
	mu      sync.RWMutex
	catalog map[string]*entry

	download atomic.Int64
	inflight atomic.Int64
	shed     atomic.Int64

	// MaxInFlight bounds concurrently served content requests; past
	// it the server sheds load with 503 + Retry-After. 0 means
	// unlimited. Set before serving traffic.
	MaxInFlight int64
	// RetryAfter is advertised on shed requests; 0 means 1s.
	RetryAfter time.Duration
	// ShutdownTimeout bounds graceful drain on shutdown; 0 means 5s.
	ShutdownTimeout time.Duration

	// recorder receives per-route counts, latencies, in-flight, and
	// shed metrics, and backs the /metricsz endpoint. Set with
	// WithRecorder; nil serves an empty /metricsz and records nothing.
	recorder *obs.Recorder
	// clock overrides time.Now for latency measurement (tests).
	clock func() time.Time
	// library, when set, backs the /library/ routes with verified
	// tracks from mounted discs (WithLibrary).
	library *library.Library
	// health, when set, turns /healthz into a per-component JSON body
	// (WithHealth); non-200 when any component is Down.
	health *health.Monitor
	// draining flips true the moment graceful shutdown starts — before
	// the listener stops accepting — so /healthz turns non-200 and load
	// balancers stop routing while in-flight requests still drain.
	draining atomic.Bool
	// drainHook, when set, runs after draining flips and before the
	// listener shuts down (tests pin the ordering through it).
	drainHook func()
	// cluster, when set, handles the /cluster/* routes — the node's
	// half of the distributed verification tier (WithClusterOrigin /
	// WithClusterEdge).
	cluster http.Handler
	// clusterRole is the node's cluster role ("origin" or "edge"),
	// reported by /healthz so fleet orchestration can tell the tiers
	// apart.
	clusterRole string
}

// Option configures a ContentServer built by NewContentServer.
type Option func(*ContentServer)

// WithRecorder installs the observability recorder behind /metricsz
// and the per-route request metrics.
func WithRecorder(rec *obs.Recorder) Option {
	return func(cs *ContentServer) { cs.recorder = rec }
}

// WithClock overrides the latency clock (tests).
func WithClock(now func() time.Time) Option {
	return func(cs *ContentServer) {
		if now != nil {
			cs.clock = now
		}
	}
}

// WithHealth attaches the dependency-health monitor: /healthz then
// serves its per-component snapshot as JSON, returning 503 whenever
// any component is Down (or the server is draining).
func WithHealth(m *health.Monitor) Option {
	return func(cs *ContentServer) { cs.health = m }
}

// entry is immutable once published: publish installs a fresh pointer
// with its own data copy and precomputed strong ETag, so handlers can
// serve from a snapshot without holding any lock.
type entry struct {
	data        []byte
	contentType string
	etag        string
}

// NewContentServer creates an empty server, configured by functional
// options.
func NewContentServer(opts ...Option) *ContentServer {
	cs := &ContentServer{catalog: make(map[string]*entry), clock: time.Now}
	for _, o := range opts {
		o(cs)
	}
	return cs
}

func (cs *ContentServer) now() time.Time {
	if cs.clock != nil {
		return cs.clock()
	}
	return time.Now()
}

// PublishDocument hosts a protected cluster/manifest document under the
// given name.
func (cs *ContentServer) PublishDocument(name string, doc []byte) {
	cs.publish(name, doc, "application/xml")
}

// PublishImage hosts a packed disc image under the given name.
func (cs *ContentServer) PublishImage(name string, im *disc.Image) {
	cs.publish(name, im.Bytes(), "application/octet-stream")
}

// PublishResource hosts an arbitrary resource (bonus clip, extension).
func (cs *ContentServer) PublishResource(name string, data []byte, contentType string) {
	cs.publish(name, data, contentType)
}

func (cs *ContentServer) publish(name string, data []byte, ct string) {
	copied := append([]byte(nil), data...)
	contentHash := sha256.Sum256(copied)
	e := &entry{
		data:        copied,
		contentType: ct,
		etag:        `"` + hex.EncodeToString(contentHash[:]) + `"`,
	}
	cs.mu.Lock()
	defer cs.mu.Unlock()
	cs.catalog[strings.TrimPrefix(name, "/")] = e
}

// Unpublish removes an item, reporting whether it existed.
func (cs *ContentServer) Unpublish(name string) bool {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	name = strings.TrimPrefix(name, "/")
	_, ok := cs.catalog[name]
	delete(cs.catalog, name)
	return ok
}

// Catalog lists published names, sorted.
func (cs *ContentServer) Catalog() []string {
	cs.mu.RLock()
	defer cs.mu.RUnlock()
	out := make([]string, 0, len(cs.catalog))
	for n := range cs.catalog {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Downloads reports the number of served content requests.
func (cs *ContentServer) Downloads() int64 { return cs.download.Load() }

// Shed reports the number of requests refused by the in-flight limit.
func (cs *ContentServer) Shed() int64 { return cs.shed.Load() }

// lookup snapshots an entry under the read lock; the entry itself is
// immutable, so the caller can serve it lock-free afterwards.
func (cs *ContentServer) lookup(name string) (*entry, bool) {
	cs.mu.RLock()
	defer cs.mu.RUnlock()
	e, ok := cs.catalog[name]
	return e, ok
}

// observeRoute records one finished request on a route: a request
// counter plus a latency observation under the http.<route> stage.
func (cs *ContentServer) observeRoute(route string, start time.Time) {
	cs.recorder.Inc("http.requests." + route)
	cs.recorder.Observe("http."+route, cs.now().Sub(start))
}

// acquireSlot admits one request under the MaxInFlight limit, writing
// the 503 + Retry-After shed response itself when over capacity. The
// returned release must be called (admitted == true) when the request
// finishes; with no limit configured it is a no-op.
func (cs *ContentServer) acquireSlot(w http.ResponseWriter) (release func(), admitted bool) {
	limit := cs.MaxInFlight
	if limit <= 0 {
		return func() {}, true
	}
	if cs.inflight.Add(1) > limit {
		cs.inflight.Add(-1)
		cs.shed.Add(1)
		cs.recorder.Inc("http.shed")
		retryAfter := cs.RetryAfter
		if retryAfter <= 0 {
			retryAfter = time.Second
		}
		w.Header().Set("Retry-After", strconv.FormatInt(int64((retryAfter+time.Second-1)/time.Second), 10))
		http.Error(w, "content server over capacity", http.StatusServiceUnavailable)
		return nil, false
	}
	cs.recorder.Inc("http.inflight")
	return func() {
		cs.inflight.Add(-1)
		cs.recorder.Add("http.inflight", -1)
	}, true
}

// ServeHTTP implements http.Handler: GET/HEAD /<name> returns the
// published item (with ETag and Range support for resume); GET
// /catalog returns a text listing; GET /metricsz and /healthz expose
// the observability recorder and liveness counters; POST /verify
// streams the request body through the verification library and
// returns the verdict as JSON.
func (cs *ContentServer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	name := strings.TrimPrefix(r.URL.Path, "/")
	if cs.cluster != nil && strings.HasPrefix(name, "cluster/") {
		// Cluster wire routes mix GET and POST; the role handler owns
		// its own method dispatch.
		defer cs.observeRoute("cluster", cs.now())
		release, admitted := cs.acquireSlot(w)
		if !admitted {
			return
		}
		defer release()
		cs.cluster.ServeHTTP(w, r)
		return
	}
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		if r.Method == http.MethodPost && name == "verify" {
			defer cs.observeRoute("verify", cs.now())
			release, admitted := cs.acquireSlot(w)
			if !admitted {
				return
			}
			defer release()
			cs.serveVerify(w, r)
			return
		}
		cs.recorder.Inc("http.badmethod")
		http.Error(w, "content server accepts GET and HEAD only (and POST /verify)", http.StatusMethodNotAllowed)
		return
	}
	switch name {
	case "metricsz":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		cs.recorder.Snapshot().WriteMetrics(w)
		return
	case "healthz":
		cs.serveHealthz(w)
		return
	case "catalog":
		defer cs.observeRoute("catalog", cs.now())
		w.Header().Set("Content-Type", "text/plain")
		for _, n := range cs.Catalog() {
			fmt.Fprintln(w, n)
		}
		return
	}

	if rest, isLibrary := strings.CutPrefix(name, "library/"); isLibrary || name == "library" {
		defer cs.observeRoute("library", cs.now())
		release, admitted := cs.acquireSlot(w)
		if !admitted {
			return
		}
		defer release()
		cs.serveLibrary(w, r, rest)
		return
	}

	defer cs.observeRoute("content", cs.now())
	release, admitted := cs.acquireSlot(w)
	if !admitted {
		return
	}
	defer release()

	e, ok := cs.lookup(name)
	if !ok {
		cs.recorder.Inc("http.notfound")
		http.NotFound(w, r)
		return
	}
	if r.Method == http.MethodGet {
		cs.download.Add(1)
	}
	w.Header().Set("Content-Type", e.contentType)
	w.Header().Set("ETag", e.etag)
	// ServeContent supplies Accept-Ranges, Range/If-Range handling,
	// and HEAD semantics; the zero modtime suppresses Last-Modified
	// so the strong ETag is the only validator.
	http.ServeContent(w, r, "", time.Time{}, bytes.NewReader(e.data))
}

// serveHealthz reports liveness. With a health monitor attached the
// body is the per-component JSON snapshot (503 when any component is
// Down); without one it is the legacy counter text. A draining server
// answers 503 in either form so load balancers stop routing before
// the listener closes.
func (cs *ContentServer) serveHealthz(w http.ResponseWriter) {
	if cs.health != nil {
		snap := cs.health.Snapshot()
		snap.Role = cs.clusterRole
		status := http.StatusOK
		if cs.draining.Load() {
			snap.Overall = "draining"
			status = http.StatusServiceUnavailable
		} else if snap.Overall == health.Down.String() {
			status = http.StatusServiceUnavailable
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(status)
		json.NewEncoder(w).Encode(snap) //nolint:errcheck // best-effort health body
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if cs.draining.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
		return
	}
	fmt.Fprintf(w, "ok\ncatalog %d\ninflight %d\nshed %d\ndownloads %d\n",
		len(cs.Catalog()), cs.inflight.Load(), cs.shed.Load(), cs.download.Load())
	if cs.clusterRole != "" {
		fmt.Fprintf(w, "role %s\n", cs.clusterRole)
	}
}

// serve starts srv on ln and returns the base URL plus a shutdown
// function that drains in-flight requests up to ShutdownTimeout
// before forcing connections closed.
func (cs *ContentServer) serve(scheme string, ln net.Listener, srv *http.Server) (string, func() error) {
	//discvet:ignore goroutineleak Serve returns when the shutdown func below calls srv.Shutdown/Close, which closes ln
	go srv.Serve(ln) //nolint:errcheck // shutdown path returns ErrServerClosed
	shutdown := func() error {
		// Flip /healthz to draining/503 strictly before the listener
		// stops accepting: load balancers see the failing health check
		// and stop routing while in-flight requests still drain.
		cs.draining.Store(true)
		if cs.drainHook != nil {
			cs.drainHook()
		}
		timeout := cs.ShutdownTimeout
		if timeout <= 0 {
			timeout = 5 * time.Second
		}
		ctx, cancel := context.WithTimeout(context.Background(), timeout)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			// Drain deadline expired: fall back to a hard close so
			// the caller is never left with a wedged listener.
			return errors.Join(err, srv.Close())
		}
		return nil
	}
	return scheme + "://" + ln.Addr().String(), shutdown
}

// Serve starts the server on the given address, returning its base URL
// and a graceful-shutdown function.
func (cs *ContentServer) Serve(addr string) (string, func() error, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: cs, ReadHeaderTimeout: 5 * time.Second}
	base, shutdown := cs.serve("http", ln, srv)
	return base, shutdown, nil
}

// ServeTLS starts the server over TLS with the given certificate (the
// paper's §7: "SSL/TLS mechanisms could be used for mutual
// authentication and secrecy between server and the player"). Content
// trust still comes from the XML signatures inside the payloads.
func (cs *ContentServer) ServeTLS(addr string, cert tls.Certificate) (string, func() error, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{
		Handler:           cs,
		ReadHeaderTimeout: 5 * time.Second,
		TLSConfig:         &tls.Config{Certificates: []tls.Certificate{cert}, MinVersion: tls.VersionTLS12},
	}
	tlsLn := tls.NewListener(ln, srv.TLSConfig)
	base, shutdown := cs.serve("https", tlsLn, srv)
	return base, shutdown, nil
}

// NewTLSDownloader builds a Downloader whose client trusts the given
// root pool for server authentication.
func NewTLSDownloader(roots *x509.CertPool) *Downloader {
	return &Downloader{HTTPClient: &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			TLSClientConfig: &tls.Config{RootCAs: roots, MinVersion: tls.VersionTLS12},
		},
	}}
}

// Downloader fetches published content for the player.
type Downloader struct {
	// HTTPClient defaults to a client with a 30s timeout.
	HTTPClient *http.Client
	// MaxBytes bounds a download; 0 means 64 MiB.
	MaxBytes int64
	// Retry governs transient-failure handling; nil uses the
	// resilience defaults (4 attempts, 100ms base full-jitter
	// backoff).
	Retry *resilience.Policy
	// Breaker, if set, guards the origin: while open, attempts fail
	// immediately with a terminal ErrCircuitOpen (which also stops the
	// Retry loop) instead of timing out against a dead origin.
	Breaker *resilience.Breaker
	// Bulkhead, if set, caps concurrent wire fetches so a slow origin
	// saturates its own compartment, not every caller.
	Bulkhead *resilience.Bulkhead
	// Recorder receives download spans and retry/resume counters; nil
	// records nothing.
	Recorder *obs.Recorder
}

// Downloader errors, matchable through the retry layer with errors.Is.
var (
	// ErrTooLarge indicates the download exceeded MaxBytes.
	ErrTooLarge = errors.New("server: download exceeds size limit")
	// ErrNotFound indicates the server has no such item (HTTP 404).
	ErrNotFound = errors.New("server: content not found")
	// ErrResumeVerify indicates a resumed download failed
	// re-verification against the server's content hash.
	ErrResumeVerify = errors.New("server: resumed download failed re-verification")
)

func (d *Downloader) client() *http.Client {
	if d.HTTPClient != nil {
		return d.HTTPClient
	}
	return &http.Client{Timeout: 30 * time.Second}
}

func (d *Downloader) retry() *resilience.Policy {
	if d.Retry != nil {
		return d.Retry
	}
	return &resilience.Policy{}
}

func (d *Downloader) limit() int64 {
	if d.MaxBytes > 0 {
		return d.MaxBytes
	}
	return 64 << 20
}

// Fetch downloads a named item from the base URL. It is FetchContext
// without cancellation.
func (d *Downloader) Fetch(baseURL, name string) ([]byte, error) {
	return d.FetchContext(context.Background(), baseURL, name)
}

// FetchContext downloads a named item, retrying transient failures
// under the Retry policy until ctx is done. Truncated transfers
// resume from the last received byte when the server advertises
// Range support with a strong ETag; resumed payloads are re-verified
// against the ETag's content hash before being returned.
func (d *Downloader) FetchContext(ctx context.Context, baseURL, name string) ([]byte, error) {
	defer d.Recorder.Start(obs.StageDownload).End()
	url := strings.TrimSuffix(baseURL, "/") + "/" + strings.TrimPrefix(name, "/")
	st := &fetchState{}
	attempts := 0
	err := d.retry().Do(ctx, func(ctx context.Context) error {
		release, aerr := d.Bulkhead.Acquire(ctx)
		if aerr != nil {
			d.Recorder.Inc("download.bulkhead_rejected")
			return aerr
		}
		defer release()
		return d.Breaker.Do(ctx, func(ctx context.Context) error {
			attempts++
			d.Recorder.Inc("download.attempts")
			if attempts > 1 {
				d.Recorder.Inc("download.retries")
			}
			return d.fetchOnce(ctx, url, st)
		})
	})
	if err != nil {
		d.Recorder.Inc("download.err")
		return nil, err
	}
	if st.resumed {
		d.Recorder.Inc("download.resumed")
	}
	d.Recorder.Inc("download.ok")
	return st.buf, nil
}

// fetchState carries partial-transfer progress across retry attempts.
type fetchState struct {
	buf     []byte
	etag    string
	resumed bool
	// canResume is set when the origin advertised byte ranges and a
	// strong validator, the preconditions for a safe resume.
	canResume bool
}

func (st *fetchState) reset() {
	st.buf, st.etag, st.resumed, st.canResume = nil, "", false, false
}

func (d *Downloader) fetchOnce(ctx context.Context, url string, st *fetchState) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return resilience.Terminal(fmt.Errorf("server: building request for %s: %w", url, err))
	}
	resuming := st.canResume && len(st.buf) > 0 && st.etag != ""
	if resuming {
		req.Header.Set("Range", fmt.Sprintf("bytes=%d-", len(st.buf)))
		// If-Range makes the resume conditional: a changed entity
		// comes back as a full 200 instead of a mismatched tail.
		req.Header.Set("If-Range", st.etag)
	}

	resp, err := d.client().Do(req)
	if err != nil {
		return fmt.Errorf("server: GET %s: %w", url, err)
	}
	defer resp.Body.Close()

	switch {
	case resp.StatusCode == http.StatusOK:
		// Full entity (fresh download, or the resume condition
		// failed): restart assembly from scratch.
		st.reset()
		st.etag = resp.Header.Get("ETag")
		st.canResume = st.etag != "" && !strings.HasPrefix(st.etag, "W/") &&
			strings.Contains(resp.Header.Get("Accept-Ranges"), "bytes")
	case resp.StatusCode == http.StatusPartialContent && resuming:
		if et := resp.Header.Get("ETag"); et != "" && et != st.etag {
			st.reset()
			return resilience.Transient(fmt.Errorf("server: GET %s: entity changed during resume (%w)", url, ErrResumeVerify))
		}
		start, perr := parseContentRangeStart(resp.Header.Get("Content-Range"))
		if perr != nil || start != int64(len(st.buf)) {
			st.reset()
			return resilience.Transient(fmt.Errorf("server: GET %s: unusable Content-Range %q (%w)", url, resp.Header.Get("Content-Range"), ErrResumeVerify))
		}
		st.resumed = true
	case resp.StatusCode == http.StatusNotFound:
		return resilience.Terminal(fmt.Errorf("server: GET %s: %w", url, ErrNotFound))
	default:
		return resilience.ClassifyStatus(resp, fmt.Errorf("server: GET %s: %s%s", url, resp.Status, bodySnippet(resp.Body)))
	}

	limit := d.limit()
	part, err := io.ReadAll(io.LimitReader(resp.Body, limit+1-int64(len(st.buf))))
	st.buf = append(st.buf, part...)
	if int64(len(st.buf)) > limit {
		return resilience.Terminal(fmt.Errorf("server: GET %s: %w", url, ErrTooLarge))
	}
	if err != nil {
		if !st.canResume {
			st.reset()
		}
		return fmt.Errorf("server: GET %s: reading body: %w", url, err)
	}
	if st.resumed {
		return st.reverify(url)
	}
	return nil
}

// reverify checks an assembled multi-part download against the strong
// ETag when it is the server's sha256 content hash (the form
// ContentServer publishes). A mismatch restarts the transfer from
// scratch rather than handing spliced bytes to the verify pipeline.
func (st *fetchState) reverify(url string) error {
	want, ok := etagSHA256(st.etag)
	if !ok {
		return nil // opaque validator: If-Range already gated consistency
	}
	got := sha256.Sum256(st.buf)
	if !bytes.Equal(got[:], want) {
		st.reset()
		return resilience.Transient(fmt.Errorf("server: GET %s: %w", url, ErrResumeVerify))
	}
	return nil
}

// etagSHA256 recognizes a strong ETag of the form "<64 hex digits>"
// and returns the decoded hash.
func etagSHA256(etag string) ([]byte, bool) {
	v := strings.Trim(etag, `"`)
	if len(v) != sha256.Size*2 {
		return nil, false
	}
	b, err := hex.DecodeString(v)
	if err != nil {
		return nil, false
	}
	return b, true
}

// parseContentRangeStart extracts the first byte position from a
// "bytes start-end/total" Content-Range header.
func parseContentRangeStart(h string) (int64, error) {
	rest, ok := strings.CutPrefix(h, "bytes ")
	if !ok {
		return 0, fmt.Errorf("server: malformed Content-Range %q", h)
	}
	dash := strings.IndexByte(rest, '-')
	if dash < 0 {
		return 0, fmt.Errorf("server: malformed Content-Range %q", h)
	}
	return strconv.ParseInt(rest[:dash], 10, 64)
}

// bodySnippet reads a bounded prefix of an error response body for
// inclusion in the returned error, so operators see what the server
// actually said instead of a bare status line.
func bodySnippet(r io.Reader) string {
	b, _ := io.ReadAll(io.LimitReader(r, 256))
	b = bytes.TrimSpace(b)
	if len(b) == 0 {
		return ""
	}
	return ": " + string(b)
}

// FetchImage downloads and unpacks a disc image.
func (d *Downloader) FetchImage(baseURL, name string) (*disc.Image, error) {
	return d.FetchImageContext(context.Background(), baseURL, name)
}

// FetchImageContext downloads and unpacks a disc image with
// cancellation and retry.
func (d *Downloader) FetchImageContext(ctx context.Context, baseURL, name string) (*disc.Image, error) {
	b, err := d.FetchContext(ctx, baseURL, name)
	if err != nil {
		return nil, err
	}
	im, err := disc.ReadImageBytes(b)
	if err != nil {
		// Bytes arrived intact per transport but do not decode: a
		// corrupt or hostile payload, not a link failure.
		return nil, resilience.Terminal(err)
	}
	return im, nil
}
