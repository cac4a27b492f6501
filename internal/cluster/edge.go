package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"discsec/internal/flight"
	"discsec/internal/health"
	"discsec/internal/library"
	"discsec/internal/lru"
	"discsec/internal/obs"
	"discsec/internal/resilience"
)

// Edge is a thin verification node: it recomputes the canonical digest
// of presented content through the library's key front (no DOM, no
// signature math) and serves the matching replicated verdict from its
// local record cache.
// Misses route through the consistent-hash ring to the key's owner —
// so concurrent cold misses across the whole fleet collapse into one
// origin verification — and fills ride a circuit breaker bound to the
// cluster health component. It implements http.Handler for the edge
// half of the wire protocol; mount it with server.WithClusterEdge.
type Edge struct {
	name    string
	selfURL string
	origin  string
	rec     *obs.Recorder
	monitor *health.Monitor
	client  *http.Client
	fill    *resilience.Breaker
	bulk    *resilience.Bulkhead
	ring    *Ring
	vnodes  int
	maxBody int64

	// epoch is the highest fleet trust epoch this edge has heard
	// announced. Forward-only (advanceEpoch); records stamped below it
	// are dead.
	epoch atomic.Uint64

	records *lru.Cache[string, Record]

	mu    sync.RWMutex
	peers map[string]string

	flights flight.Group[Record]
}

// The edge's record store is byte-budgeted, so a flood of distinct
// pushes can only evict records, never grow memory. A record is charged
// its key and signer lengths plus recordOverhead, an estimate of the
// rest of its heap (struct, LRU item, list element and map slot).
const (
	recordBudget   = 16 << 20
	recordOverhead = 192
)

func recordCharge(rd Record) int64 {
	return int64(recordOverhead + len(rd.Key) + len(rd.Signer))
}

// EdgeOption configures an Edge.
type EdgeOption func(*Edge)

// WithEdgeRecorder wires counters and audit events.
func WithEdgeRecorder(rec *obs.Recorder) EdgeOption {
	return func(e *Edge) { e.rec = rec }
}

// WithEdgeHealth supplies the health monitor deriving the cluster
// component's Degraded/Down state from heartbeat probes and the fill
// breaker. Without it the edge builds a private monitor with the
// default probe threshold.
func WithEdgeHealth(m *health.Monitor) EdgeOption {
	return func(e *Edge) { e.monitor = m }
}

// WithEdgeClient sets the inter-node HTTP client. It must carry a
// Timeout so a dead peer hits the retry path instead of hanging.
func WithEdgeClient(c *http.Client) EdgeOption {
	return func(e *Edge) {
		if c != nil {
			e.client = c
		}
	}
}

// WithEdgeBreaker replaces the origin-fill breaker (tests tune
// thresholds and clocks through it). Bind happens in NewEdge.
func WithEdgeBreaker(b *resilience.Breaker) EdgeOption {
	return func(e *Edge) {
		if b != nil {
			e.fill = b
		}
	}
}

// WithEdgeBulkhead caps concurrent origin fills from this edge.
func WithEdgeBulkhead(bh *resilience.Bulkhead) EdgeOption {
	return func(e *Edge) { e.bulk = bh }
}

// WithEdgeVirtualNodes sets the ring's virtual-node count per member
// (DefaultVirtualNodes when unset).
func WithEdgeVirtualNodes(n int) EdgeOption {
	return func(e *Edge) { e.vnodes = n }
}

// WithEdgeMaxBody bounds one open's document size (default 16 MiB).
func WithEdgeMaxBody(n int64) EdgeOption {
	return func(e *Edge) {
		if n > 0 {
			e.maxBody = n
		}
	}
}

// NewEdge builds an edge named name, advertising selfURL to peers and
// filling from the origin base URL.
func NewEdge(name, selfURL, origin string, opts ...EdgeOption) *Edge {
	e := &Edge{
		name:    name,
		selfURL: selfURL,
		origin:  origin,
		client:  &http.Client{Timeout: 5 * time.Second},
		maxBody: 16 << 20,
		records: lru.New[string, Record](recordBudget),
		peers:   make(map[string]string),
	}
	for _, opt := range opts {
		opt(e)
	}
	if e.monitor == nil {
		e.monitor = health.New(health.WithRecorder(e.rec))
	}
	if e.fill == nil {
		e.fill = &resilience.Breaker{Name: name + "-fill"}
	}
	e.ring = NewRing(e.vnodes)
	e.ring.Add(name)
	e.monitor.Register(health.ComponentCluster)
	e.monitor.BindBreaker(health.ComponentCluster, e.fill)
	return e
}

// Name returns the edge's ring name.
func (e *Edge) Name() string { return e.name }

// Epoch reports the highest fleet trust epoch the edge has heard.
func (e *Edge) Epoch() uint64 { return e.epoch.Load() }

// Records reports the resident replicated-verdict count.
func (e *Edge) Records() int { return e.records.Len() }

// Health exposes the edge's monitor (the server's /healthz snapshot).
func (e *Edge) Health() *health.Monitor { return e.monitor }

// Ring exposes the routing ring (tests pin ownership through it).
func (e *Edge) Ring() *Ring { return e.ring }

// obsContext mirrors the library: a recorder on the context wins,
// otherwise the edge's is attached.
func (e *Edge) obsContext(ctx context.Context) (context.Context, *obs.Recorder) {
	if ctx == nil {
		ctx = context.Background()
	}
	if rec := obs.FromContext(ctx); rec != nil {
		return ctx, rec
	}
	return obs.WithRecorder(ctx, e.rec), e.rec
}

// advanceEpoch moves the edge's announced epoch forward, never back:
// announcements arrive over the wire, where duplication, delay, and
// reordering are normal, so only a strictly newer epoch wins the CAS.
// A replayed or out-of-order announcement is counted and dropped.
func (e *Edge) advanceEpoch(to uint64, cause string) bool {
	for {
		cur := e.epoch.Load()
		if to == cur {
			return false
		}
		if to < cur {
			e.rec.Inc("cluster.epoch_stale")
			return false
		}
		if e.epoch.CompareAndSwap(cur, to) {
			e.rec.Inc("cluster.epoch_advance")
			e.rec.Audit(obs.AuditClusterEpoch, "edge %s: fleet trust epoch %d -> %d (%s)", e.name, cur, to, cause)
			return true
		}
	}
}

// setMembers replaces the edge's fleet view: the ring carries every
// member (self included), the peer table everyone else.
func (e *Edge) setMembers(members []Member) {
	names := []string{e.name}
	peers := make(map[string]string, len(members))
	for _, m := range members {
		if m.Name == "" || m.Name == e.name {
			continue
		}
		peers[m.Name] = m.URL
		names = append(names, m.Name)
	}
	e.ring.SetNodes(names)
	e.mu.Lock()
	e.peers = peers
	e.mu.Unlock()
}

func (e *Edge) peerURL(name string) (string, bool) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	url, ok := e.peers[name]
	return url, ok
}

// Join registers the edge with the origin and adopts the fleet epoch
// and membership from the response.
func (e *Edge) Join(ctx context.Context) error {
	ctx, rec := e.obsContext(ctx)
	frame, err := EncodeFrame(JoinRequest{Name: e.name, URL: e.selfURL})
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, e.origin+PathJoin, bytes.NewReader(frame))
	if err != nil {
		return err
	}
	req.Header.Set(HeaderEdge, e.name)
	resp, err := e.client.Do(req)
	if err != nil {
		return fmt.Errorf("cluster: join: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return classifyExchange(e.origin+PathJoin, resp)
	}
	var jr JoinResponse
	if err := NewFrameReader(resp.Body).Next(&jr); err != nil {
		return err
	}
	e.advanceEpoch(jr.Epoch, "join")
	e.setMembers(jr.Members)
	rec.Inc("cluster.joined")
	return nil
}

// Pull replicates the origin's resident verdict set into the edge's
// cache (bootstrap for a cold or rejoining edge), returning how many
// records were adopted.
func (e *Edge) Pull(ctx context.Context) (int, error) {
	ctx, rec := e.obsContext(ctx)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, e.origin+PathVerdicts, nil)
	if err != nil {
		return 0, err
	}
	req.Header.Set(HeaderEdge, e.name)
	resp, err := e.client.Do(req)
	if err != nil {
		return 0, fmt.Errorf("cluster: pull: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, classifyExchange(e.origin+PathVerdicts, resp)
	}
	fr := NewFrameReader(resp.Body)
	n := 0
	for {
		var rd Record
		if err := fr.Next(&rd); err != nil {
			if err == io.EOF {
				break
			}
			return n, err
		}
		if e.storeRecord(rec, rd) {
			n++
		}
	}
	rec.Inc("cluster.pull")
	return n, nil
}

// Heartbeat performs one origin liveness probe: it polls the fleet
// epoch and feeds the outcome to the health monitor. Consecutive
// failures walk the cluster component Degraded then Down (the
// fail-closed threshold); one success resets the streak and converges
// the epoch — which is how a healed partition catches up on
// revocations it missed.
func (e *Edge) Heartbeat(ctx context.Context) error {
	ctx, rec := e.obsContext(ctx)
	ann, err := e.pollEpoch(ctx)
	if err != nil {
		e.monitor.ReportProbe(health.ComponentCluster, err)
		rec.Inc("cluster.heartbeat_fail")
		return fmt.Errorf("cluster: heartbeat: %w", err)
	}
	e.monitor.ReportProbe(health.ComponentCluster, nil)
	rec.Inc("cluster.heartbeat_ok")
	e.advanceEpoch(ann.Epoch, "heartbeat")
	return nil
}

func (e *Edge) pollEpoch(ctx context.Context) (EpochAnnounce, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, e.origin+PathEpoch, nil)
	if err != nil {
		return EpochAnnounce{}, err
	}
	req.Header.Set(HeaderEdge, e.name)
	resp, err := e.client.Do(req)
	if err != nil {
		return EpochAnnounce{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return EpochAnnounce{}, classifyExchange(e.origin+PathEpoch, resp)
	}
	var ann EpochAnnounce
	if err := NewFrameReader(resp.Body).Next(&ann); err != nil {
		return EpochAnnounce{}, err
	}
	return ann, nil
}

// RunHeartbeats drives Heartbeat every interval until ctx ends. It
// blocks: the caller owns the goroutine and its supervision, keeping
// this package free of unsupervised go statements.
func (e *Edge) RunHeartbeats(ctx context.Context, interval time.Duration) {
	if interval <= 0 {
		interval = time.Second
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			_ = e.Heartbeat(ctx) // the outcome already fed the monitor
		}
	}
}

// OpenReader serves one content open at the edge: the library's key
// front reads the document once and recomputes the exclusive-C14N
// digest (the library cache key) from the retained bytes — no DOM, no
// signature math — then the replicated cache answers warm opens
// locally and misses route via the ring to exactly one origin
// verification fleet-wide.
func (e *Edge) OpenReader(ctx context.Context, r io.Reader) (Record, Status, error) {
	ctx, rec := e.obsContext(ctx)
	defer rec.Start(obs.StageCluster).End()
	if err := ctx.Err(); err != nil {
		return Record{}, StatusMiss, err
	}
	f, err := e.readFront(rec, r)
	if err != nil {
		return Record{}, StatusMiss, err
	}
	rd, status, err := e.open(ctx, rec, f.Key, f.Raw, false)
	releaseUnsent(&f, status)
	return rd, status, err
}

// readFront runs the library key front over at most maxBody bytes. A
// longer document is refused before it is keyed.
func (e *Edge) readFront(rec *obs.Recorder, r io.Reader) (library.Front, error) {
	f, err := library.ReadFrontLimit(rec, r, e.maxBody)
	if errors.Is(err, library.ErrTooLarge) {
		return library.Front{}, resilience.Terminal(fmt.Errorf("cluster: %w", err))
	}
	return f, err
}

// releaseUnsent recycles a front's buffer when the open was a hit. Any
// other outcome may have posted the bytes to a peer or the origin, and
// an HTTP transport can still be reading a request body after the
// exchange returns, so those buffers are left to the garbage collector.
func releaseUnsent(f *library.Front, status Status) {
	if status == StatusHit {
		f.Release()
	}
}

// open is the keyed serve path shared by OpenReader and forwarded
// peer requests (forwarded=true fills from the origin directly, never
// re-forwards).
func (e *Edge) open(ctx context.Context, rec *obs.Recorder, key string, body []byte, forwarded bool) (Record, Status, error) {
	rd, ok, err := e.lookup(rec, key)
	if err != nil {
		return Record{}, StatusHit, err
	}
	if ok {
		return rd, StatusHit, nil
	}
	if e.monitor.State(health.ComponentCluster) == health.Down {
		return Record{}, StatusMiss, e.failPartitioned(rec, key, "cold fill")
	}
	status := StatusMiss
	rd, err, shared := e.flights.Do(key, func() (Record, error) {
		// Double-check under flight leadership: a push or a racing
		// fill may have landed since the first lookup.
		if rd, ok, lerr := e.lookup(rec, key); lerr != nil {
			return Record{}, lerr
		} else if ok {
			status = StatusHit
			return rd, nil
		}
		return e.fillMiss(ctx, rec, key, body, forwarded, &status)
	})
	if shared {
		rec.Inc("cluster.singleflight_wait")
		status = StatusWait
	}
	if err != nil {
		return Record{}, status, err
	}
	return rd, status, nil
}

// lookup serves the warm path: one record fetch plus the epoch and
// partition gates. A record whose epoch lags the announced one dies
// here (library.ErrTrustChanged); a warm hit on a Down edge fails
// closed; a warm hit on a Degraded edge serves, audited.
func (e *Edge) lookup(rec *obs.Recorder, key string) (Record, bool, error) {
	rd, ok := e.records.Get(key)
	if !ok {
		return Record{}, false, nil
	}
	if cur := e.epoch.Load(); rd.Epoch < cur {
		// A fresher record may have replaced the lagging one since the
		// read; only the one read is dropped.
		e.records.CompareAndDelete(key, rd)
		rec.Inc("cluster.lagging_drop")
		return Record{}, false, fmt.Errorf("cluster: edge %s: verdict %.12s at epoch %d lags announced epoch %d: %w",
			e.name, key, rd.Epoch, cur, library.ErrTrustChanged)
	}
	switch e.monitor.State(health.ComponentCluster) {
	case health.Down:
		return Record{}, false, e.failPartitioned(rec, key, "warm serve")
	case health.Degraded:
		rec.Inc("cluster.degraded_serve")
		rec.Audit(obs.AuditDegradedServe, "edge %s: verdict %.12s served while cluster link degraded (signer %.12s)", e.name, key, rd.Signer)
	}
	rec.Inc("cluster.hit")
	return rd, true, nil
}

// failPartitioned is the fail-closed exit for a Down cluster link.
func (e *Edge) failPartitioned(rec *obs.Recorder, key, what string) error {
	rec.Inc("cluster.partition_fail_closed")
	rec.Audit(obs.AuditClusterPartition, "edge %s: %s for %.12s refused; origin unreachable past the heartbeat budget", e.name, what, key)
	return fmt.Errorf("cluster: edge %s: %s for %.12s: %w", e.name, what, key, ErrPartitioned)
}

// fillMiss resolves a cold miss: forward to the ring owner when that
// is another edge (fleet-wide dedup), falling back to — or going
// straight to — the breaker-guarded origin fill.
func (e *Edge) fillMiss(ctx context.Context, rec *obs.Recorder, key string, body []byte, forwarded bool, status *Status) (Record, error) {
	if !forwarded {
		if owner := e.ring.Owner(key); owner != "" && owner != e.name {
			if url, ok := e.peerURL(owner); ok {
				rd, err := e.exchange(ctx, url+PathVerify, body, true)
				if err == nil {
					if aerr := e.adopt(rec, key, rd); aerr != nil {
						return Record{}, aerr
					}
					rec.Inc("cluster.forward")
					*status = StatusForward
					return rd, nil
				}
				// The owner is unreachable or refusing; the origin can
				// still serve this miss (at worst one duplicate
				// verification fleet-wide).
				rec.Inc("cluster.forward_fallback")
			}
		}
	}
	release, err := e.bulk.Acquire(ctx)
	if err != nil {
		rec.Inc("cluster.bulkhead_rejected")
		return Record{}, err
	}
	defer release()
	var rd Record
	err = e.fill.Do(ctx, func(ctx context.Context) error {
		var xerr error
		rd, xerr = e.exchange(ctx, e.origin+PathVerify, body, false)
		return xerr
	})
	if err != nil {
		rec.Inc("cluster.fill_err")
		return Record{}, err
	}
	if aerr := e.adopt(rec, key, rd); aerr != nil {
		return Record{}, aerr
	}
	rec.Inc("cluster.fill")
	return rd, nil
}

// adopt admits a filled record: it must re-address the locally
// computed key exactly (the wrapping-proofness of the whole tier rides
// on this check) and must not lag the announced epoch (a fill that
// raced a revocation self-invalidates here).
func (e *Edge) adopt(rec *obs.Recorder, key string, rd Record) error {
	if rd.Key != key {
		rec.Inc("cluster.key_mismatch")
		return resilience.Terminal(fmt.Errorf("cluster: edge %s: verdict keyed %.12s for content keyed %.12s: %w",
			e.name, rd.Key, key, ErrKeyMismatch))
	}
	if !e.storeRecord(rec, rd) {
		return fmt.Errorf("cluster: edge %s: filled verdict %.12s at epoch %d lags announced epoch %d: %w",
			e.name, key, rd.Epoch, e.epoch.Load(), library.ErrTrustChanged)
	}
	return nil
}

// storeRecord admits a pushed, pulled or filled record unless it lags
// the announced epoch. No key check is needed here: a stored record
// only ever serves content whose digest the edge recomputes to exactly
// that key.
func (e *Edge) storeRecord(rec *obs.Recorder, rd Record) bool {
	if rd.Key == "" {
		return false
	}
	if cur := e.epoch.Load(); rd.Epoch < cur {
		rec.Inc("cluster.lagging_drop")
		return false
	}
	e.records.Put(rd.Key, rd, recordCharge(rd))
	return true
}

// exchange posts a document to a verification route (peer or origin)
// and decodes the verdict frame. Transport and 5xx failures come back
// transient so the fill breaker counts them toward opening.
func (e *Edge) exchange(ctx context.Context, url string, body []byte, forwarded bool) (Record, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return Record{}, resilience.Terminal(err)
	}
	req.Header.Set(HeaderEdge, e.name)
	if forwarded {
		req.Header.Set(HeaderForwarded, "1")
	}
	resp, err := e.client.Do(req)
	if err != nil {
		return Record{}, resilience.Classify(fmt.Errorf("cluster: POST %s: %w", url, err))
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return Record{}, classifyExchange(url, resp)
	}
	var rd Record
	if err := NewFrameReader(resp.Body).Next(&rd); err != nil {
		return Record{}, resilience.Transient(err)
	}
	return rd, nil
}

// ServeHTTP routes the edge half of the wire protocol.
func (e *Edge) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch {
	case r.URL.Path == PathVerify && r.Method == http.MethodPost:
		e.serveVerify(w, r)
	case r.URL.Path == PathVerdicts && r.Method == http.MethodPost:
		e.serveVerdicts(w, r)
	case r.URL.Path == PathEpoch && r.Method == http.MethodPost:
		e.serveEpoch(w, r)
	case r.URL.Path == PathEpoch && r.Method == http.MethodGet:
		writeFrameResponse(w, EpochAnnounce{Epoch: e.epoch.Load()})
	case r.URL.Path == PathMembers && r.Method == http.MethodPost:
		e.serveMembers(w, r)
	default:
		http.NotFound(w, r)
	}
}

// serveVerify handles a miss forwarded by a ring peer: same open path,
// but never re-forwarded.
func (e *Edge) serveVerify(w http.ResponseWriter, r *http.Request) {
	ctx, rec := e.obsContext(r.Context())
	defer rec.Start(obs.StageCluster).End()
	f, err := e.readFront(rec, http.MaxBytesReader(w, r.Body, e.maxBody))
	if err != nil {
		writeError(w, err)
		return
	}
	rec.Inc("cluster.forward_serve")
	rd, status, err := e.open(ctx, rec, f.Key, f.Raw, true)
	releaseUnsent(&f, status)
	if err != nil {
		writeError(w, err)
		return
	}
	w.Header().Set(HeaderStatus, string(status))
	writeFrameResponse(w, rd)
}

// serveVerdicts stores records pushed by the origin.
func (e *Edge) serveVerdicts(w http.ResponseWriter, r *http.Request) {
	_, rec := e.obsContext(r.Context())
	fr := NewFrameReader(http.MaxBytesReader(w, r.Body, MaxFrame+16))
	for {
		var rd Record
		if err := fr.Next(&rd); err != nil {
			if err == io.EOF {
				break
			}
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if e.storeRecord(rec, rd) {
			rec.Inc("cluster.push_recv")
		}
	}
	w.WriteHeader(http.StatusNoContent)
}

// serveEpoch applies an epoch announcement pushed by the origin.
func (e *Edge) serveEpoch(w http.ResponseWriter, r *http.Request) {
	var ann EpochAnnounce
	if err := NewFrameReader(http.MaxBytesReader(w, r.Body, MaxFrame)).Next(&ann); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	reason := ann.Reason
	if reason == "" {
		reason = "announce"
	}
	e.advanceEpoch(ann.Epoch, reason)
	w.WriteHeader(http.StatusNoContent)
}

// serveMembers applies a membership broadcast.
func (e *Edge) serveMembers(w http.ResponseWriter, r *http.Request) {
	var mu MemberUpdate
	if err := NewFrameReader(http.MaxBytesReader(w, r.Body, MaxFrame)).Next(&mu); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if mu.Epoch > 0 {
		e.advanceEpoch(mu.Epoch, "membership update")
	}
	e.setMembers(mu.Members)
	w.WriteHeader(http.StatusNoContent)
}
