package cluster

import (
	"bytes"
	"context"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"discsec/internal/keymgmt"
	"discsec/internal/library"
	"discsec/internal/obs"
	"discsec/internal/resilience"
)

// Origin is the cluster's cold-verification node: it runs every cold
// fill through the shared library, stamps the resulting verdict with
// the fleet trust epoch read before the fill began (so a fill racing a
// revocation self-invalidates at every edge), and fans records and
// epoch announcements out to the registered edges. The library is its
// only verdict store: a pull reads the library's valid resident
// verdicts. It implements
// http.Handler for the /cluster/* routes; mount it with
// server.WithClusterOrigin or behind any mux.
type Origin struct {
	lib     *library.Library
	rec     *obs.Recorder
	client  *http.Client
	maxBody int64

	// epoch is the fleet trust epoch: the authoritative count of
	// trust-changing events. Forward-only.
	epoch atomic.Uint64

	mu       sync.Mutex
	members  map[string]Member
	breakers map[string]*resilience.Breaker
}

// OriginOption configures an Origin.
type OriginOption func(*Origin)

// WithOriginRecorder wires counters and audit events.
func WithOriginRecorder(rec *obs.Recorder) OriginOption {
	return func(o *Origin) { o.rec = rec }
}

// WithOriginTrust couples the origin to the trust service: the fleet
// epoch seeds from the service's trust-change count, and every
// revocation or reissue bumps it and fans the announcement out to the
// edges.
func WithOriginTrust(svc *keymgmt.Service) OriginOption {
	return func(o *Origin) {
		o.epoch.Store(svc.Epoch())
		svc.OnRevoke(func(name string) { o.Bump("signer " + name + " revoked") })
	}
}

// WithOriginClient sets the HTTP client for push fan-out. It must
// carry a Timeout so a partitioned edge stalls one push, not the
// origin.
func WithOriginClient(c *http.Client) OriginOption {
	return func(o *Origin) {
		if c != nil {
			o.client = c
		}
	}
}

// WithOriginMaxBody bounds an inbound verification body (default
// 16 MiB).
func WithOriginMaxBody(n int64) OriginOption {
	return func(o *Origin) {
		if n > 0 {
			o.maxBody = n
		}
	}
}

// NewOrigin builds the origin over a shared verification library.
func NewOrigin(lib *library.Library, opts ...OriginOption) *Origin {
	o := &Origin{
		lib:      lib,
		client:   &http.Client{Timeout: 5 * time.Second},
		maxBody:  16 << 20,
		members:  make(map[string]Member),
		breakers: make(map[string]*resilience.Breaker),
	}
	for _, opt := range opts {
		opt(o)
	}
	return o
}

// Epoch reports the current fleet trust epoch.
func (o *Origin) Epoch() uint64 { return o.epoch.Load() }

func (o *Origin) membersLocked() []Member {
	out := make([]Member, 0, len(o.members))
	for _, m := range o.members {
		out = append(out, m)
	}
	return out
}

// Records reports the library's resident verdict count (diagnostics
// and tests).
func (o *Origin) Records() int { return o.lib.Len() }

// Bump advances the fleet trust epoch by one and announces it to all
// registered edges (best-effort: a partitioned edge converges through
// its next successful heartbeat instead). It returns the new epoch.
func (o *Origin) Bump(reason string) uint64 {
	e := o.epoch.Add(1)
	o.mu.Lock()
	members := o.membersLocked()
	o.mu.Unlock()
	o.rec.Inc("cluster.epoch_advance")
	o.rec.Audit(obs.AuditClusterEpoch, "origin: fleet trust epoch -> %d (%s)", e, reason)
	ann, err := EncodeFrame(EpochAnnounce{Epoch: e, Reason: reason})
	if err != nil {
		return e
	}
	for _, m := range members {
		o.push(m, PathEpoch, ann, "cluster.epoch_push")
	}
	return e
}

// breakerFor returns the per-edge push breaker, so one unreachable
// edge fails its pushes fast instead of stalling every fan-out on a
// full client timeout.
func (o *Origin) breakerFor(name string) *resilience.Breaker {
	o.mu.Lock()
	defer o.mu.Unlock()
	b, ok := o.breakers[name]
	if !ok {
		b = &resilience.Breaker{Name: "cluster-push-" + name}
		o.breakers[name] = b
	}
	return b
}

// push delivers one framed message to an edge route, best-effort: the
// result feeds the edge's breaker and the counters, never the caller.
func (o *Origin) push(m Member, path string, frame []byte, okCounter string) {
	b := o.breakerFor(m.Name)
	err := b.Do(context.Background(), func(ctx context.Context) error {
		req, rerr := http.NewRequestWithContext(ctx, http.MethodPost, m.URL+path, bytes.NewReader(frame))
		if rerr != nil {
			return resilience.Terminal(rerr)
		}
		resp, derr := o.client.Do(req)
		if derr != nil {
			return resilience.Classify(derr)
		}
		defer resp.Body.Close()
		if resp.StatusCode >= 300 {
			return classifyExchange(m.URL+path, resp)
		}
		return nil
	})
	if err != nil {
		o.rec.Inc("cluster.push_fail")
		return
	}
	o.rec.Inc(okCounter)
}

// ServeHTTP routes the origin half of the wire protocol.
func (o *Origin) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch {
	case r.URL.Path == PathVerify && r.Method == http.MethodPost:
		o.serveVerify(w, r)
	case r.URL.Path == PathEpoch && r.Method == http.MethodGet:
		o.rec.Inc("cluster.heartbeat_serve")
		writeFrameResponse(w, EpochAnnounce{Epoch: o.epoch.Load()})
	case r.URL.Path == PathVerdicts && r.Method == http.MethodGet:
		o.serveVerdicts(w)
	case r.URL.Path == PathJoin && r.Method == http.MethodPost:
		o.serveJoin(w, r)
	default:
		http.NotFound(w, r)
	}
}

// serveVerify is the fleet's single cold-verification entry: the body
// streams straight into the library (single pass, reader-first), and
// the verdict ships back as a Record stamped with the epoch read
// before the fill. Reading the epoch first is load-bearing: a
// revocation that lands mid-verification bumps past it, so every edge
// rejects the record as lagging instead of caching a pre-revocation
// verdict.
func (o *Origin) serveVerify(w http.ResponseWriter, r *http.Request) {
	ctx, rec := o.obsContext(r.Context())
	defer rec.Start(obs.StageCluster).End()
	e := o.epoch.Load()
	v, status, err := o.lib.OpenReader(ctx, http.MaxBytesReader(w, r.Body, o.maxBody))
	if err != nil {
		rec.Inc("cluster.origin_verify_err")
		writeError(w, err)
		return
	}
	rec.Inc("cluster.origin_verify")
	rd := recordOf(v, e)
	o.mu.Lock()
	members := o.membersLocked()
	o.mu.Unlock()
	// Replicate to every edge except the requester (which gets the
	// record in its response) before answering: once the requester
	// holds its verdict, fleet-wide replication has already happened.
	if frame, ferr := EncodeFrame(rd); ferr == nil {
		requester := r.Header.Get(HeaderEdge)
		for _, m := range members {
			if m.Name == requester {
				continue
			}
			o.push(m, PathVerdicts, frame, "cluster.push")
		}
	}
	w.Header().Set(HeaderStatus, string(status))
	writeFrameResponse(w, rd)
}

// recordOf is the wire form of a library verdict stamped with a fleet
// epoch.
func recordOf(v *library.Verdict, epoch uint64) Record {
	return Record{
		Key:        v.Key,
		Signer:     v.Fingerprint,
		Epoch:      epoch,
		Degraded:   v.Degraded,
		Signatures: len(v.Result.Signatures),
	}
}

// serveVerdicts streams the library's valid resident verdicts as
// frames (edge bootstrap pull), each the record serveVerify would send
// for its document now. The epoch is read before the walk, so a
// revocation that lands during it makes the records lag at every edge.
// Unsigned verdicts are never cached, so never pulled.
func (o *Origin) serveVerdicts(w http.ResponseWriter) {
	e := o.epoch.Load()
	w.Header().Set("Content-Type", "application/octet-stream")
	for _, v := range o.lib.Verdicts() {
		if err := WriteFrame(w, recordOf(v, e)); err != nil {
			return
		}
	}
	o.rec.Inc("cluster.pull_serve")
}

// serveJoin registers an edge and hands it the fleet epoch plus the
// full membership; standing edges learn the newcomer through a
// membership broadcast.
func (o *Origin) serveJoin(w http.ResponseWriter, r *http.Request) {
	var jr JoinRequest
	if err := NewFrameReader(http.MaxBytesReader(w, r.Body, MaxFrame)).Next(&jr); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if jr.Name == "" || jr.URL == "" {
		http.Error(w, "cluster: join requires a name and URL", http.StatusBadRequest)
		return
	}
	e := o.epoch.Load()
	o.mu.Lock()
	o.members[jr.Name] = Member{Name: jr.Name, URL: jr.URL}
	members := o.membersLocked()
	o.mu.Unlock()
	sort.Slice(members, func(i, j int) bool { return members[i].Name < members[j].Name })
	o.rec.Inc("cluster.join")
	writeFrameResponse(w, JoinResponse{Epoch: e, Members: members})
	update, err := EncodeFrame(MemberUpdate{Epoch: e, Members: members})
	if err != nil {
		return
	}
	for _, m := range members {
		if m.Name == jr.Name {
			continue
		}
		o.push(m, PathMembers, update, "cluster.member_push")
	}
}

// obsContext mirrors the library: a recorder on the context wins,
// otherwise the origin's is attached.
func (o *Origin) obsContext(ctx context.Context) (context.Context, *obs.Recorder) {
	if ctx == nil {
		ctx = context.Background()
	}
	if rec := obs.FromContext(ctx); rec != nil {
		return ctx, rec
	}
	return obs.WithRecorder(ctx, o.rec), o.rec
}

func writeFrameResponse(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/octet-stream")
	if err := WriteFrame(w, v); err != nil {
		// Headers are gone; nothing recoverable mid-body.
		return
	}
}
