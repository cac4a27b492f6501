// Loopback cluster simulation: a real origin and a fleet of edges,
// each behind its own ContentServer on 127.0.0.1, exercising the wire
// protocol end to end — warm cache-locality, fleet-wide cold-miss
// collapse, revocation convergence, and partition fail-closed.
package cluster_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"discsec/internal/cluster"
	"discsec/internal/core"
	"discsec/internal/experiments"
	"discsec/internal/faults"
	"discsec/internal/health"
	"discsec/internal/keymgmt"
	"discsec/internal/library"
	"discsec/internal/obs"
	"discsec/internal/resilience"
	"discsec/internal/server"
	"discsec/internal/workload"
	"discsec/internal/xmldsig"
)

// signedDoc builds a cluster document signed with a KeyName-only
// signature, so origin verification resolves the key through the trust
// service and revocation genuinely changes the outcome. Distinct seeds
// produce distinct canonical digests.
func signedDoc(t testing.TB, creator *keymgmt.Identity, seed uint64) []byte {
	t.Helper()
	cl, _ := workload.Cluster(workload.ClusterSpec{AppTracks: 1, Seed: seed})
	doc := cl.Document()
	if _, err := xmldsig.SignEnveloped(doc, doc.Root(), xmldsig.SignOptions{
		Key:     creator.Key,
		KeyInfo: xmldsig.KeyInfoSpec{KeyName: creator.Name},
	}); err != nil {
		t.Fatal(err)
	}
	return doc.Bytes()
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// fleet is an in-process cluster: one origin and n edges, every node
// behind its own ContentServer on a real loopback listener.
type fleet struct {
	t         *testing.T
	svc       *keymgmt.Service
	lib       *library.Library
	creator   *keymgmt.Identity
	origin    *cluster.Origin
	originRec *obs.Recorder
	originURL string
	edges     []*cluster.Edge
	recs      []*obs.Recorder
}

func newFleet(t *testing.T, n int, libOpts ...library.Option) *fleet {
	t.Helper()
	root, creator := experiments.PKIFixture()
	svc := keymgmt.NewService(root.Pool())
	if err := svc.Register(creator.Name, creator.Cert, "pw"); err != nil {
		t.Fatal(err)
	}
	originRec := obs.NewRecorder()
	lib := library.New(append([]library.Option{
		library.WithOpener(core.Opener{RequireSignature: true}),
		library.WithTrustService(svc),
		library.WithRecorder(originRec),
	}, libOpts...)...)
	origin := cluster.NewOrigin(lib,
		cluster.WithOriginRecorder(originRec),
		cluster.WithOriginTrust(svc),
	)
	originCS := server.NewContentServer(server.WithClusterOrigin(origin))
	originURL, stop, err := originCS.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = stop() })

	f := &fleet{t: t, svc: svc, lib: lib, creator: creator, origin: origin, originRec: originRec, originURL: originURL}
	for i := 0; i < n; i++ {
		f.addEdge(fmt.Sprintf("edge-%d", i))
	}
	// Join broadcasts fan out after each join response; wait until
	// every edge sees the full membership before routing keys.
	for _, e := range f.edges {
		e := e
		waitFor(t, e.Name()+" membership", func() bool { return e.Ring().Len() == n })
	}
	return f
}

// addEdge starts one edge node: its own listener (bound first, so the
// advertised URL is real), a ContentServer in edge mode on top, and a
// Join to the origin.
func (f *fleet) addEdge(name string, opts ...cluster.EdgeOption) *cluster.Edge {
	f.t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		f.t.Fatal(err)
	}
	rec := obs.NewRecorder()
	e := cluster.NewEdge(name, "http://"+ln.Addr().String(), f.originURL,
		append([]cluster.EdgeOption{cluster.WithEdgeRecorder(rec)}, opts...)...)
	cs := server.NewContentServer(server.WithClusterEdge(e))
	srv := &http.Server{Handler: cs}
	go srv.Serve(ln) //nolint:errcheck // closed by cleanup
	f.t.Cleanup(func() { _ = srv.Close() })
	if err := e.Join(context.Background()); err != nil {
		f.t.Fatalf("join %s: %v", name, err)
	}
	f.edges = append(f.edges, e)
	f.recs = append(f.recs, rec)
	return e
}

// TestWarmOpensAreCacheLocal pins the tier's core economics: one cold
// fill verifies at the origin, replication lands the verdict on every
// edge before the filler's open returns, and every subsequent warm
// open on every edge is served from the local record cache with zero
// origin round trips — measured, not assumed.
func TestWarmOpensAreCacheLocal(t *testing.T) {
	f := newFleet(t, 4)
	doc := signedDoc(t, f.creator, 40)

	rd, st, err := f.edges[0].OpenReader(context.Background(), bytes.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	if st == cluster.StatusHit {
		t.Fatalf("first open status = %q, want a cold path", st)
	}
	if rd.Key == "" || rd.Signer == "" || rd.Signatures != 1 {
		t.Fatalf("cold verdict incomplete: %+v", rd)
	}
	if got := f.originRec.Counter("cluster.origin_verify"); got != 1 {
		t.Fatalf("origin verified %d times after one cold open, want 1", got)
	}
	// Replicate-before-respond: by the time the filler's open
	// returned, every other edge already held the record.
	if got := f.originRec.Counter("cluster.push"); got != 3 {
		t.Errorf("origin pushed %d records, want 3 (every edge except the requester)", got)
	}

	for i, e := range f.edges {
		warm, st, err := e.OpenReader(context.Background(), bytes.NewReader(doc))
		if err != nil {
			t.Fatalf("edge %d warm open: %v", i, err)
		}
		if st != cluster.StatusHit {
			t.Errorf("edge %d warm open status = %q, want hit", i, st)
		}
		if warm != rd {
			t.Errorf("edge %d served %+v, want the replicated %+v", i, warm, rd)
		}
	}
	if got := f.originRec.Counter("cluster.origin_verify"); got != 1 {
		t.Errorf("origin verified %d times after 4 warm opens, want still 1 (warm opens must be cache-local)", got)
	}
	// The single origin fill ran at whichever edge owns the key on the
	// ring; fleet-wide there was exactly one, and the warm opens added
	// none.
	var fills int64
	for _, rec := range f.recs {
		fills += rec.Counter("cluster.fill")
	}
	if fills != 1 {
		t.Errorf("fleet performed %d origin fills, want exactly 1", fills)
	}
}

// TestColdMissesCollapseFleetWide pins the acceptance criterion: 32
// concurrent cold opens spread across 4 edges trigger exactly one
// origin verification — per-edge singleflight plus ring routing plus
// the origin library's own flight collapse the rest.
func TestColdMissesCollapseFleetWide(t *testing.T) {
	f := newFleet(t, 4)
	doc := signedDoc(t, f.creator, 41)

	const n = 32
	var (
		start sync.WaitGroup
		done  sync.WaitGroup
		fails atomic.Int64
		keys  sync.Map
	)
	start.Add(1)
	done.Add(n)
	for i := 0; i < n; i++ {
		e := f.edges[i%len(f.edges)]
		go func() {
			defer done.Done()
			start.Wait()
			rd, _, err := e.OpenReader(context.Background(), bytes.NewReader(doc))
			if err != nil {
				fails.Add(1)
				t.Errorf("%s: %v", e.Name(), err)
				return
			}
			keys.Store(rd.Key, true)
		}()
	}
	start.Done()
	done.Wait()

	if fails.Load() != 0 {
		t.Fatalf("%d of %d concurrent opens failed", fails.Load(), n)
	}
	distinct := 0
	keys.Range(func(_, _ any) bool { distinct++; return true })
	if distinct != 1 {
		t.Errorf("concurrent opens produced %d distinct verdict keys, want 1", distinct)
	}
	if got := f.originRec.Counter("library.miss"); got != 1 {
		t.Errorf("origin library verified %d times for %d fleet-wide concurrent misses, want exactly 1", got, n)
	}
}

// TestRevocationReachesEveryEdge pins fleet-wide revocation: the trust
// service's revocation hook bumps the fleet epoch and the announcement
// push converges every edge before Revoke returns, so warm verdicts
// fail closed (ErrTrustChanged) everywhere and refills die at the
// origin — the revoked signer's content is unreachable fleet-wide.
func TestRevocationReachesEveryEdge(t *testing.T) {
	f := newFleet(t, 4)
	doc := signedDoc(t, f.creator, 42)

	if _, _, err := f.edges[0].OpenReader(context.Background(), bytes.NewReader(doc)); err != nil {
		t.Fatal(err)
	}
	for i, e := range f.edges {
		if _, st, err := e.OpenReader(context.Background(), bytes.NewReader(doc)); err != nil || st != cluster.StatusHit {
			t.Fatalf("edge %d pre-revocation warm open: status=%q err=%v", i, st, err)
		}
	}

	if err := f.svc.Revoke(f.creator.Name, "pw"); err != nil {
		t.Fatal(err)
	}
	// The announcement push is synchronous inside the revocation hook:
	// by the time Revoke returned, the fleet had converged.
	want := f.origin.Epoch()
	if want == 0 {
		t.Fatal("origin epoch did not advance on revocation")
	}
	for i, e := range f.edges {
		if got := e.Epoch(); got != want {
			t.Errorf("edge %d epoch = %d after revocation, want %d", i, got, want)
		}
	}

	// Every edge's own warm lookup fails closed first (local record
	// drops only); the refill pass runs after, because a refill
	// forwards through the ring and would drop the owner edge's
	// lagging record remotely.
	for i, e := range f.edges {
		_, _, err := e.OpenReader(context.Background(), bytes.NewReader(doc))
		if !errors.Is(err, library.ErrTrustChanged) {
			t.Errorf("edge %d warm open after revocation: %v, want ErrTrustChanged", i, err)
		}
		if got := f.recs[i].Counter("cluster.lagging_drop"); got == 0 {
			t.Errorf("edge %d lagging_drop = 0, want the stale verdict counted", i)
		}
	}
	// The lagging records are gone; every retry is a cold miss that
	// must die at the origin's re-verification.
	for i, e := range f.edges {
		if _, _, err := e.OpenReader(context.Background(), bytes.NewReader(doc)); err == nil {
			t.Errorf("edge %d refilled a revoked signer's document", i)
		}
	}
	for i, rec := range f.recs {
		found := false
		for _, ev := range rec.AuditTrail() {
			if ev.Kind == obs.AuditClusterEpoch {
				found = true
			}
		}
		if !found {
			t.Errorf("edge %d has no %s audit event", i, obs.AuditClusterEpoch)
		}
	}
}

// TestPartitionDegradesThenFailsClosed walks one edge through the
// partition state machine on a real socket: a faults.Listener in front
// of the origin starts resetting connections mid-session, heartbeats
// walk the cluster component Degraded (warm serves continue, audited)
// then Down (warm and cold fail closed with ErrPartitioned), and a
// revocation missed during the partition is converged by the first
// healed heartbeat, killing the stale warm verdict.
func TestPartitionDegradesThenFailsClosed(t *testing.T) {
	root, creator := experiments.PKIFixture()
	svc := keymgmt.NewService(root.Pool())
	if err := svc.Register(creator.Name, creator.Cert, "pw"); err != nil {
		t.Fatal(err)
	}
	originRec := obs.NewRecorder()
	lib := library.New(
		library.WithOpener(core.Opener{RequireSignature: true}),
		library.WithTrustService(svc),
		library.WithRecorder(originRec),
	)
	origin := cluster.NewOrigin(lib,
		cluster.WithOriginRecorder(originRec),
		cluster.WithOriginTrust(svc),
	)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fl := &faults.Listener{Listener: ln}
	srv := &http.Server{Handler: server.NewContentServer(server.WithClusterOrigin(origin))}
	go srv.Serve(fl) //nolint:errcheck // closed by cleanup
	t.Cleanup(func() { _ = srv.Close() })

	rec := obs.NewRecorder()
	clock := time.Unix(1700000000, 0)
	mon := health.New(
		health.WithRecorder(rec),
		health.WithProbeThreshold(3),
		health.WithClock(func() time.Time { return clock }),
	)
	// Keep-alives off so every request opens a fresh connection and
	// therefore meets the listener's current fault schedule.
	e := cluster.NewEdge("edge-0", "http://127.0.0.1:0", "http://"+ln.Addr().String(),
		cluster.WithEdgeRecorder(rec),
		cluster.WithEdgeHealth(mon),
		cluster.WithEdgeClient(&http.Client{
			Timeout:   2 * time.Second,
			Transport: &http.Transport{DisableKeepAlives: true},
		}),
	)
	ctx := context.Background()
	doc := signedDoc(t, creator, 43)

	if _, st, err := e.OpenReader(ctx, bytes.NewReader(doc)); err != nil || st != cluster.StatusMiss {
		t.Fatalf("cold fill: status=%q err=%v", st, err)
	}
	if err := e.Heartbeat(ctx); err != nil {
		t.Fatalf("healthy heartbeat: %v", err)
	}
	if got := mon.State(health.ComponentCluster); got != health.Healthy {
		t.Fatalf("pre-partition state = %v, want healthy", got)
	}

	// Partition mid-session: every new connection now resets.
	fl.Swap(faults.Flap(1, 64, 0, faults.Fault{Kind: faults.Reset}))

	if err := e.Heartbeat(ctx); err == nil {
		t.Fatal("heartbeat succeeded through a partitioned listener")
	}
	if got := mon.State(health.ComponentCluster); got != health.Degraded {
		t.Fatalf("state after 1 missed heartbeat = %v, want degraded", got)
	}
	// Degraded: warm serves continue, audited.
	if _, st, err := e.OpenReader(ctx, bytes.NewReader(doc)); err != nil || st != cluster.StatusHit {
		t.Fatalf("degraded warm open: status=%q err=%v, want an audited hit", st, err)
	}
	if got := rec.Counter("cluster.degraded_serve"); got != 1 {
		t.Errorf("degraded_serve = %d, want 1", got)
	}
	degradedAudited := false
	for _, ev := range rec.AuditTrail() {
		if ev.Kind == obs.AuditDegradedServe {
			degradedAudited = true
		}
	}
	if !degradedAudited {
		t.Errorf("degraded warm serve left no %s audit event", obs.AuditDegradedServe)
	}

	// Past the heartbeat budget: Down, and everything fails closed.
	_ = e.Heartbeat(ctx)
	_ = e.Heartbeat(ctx)
	if got := mon.State(health.ComponentCluster); got != health.Down {
		t.Fatalf("state after 3 missed heartbeats = %v, want down", got)
	}
	if _, _, err := e.OpenReader(ctx, bytes.NewReader(doc)); !errors.Is(err, cluster.ErrPartitioned) {
		t.Fatalf("warm open on a Down edge: %v, want ErrPartitioned", err)
	}
	other := signedDoc(t, creator, 44)
	if _, _, err := e.OpenReader(ctx, bytes.NewReader(other)); !errors.Is(err, cluster.ErrPartitioned) {
		t.Fatalf("cold open on a Down edge: %v, want ErrPartitioned", err)
	}
	if got := rec.Counter("cluster.partition_fail_closed"); got != 2 {
		t.Errorf("partition_fail_closed = %d, want 2 (one warm, one cold)", got)
	}
	partitionAudited := false
	for _, ev := range rec.AuditTrail() {
		if ev.Kind == obs.AuditClusterPartition {
			partitionAudited = true
		}
	}
	if !partitionAudited {
		t.Errorf("fail-closed serves left no %s audit event", obs.AuditClusterPartition)
	}

	// A revocation lands while the edge cannot hear announcements.
	if err := svc.Revoke(creator.Name, "pw"); err != nil {
		t.Fatal(err)
	}
	if e.Epoch() == origin.Epoch() {
		t.Fatal("partitioned edge heard the revocation; the partition is not real")
	}

	// Heal. The first successful heartbeat resets the probe streak and
	// converges the epoch the edge missed.
	fl.Swap(faults.NewSchedule())
	if err := e.Heartbeat(ctx); err != nil {
		t.Fatalf("post-heal heartbeat: %v", err)
	}
	if got := mon.State(health.ComponentCluster); got != health.Healthy {
		t.Fatalf("post-heal state = %v, want healthy", got)
	}
	if got, want := e.Epoch(), origin.Epoch(); got != want {
		t.Fatalf("post-heal epoch = %d, want %d (the revocation missed during the partition)", got, want)
	}
	// The warm verdict predates the revocation: it must die, and the
	// refill must fail at the origin's re-verification.
	if _, _, err := e.OpenReader(ctx, bytes.NewReader(doc)); !errors.Is(err, library.ErrTrustChanged) {
		t.Fatalf("post-heal warm open: %v, want ErrTrustChanged", err)
	}
	if _, _, err := e.OpenReader(ctx, bytes.NewReader(doc)); err == nil {
		t.Fatal("post-heal refill served a revoked signer's document")
	}
}

// TestEpochAnnouncementsOutOfOrder pins the monotonic-epoch guard at
// the wire boundary: announcements delivered late or replayed cannot
// roll the edge's epoch back and resurrect revoked verdicts.
func TestEpochAnnouncementsOutOfOrder(t *testing.T) {
	rec := obs.NewRecorder()
	e := cluster.NewEdge("edge-0", "http://self.invalid", "http://origin.invalid",
		cluster.WithEdgeRecorder(rec))
	post := func(epoch uint64) {
		t.Helper()
		frame, err := cluster.EncodeFrame(cluster.EpochAnnounce{Epoch: epoch, Reason: "test"})
		if err != nil {
			t.Fatal(err)
		}
		w := httptest.NewRecorder()
		e.ServeHTTP(w, httptest.NewRequest(http.MethodPost, cluster.PathEpoch, bytes.NewReader(frame)))
		if w.Code != http.StatusNoContent {
			t.Fatalf("epoch announce returned %d: %s", w.Code, w.Body.String())
		}
	}
	post(5)
	post(3) // delayed announcement from before the bump to 5
	post(5) // duplicate delivery
	if got := e.Epoch(); got != 5 {
		t.Fatalf("epoch = %d after out-of-order delivery, want 5", got)
	}
	if got := rec.Counter("cluster.epoch_stale"); got != 1 {
		t.Errorf("epoch_stale = %d, want 1 (the rollback attempt)", got)
	}
	if got := rec.Counter("cluster.epoch_advance"); got != 1 {
		t.Errorf("epoch_advance = %d, want 1 (duplicates and rollbacks advance nothing)", got)
	}

	// A verdict push stamped under the stale epoch is likewise dead on
	// arrival.
	frame, err := cluster.EncodeFrame(cluster.Record{Key: strings.Repeat("ab", 32), Epoch: 3})
	if err != nil {
		t.Fatal(err)
	}
	w := httptest.NewRecorder()
	e.ServeHTTP(w, httptest.NewRequest(http.MethodPost, cluster.PathVerdicts, bytes.NewReader(frame)))
	if w.Code != http.StatusNoContent {
		t.Fatalf("verdict push returned %d", w.Code)
	}
	if got := e.Records(); got != 0 {
		t.Errorf("edge cached %d lagging pushed verdicts, want 0", got)
	}
}

// TestFilledVerdictMustReAddressContent pins the re-addressing
// guarantee: a fill whose verdict is keyed to anything but the locally
// recomputed digest of the presented content is rejected, so a
// compromised or confused origin cannot bind a verdict to different
// content.
func TestFilledVerdictMustReAddressContent(t *testing.T) {
	fake := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		frame, _ := cluster.EncodeFrame(cluster.Record{Key: "spoofed-key", Signer: "fp", Epoch: 0})
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Write(frame) //nolint:errcheck
	}))
	defer fake.Close()

	rec := obs.NewRecorder()
	e := cluster.NewEdge("edge-0", "http://self.invalid", fake.URL,
		cluster.WithEdgeRecorder(rec))
	_, _, err := e.OpenReader(context.Background(), bytes.NewReader([]byte(`<cluster id="c"><track/></cluster>`)))
	if !errors.Is(err, cluster.ErrKeyMismatch) {
		t.Fatalf("spoofed-key fill returned %v, want ErrKeyMismatch", err)
	}
	if got := rec.Counter("cluster.key_mismatch"); got != 1 {
		t.Errorf("key_mismatch = %d, want 1", got)
	}
	if got := e.Records(); got != 0 {
		t.Errorf("edge cached %d mis-keyed verdicts, want 0", got)
	}
}

// TestEdgeRejectsMalformedDocuments: the edge's single-pass digest is
// also its input gate — a document that does not parse never generates
// wire traffic.
func TestEdgeRejectsMalformedDocuments(t *testing.T) {
	rec := obs.NewRecorder()
	e := cluster.NewEdge("edge-0", "http://self.invalid", "http://origin.invalid",
		cluster.WithEdgeRecorder(rec))
	_, _, err := e.OpenReader(context.Background(), bytes.NewReader([]byte("<unclosed>")))
	if !errors.Is(err, library.ErrBadDocument) {
		t.Fatalf("malformed document returned %v, want ErrBadDocument", err)
	}
}

// TestEdgeMaxBodyCheckedBeforeKeying: a document of exactly the edge's
// limit is served; one byte more is refused with the terminal size
// error before it is keyed, not reported as malformed.
func TestEdgeMaxBodyCheckedBeforeKeying(t *testing.T) {
	f := newFleet(t, 1)
	doc := signedDoc(t, f.creator, 91)
	e := f.addEdge("edge-small", cluster.WithEdgeMaxBody(int64(len(doc))))
	ctx := context.Background()
	if _, st, err := e.OpenReader(ctx, bytes.NewReader(doc)); err != nil {
		t.Fatalf("document at the limit: status=%q err=%v", st, err)
	}
	for _, c := range []struct {
		name string
		tail string
	}{
		{"one byte over the limit", "\n"},
		// Cut at the limit, this body is not well-formed: keying it
		// first would report it as malformed.
		{"a comment over the limit", "<!-- trailing comment -->"},
	} {
		over := append(bytes.Clone(doc), c.tail...)
		_, _, err := e.OpenReader(ctx, bytes.NewReader(over))
		if !errors.Is(err, resilience.ErrTerminal) || !errors.Is(err, library.ErrTooLarge) || errors.Is(err, library.ErrBadDocument) {
			t.Errorf("%s: err = %v, want the terminal size error", c.name, err)
		}
	}
}

// TestHeartbeatFailureNamesGET: a heartbeat is a GET of the epoch
// route, and a 503 from the origin comes back transient, carrying the
// origin's Retry-After, in an error that names the verb it sent.
func TestHeartbeatFailureNamesGET(t *testing.T) {
	origin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "2")
		http.Error(w, "overloaded", http.StatusServiceUnavailable)
	}))
	defer origin.Close()
	e := cluster.NewEdge("edge-0", "http://127.0.0.1:0", origin.URL)
	err := e.Heartbeat(context.Background())
	if err == nil {
		t.Fatal("heartbeat against a 503 origin succeeded")
	}
	if want := "GET " + origin.URL + cluster.PathEpoch; !strings.Contains(err.Error(), want) {
		t.Errorf("heartbeat error %q does not name %q", err, want)
	}
	if !resilience.IsTransient(err) {
		t.Errorf("heartbeat error %q is not transient", err)
	}
	if after, ok := resilience.RetryAfter(err); !ok || after != 2*time.Second {
		t.Errorf("RetryAfter = %v, %v; want 2s", after, ok)
	}
}
