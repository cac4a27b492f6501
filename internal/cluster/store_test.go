package cluster_test

import (
	"bytes"
	"context"
	"encoding/hex"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"discsec/internal/cluster"
	"discsec/internal/experiments"
	"discsec/internal/keymgmt"
	"discsec/internal/library"
	"discsec/internal/workload"
)

// keyOrigin is a stand-in origin that vouches for whatever it is sent,
// keyed exactly as the edge keys it, so fills are cheap and always
// adopted.
func keyOrigin(t *testing.T) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		key, err := library.KeyBytes(nil, body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		frame, _ := cluster.EncodeFrame(cluster.Record{Key: key, Signer: testSigner, Signatures: 1})
		w.Write(frame) //nolint:errcheck
	}))
	t.Cleanup(srv.Close)
	return srv
}

// testSigner has the length of a real key fingerprint.
var testSigner = hex.EncodeToString(bytes.Repeat([]byte{0xfe}, 32))

// TestEdgeRecordsBounded is the edge's memory bound: more distinct
// records than its budget admits arrive as pushes and then as fills,
// and neither the record count nor the charged bytes ever pass the
// bound; the newest records are the ones kept.
func TestEdgeRecordsBounded(t *testing.T) {
	e := cluster.NewEdge("edge-0", "http://self.invalid", keyOrigin(t).URL)
	charge := cluster.RecordCharge(cluster.Record{Key: hex.EncodeToString(make([]byte, 32)), Signer: testSigner})
	capacity := int(cluster.RecordBudget / charge)
	check := func(when string) {
		t.Helper()
		if n, b := e.Records(), e.RecordBytes(); n > capacity || b > cluster.RecordBudget {
			t.Fatalf("%s: %d records charged %d bytes; bound is %d records, %d bytes", when, n, b, capacity, cluster.RecordBudget)
		}
	}

	// Pushes: distinct 64-hex keys, in POSTs that fit the route's body
	// limit.
	const perPost = 16384
	pushed := 0
	for pushed < capacity+perPost/2 {
		var body bytes.Buffer
		for i := 0; i < perPost; i++ {
			key := fmt.Sprintf("%064x", pushed)
			if err := cluster.WriteFrame(&body, cluster.Record{Key: key, Signer: testSigner, Signatures: 1}); err != nil {
				t.Fatal(err)
			}
			pushed++
		}
		w := httptest.NewRecorder()
		e.ServeHTTP(w, httptest.NewRequest(http.MethodPost, cluster.PathVerdicts, &body))
		if w.Code != http.StatusNoContent {
			t.Fatalf("push returned %d: %s", w.Code, w.Body.String())
		}
		check(fmt.Sprintf("after %d pushes", pushed))
	}
	if got := e.Records(); got != capacity {
		t.Fatalf("%d distinct pushes past the bound left %d records, want the full %d", pushed, got, capacity)
	}

	// Fills: each cold open adopts one more record into the full store.
	ctx := context.Background()
	const fills = 64
	for i := 0; i < fills; i++ {
		doc := fmt.Sprintf(`<cluster id="c%d"><track/></cluster>`, i)
		if _, st, err := e.OpenReader(ctx, bytes.NewReader([]byte(doc))); err != nil || st != cluster.StatusMiss {
			t.Fatalf("fill %d: status=%q err=%v", i, st, err)
		}
		check(fmt.Sprintf("after fill %d", i))
	}
	for i := 0; i < fills; i++ {
		doc := fmt.Sprintf(`<cluster id="c%d"><track/></cluster>`, i)
		if _, st, err := e.OpenReader(ctx, bytes.NewReader([]byte(doc))); err != nil || st != cluster.StatusHit {
			t.Fatalf("reopen %d: status=%q err=%v, want a hit on a filled record", i, st, err)
		}
	}
}

// TestOriginRecordsBounded is the origin's memory bound: it holds
// verdicts only in its library, so distinct fills past the library's
// budget leave Records and SizeBytes within that budget.
func TestOriginRecordsBounded(t *testing.T) {
	_, creator := experiments.PKIFixture()
	docs := make([][]byte, 128)
	var total int64
	minLen, maxLen := int64(1<<62), int64(0)
	for i := range docs {
		docs[i] = signedDoc(t, creator, uint64(500+i))
		n := int64(len(docs[i]))
		total += n
		minLen, maxLen = min(minLen, n), max(maxLen, n)
	}
	// Two of the largest documents per shard of the default sixteen:
	// about a quarter of the corpus.
	budget := 32 * maxLen
	if budget > total/2 {
		t.Fatalf("budget %d is not a fraction of the %d bytes filled", budget, total)
	}
	f := newFleet(t, 1, library.WithByteBudget(budget))
	ctx := context.Background()
	for i, doc := range docs {
		if _, _, err := f.edges[0].OpenReader(ctx, bytes.NewReader(doc)); err != nil {
			t.Fatalf("fill %d: %v", i, err)
		}
		if n, b := f.origin.Records(), f.lib.SizeBytes(); b > budget || int64(n) > budget/minLen {
			t.Fatalf("after fill %d: origin holds %d verdicts charged %d bytes over a %d-byte budget", i, n, b, budget)
		}
	}
	if got := f.originRec.Counter("library.miss"); got != int64(len(docs)) {
		t.Errorf("origin filled %d verdicts, want %d", got, len(docs))
	}
	if got := f.origin.Records(); got != f.lib.Len() || got >= len(docs) {
		t.Errorf("origin Records = %d, library holds %d; want them equal and below the %d fills", got, f.lib.Len(), len(docs))
	}
}

// TestPullAdoptsLibraryVerdicts pins the bootstrap pull: a fresh edge
// adopts exactly the origin library's valid resident verdicts, each
// stamped with the current fleet epoch; after a revocation none of the
// revoked signer's; and never an unsigned document's, which the library
// does not cache.
func TestPullAdoptsLibraryVerdicts(t *testing.T) {
	root, creator := experiments.PKIFixture()
	other, err := root.IssueIdentity("Pull Test Studio", keymgmt.ECDSAP256)
	if err != nil {
		t.Fatal(err)
	}
	svc := keymgmt.NewService(root.Pool())
	for _, id := range []*keymgmt.Identity{creator, other} {
		if err := svc.Register(id.Name, id.Cert, "pw"); err != nil {
			t.Fatal(err)
		}
	}
	// Signatures are not required, so unsigned documents bypass the
	// cache instead of failing.
	lib := library.New(library.WithTrustService(svc))
	origin := cluster.NewOrigin(lib, cluster.WithOriginTrust(svc))
	srv := httptest.NewServer(origin)
	defer srv.Close()
	ctx := context.Background()

	var creatorDocs, otherDocs, unsigned [][]byte
	for i := uint64(0); i < 3; i++ {
		creatorDocs = append(creatorDocs, signedDoc(t, creator, 600+i))
		otherDocs = append(otherDocs, signedDoc(t, other, 700+i))
		cl, _ := workload.Cluster(workload.ClusterSpec{AppTracks: 1, Seed: 800 + i})
		unsigned = append(unsigned, cl.Document().Bytes())
	}
	filler := cluster.NewEdge("filler", "http://self.invalid", srv.URL)
	signed := map[string]bool{}
	for _, set := range [][][]byte{creatorDocs, otherDocs, unsigned} {
		for _, doc := range set {
			rd, _, err := filler.OpenReader(ctx, bytes.NewReader(doc))
			if err != nil {
				t.Fatal(err)
			}
			if rd.Signatures > 0 {
				signed[rd.Key] = true
			}
		}
	}
	if len(signed) != 6 || lib.Len() != 6 || origin.Records() != 6 {
		t.Fatalf("%d signed keys, library holds %d, origin reports %d; want 6 each", len(signed), lib.Len(), origin.Records())
	}

	pull := func(name string, docs [][]byte) *cluster.Edge {
		t.Helper()
		e := cluster.NewEdge(name, "http://self.invalid", srv.URL)
		if err := e.Heartbeat(ctx); err != nil {
			t.Fatal(err)
		}
		n, err := e.Pull(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if n != len(docs) || e.Records() != len(docs) {
			t.Fatalf("%s adopted %d records (holds %d), want %d", name, n, e.Records(), len(docs))
		}
		for i, doc := range docs {
			rd, st, err := e.OpenReader(ctx, bytes.NewReader(doc))
			if err != nil || st != cluster.StatusHit {
				t.Fatalf("%s doc %d: status=%q err=%v, want a pulled hit", name, i, st, err)
			}
			if rd.Epoch != origin.Epoch() || rd.Signatures != 1 || rd.Signer == "" {
				t.Errorf("%s doc %d: pulled %+v, want a signed record at epoch %d", name, i, rd, origin.Epoch())
			}
		}
		return e
	}

	fresh := pull("fresh", append(append([][]byte(nil), creatorDocs...), otherDocs...))
	for i, doc := range unsigned {
		if _, st, err := fresh.OpenReader(ctx, bytes.NewReader(doc)); err != nil || st == cluster.StatusHit {
			t.Errorf("unsigned doc %d: status=%q err=%v; an unsigned document was pulled", i, st, err)
		}
	}

	if err := svc.Revoke(creator.Name, "pw"); err != nil {
		t.Fatal(err)
	}
	if origin.Epoch() == 0 {
		t.Fatal("revocation did not advance the fleet epoch")
	}
	late := pull("late", otherDocs)
	for i, doc := range creatorDocs {
		if _, st, err := late.OpenReader(ctx, bytes.NewReader(doc)); err == nil || st == cluster.StatusHit {
			t.Errorf("revoked signer's doc %d: status=%q err=%v; it was pulled or refilled", i, st, err)
		}
	}
}
