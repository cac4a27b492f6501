package library_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"discsec/internal/c14n"
	"discsec/internal/core"
	"discsec/internal/disc"
	"discsec/internal/experiments"
	"discsec/internal/keymgmt"
	"discsec/internal/library"
	"discsec/internal/obs"
	"discsec/internal/workload"
	"discsec/internal/xmldom"
	"discsec/internal/xmldsig"
	"discsec/internal/xmlenc"
	"discsec/internal/xmlsecuri"
)

// buildImage packs a signed, partially encrypted disc; seed varies the
// content so distinct seeds produce distinct canonical digests.
func buildImage(t testing.TB, seed uint64) *disc.Image {
	t.Helper()
	_, creator := experiments.PKIFixture()
	cluster, clips := workload.Cluster(workload.ClusterSpec{
		AVTracks:  1,
		AppTracks: 1,
		Manifest: workload.ManifestSpec{
			Regions: 2, MediaItems: 2, Scripts: 1, ScriptStatements: 10,
		},
		ClipDurationMS: 50, ClipBitrateKbps: 100,
		Seed: seed,
	})
	p := &core.Protector{Identity: creator}
	im, err := p.Package(core.PackageSpec{
		Cluster:      cluster,
		Clips:        clips,
		Sign:         true,
		SignLevel:    core.LevelCluster,
		EncryptPaths: []string{"//manifest/code"},
		Encryption:   xmlenc.EncryptOptions{Algorithm: xmlsecuri.EncAES128CBC, Key: experiments.EncKey},
		SignClips:    true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return im
}

func indexBytes(t testing.TB, im *disc.Image) []byte {
	t.Helper()
	raw, err := im.ReadIndexDocumentBytes()
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// testOpener is the one trust configuration every test library verifies
// under.
func testOpener() core.Opener {
	root, _ := experiments.PKIFixture()
	return core.Opener{
		Roots:            root.Pool(),
		Decrypt:          xmlenc.DecryptOptions{Key: experiments.EncKey},
		RequireSignature: true,
	}
}

func newLib(rec *obs.Recorder, opts ...library.Option) *library.Library {
	return library.New(append([]library.Option{
		library.WithOpener(testOpener()),
		library.WithRecorder(rec),
	}, opts...)...)
}

func TestOpenDocumentCachesVerdicts(t *testing.T) {
	rec := obs.NewRecorder()
	lib := newLib(rec)
	raw := indexBytes(t, buildImage(t, 1))

	v1, st, err := lib.OpenDocument(context.Background(), raw)
	if err != nil {
		t.Fatal(err)
	}
	if st != library.StatusMiss {
		t.Fatalf("first open status = %q, want miss", st)
	}
	if v1.Fingerprint == "" {
		t.Fatal("verdict has no signer fingerprint")
	}
	if v1.Cluster.FindTrack("t-app-1") == nil {
		t.Fatal("verdict cluster lost its application track")
	}

	v2, st, err := lib.OpenDocument(context.Background(), raw)
	if err != nil {
		t.Fatal(err)
	}
	if st != library.StatusHit {
		t.Fatalf("second open status = %q, want hit", st)
	}
	if v2 != v1 {
		t.Fatal("hit returned a different verdict instance")
	}
	if got := rec.Counter("library.miss"); got != 1 {
		t.Fatalf("miss counter = %d, want 1", got)
	}
	if got := rec.Counter("library.hit"); got != 1 {
		t.Fatalf("hit counter = %d, want 1", got)
	}
	if lib.Len() != 1 {
		t.Fatalf("resident entries = %d, want 1", lib.Len())
	}
}

// TestSingleflightCollapses64 pins the acceptance criterion: 64
// concurrent identical requests trigger exactly one verification.
func TestSingleflightCollapses64(t *testing.T) {
	rec := obs.NewRecorder()
	lib := newLib(rec)
	raw := indexBytes(t, buildImage(t, 2))

	const n = 64
	var (
		start  sync.WaitGroup
		done   sync.WaitGroup
		misses atomic.Int64
	)
	start.Add(1)
	done.Add(n)
	for i := 0; i < n; i++ {
		go func() {
			defer done.Done()
			start.Wait()
			v, st, err := lib.OpenDocument(context.Background(), raw)
			if err != nil {
				t.Errorf("open: %v", err)
				return
			}
			if v == nil || v.Cluster == nil {
				t.Error("open returned no verdict")
			}
			if st == library.StatusMiss {
				misses.Add(1)
			}
		}()
	}
	start.Done()
	done.Wait()

	if got := misses.Load(); got != 1 {
		t.Fatalf("%d of %d concurrent opens verified, want exactly 1", got, n)
	}
	if got := rec.Counter("library.miss"); got != 1 {
		t.Fatalf("miss counter = %d, want 1", got)
	}
	// The 63 non-leaders either joined the in-flight verification or
	// arrived after it cached — never a second verification.
	hits := rec.Counter("library.hit")
	waits := rec.Counter("library.singleflight_wait")
	if hits+waits != n-1 {
		t.Errorf("hits(%d) + waits(%d) != %d", hits, waits, n-1)
	}
}

func TestUnsignedDocumentBypassesCache(t *testing.T) {
	rec := obs.NewRecorder()
	op := testOpener()
	op.RequireSignature = false
	lib := library.New(library.WithOpener(op), library.WithRecorder(rec))

	cluster, _ := workload.Cluster(workload.ClusterSpec{AppTracks: 1, Seed: 3})
	raw := cluster.Document().Bytes()

	v, st, err := lib.OpenDocument(context.Background(), raw)
	if err != nil {
		t.Fatal(err)
	}
	if st != library.StatusBypass {
		t.Fatalf("status = %q, want bypass", st)
	}
	if v.Fingerprint != "" {
		t.Fatalf("unsigned verdict has fingerprint %q", v.Fingerprint)
	}
	if lib.Len() != 0 {
		t.Fatalf("unsigned verdict cached: %d resident entries", lib.Len())
	}
	if got := rec.Counter("library.bypass"); got != 1 {
		t.Fatalf("bypass counter = %d, want 1", got)
	}
}

// TestVerdictsHoldNoTree: no verdict keeps the verified tree alive —
// not a filled one, not the same one served as a hit, and not an
// uncached unsigned one.
func TestVerdictsHoldNoTree(t *testing.T) {
	ctx := context.Background()
	op := testOpener()
	op.RequireSignature = false
	lib := library.New(library.WithOpener(op))
	signed := indexBytes(t, buildImage(t, 1))
	unsigned, _ := workload.Cluster(workload.ClusterSpec{AppTracks: 1, Seed: 3})
	for _, tc := range []struct {
		raw  []byte
		want library.Status
	}{
		{signed, library.StatusMiss},
		{signed, library.StatusHit},
		{unsigned.Document().Bytes(), library.StatusBypass},
	} {
		v, st, err := lib.OpenDocument(ctx, tc.raw)
		if err != nil || st != tc.want {
			t.Fatalf("status = %q err = %v, want %q", st, err, tc.want)
		}
		if v.Result.Doc != nil {
			t.Errorf("%s verdict pins the verified tree", st)
		}
		if v.Cluster == nil {
			t.Errorf("%s verdict has no model", st)
		}
	}
}

func TestByteBudgetEvicts(t *testing.T) {
	rec := obs.NewRecorder()
	raw := indexBytes(t, buildImage(t, 4))
	// Budget fits roughly two documents in one shard, so the third
	// insert must evict the least recently used.
	lib := newLib(rec,
		library.WithShards(1),
		library.WithByteBudget(int64(len(raw))*2+int64(len(raw))/2),
	)
	for seed := uint64(4); seed < 8; seed++ {
		if _, _, err := lib.OpenDocument(context.Background(), indexBytes(t, buildImage(t, seed))); err != nil {
			t.Fatal(err)
		}
	}
	if got := rec.Counter("library.evict"); got == 0 {
		t.Error("no evictions under a two-document budget and four fills")
	}
	if n := lib.Len(); n > 2 {
		t.Errorf("%d resident entries exceed the byte budget", n)
	}
}

// keyNameDoc builds a cluster signed with a KeyName-only signature:
// verification must resolve the key through the trust service, so
// revocation genuinely changes the verification outcome.
func keyNameDoc(t *testing.T, seed uint64) []byte {
	t.Helper()
	_, creator := experiments.PKIFixture()
	cluster, _ := workload.Cluster(workload.ClusterSpec{AppTracks: 1, Seed: seed})
	doc := cluster.Document()
	if _, err := xmldsig.SignEnveloped(doc, doc.Root(), xmldsig.SignOptions{
		Key:     creator.Key,
		KeyInfo: xmldsig.KeyInfoSpec{KeyName: creator.Name},
	}); err != nil {
		t.Fatal(err)
	}
	return doc.Bytes()
}

// TestRevokedSignerUnreachable pins the epoch-bump invariant: after a
// revocation, the revoked signer's verdicts are unreachable even while
// still resident, and re-verification fails closed.
func TestRevokedSignerUnreachable(t *testing.T) {
	root, creator := experiments.PKIFixture()
	svc := keymgmt.NewService(root.Pool())
	if err := svc.Register(creator.Name, creator.Cert, "pw"); err != nil {
		t.Fatal(err)
	}
	rec := obs.NewRecorder()
	lib := library.New(
		library.WithOpener(core.Opener{RequireSignature: true}),
		library.WithTrustService(svc), // wires KeyByName + OnRevoke
		library.WithRecorder(rec),
	)
	raw := keyNameDoc(t, 10)

	if _, st, err := lib.OpenDocument(context.Background(), raw); err != nil || st != library.StatusMiss {
		t.Fatalf("fill: status=%q err=%v", st, err)
	}
	if _, st, err := lib.OpenDocument(context.Background(), raw); err != nil || st != library.StatusHit {
		t.Fatalf("warm: status=%q err=%v", st, err)
	}

	if err := svc.Revoke(creator.Name, "pw"); err != nil {
		t.Fatal(err)
	}
	// The verdict is still resident — invalidation is lazy — but must
	// be unreachable: the lookup skips it and re-verification against
	// the revoked binding fails closed.
	if lib.Len() != 1 {
		t.Fatalf("resident entries = %d, want the stale verdict still resident", lib.Len())
	}
	v, st, err := lib.OpenDocument(context.Background(), raw)
	if err == nil {
		t.Fatalf("revoked signer's document served: status=%q verdict=%v", st, v != nil)
	}
	if !errors.Is(err, keymgmt.ErrRevoked) && !strings.Contains(err.Error(), "revoked") {
		t.Errorf("err = %v, want revocation failure", err)
	}
	if got := rec.Counter("library.invalidated"); got != 1 {
		t.Errorf("invalidated counter = %d, want 1", got)
	}
	if got := rec.Counter("library.hit"); got != 1 {
		t.Errorf("hit counter = %d after revocation, want the single pre-revocation hit", got)
	}
}

// TestReissueInvalidates pins that key rollover also flushes the old
// key's verdicts (the new key must re-vouch for everything).
func TestReissueInvalidates(t *testing.T) {
	root, creator := experiments.PKIFixture()
	svc := keymgmt.NewService(root.Pool())
	if err := svc.Register(creator.Name, creator.Cert, "pw"); err != nil {
		t.Fatal(err)
	}
	rec := obs.NewRecorder()
	lib := library.New(
		library.WithOpener(core.Opener{RequireSignature: true}),
		library.WithTrustService(svc),
		library.WithRecorder(rec),
	)
	raw := keyNameDoc(t, 11)
	if _, _, err := lib.OpenDocument(context.Background(), raw); err != nil {
		t.Fatal(err)
	}
	if err := svc.Reissue(creator.Name, creator.Cert, "pw"); err != nil {
		t.Fatal(err)
	}
	// Same certificate reissued: re-verification succeeds, but the old
	// verdict must not have been served from cache.
	if _, st, err := lib.OpenDocument(context.Background(), raw); err != nil || st != library.StatusMiss {
		t.Fatalf("post-reissue open: status=%q err=%v, want a fresh miss", st, err)
	}
}

func TestInvalidateAll(t *testing.T) {
	rec := obs.NewRecorder()
	lib := newLib(rec)
	raw := indexBytes(t, buildImage(t, 12))
	if _, _, err := lib.OpenDocument(context.Background(), raw); err != nil {
		t.Fatal(err)
	}
	lib.InvalidateAll()
	if _, st, err := lib.OpenDocument(context.Background(), raw); err != nil || st != library.StatusMiss {
		t.Fatalf("post-epoch-bump open: status=%q err=%v, want miss", st, err)
	}
}

func TestMountPrewarmsAndServesWarmTracks(t *testing.T) {
	rec := obs.NewRecorder()
	lib := newLib(rec)
	im := buildImage(t, 13)
	if err := lib.Mount(context.Background(), "disc-a", im); err != nil {
		t.Fatal(err)
	}
	if got := rec.Counter("library.prewarm"); got == 0 {
		t.Error("mount ran no prewarm tasks")
	}

	track, v, st, err := lib.OpenTrack(context.Background(), "disc-a", "t-app-1")
	if err != nil {
		t.Fatal(err)
	}
	if st != library.StatusHit {
		t.Fatalf("post-mount OpenTrack status = %q, want hit (prewarmed)", st)
	}
	if track.Kind != disc.TrackApplication || track.Manifest == nil {
		t.Fatal("OpenTrack returned a non-application track")
	}
	if v.Fingerprint == "" {
		t.Fatal("mounted verdict has no signer fingerprint")
	}

	xml, _, _, err := lib.TrackXML(context.Background(), "disc-a", "t-av-1")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(xml), `Id="t-av-1"`) {
		t.Errorf("track XML does not carry the track id: %.120s", xml)
	}

	if _, _, _, err := lib.OpenTrack(context.Background(), "disc-a", "nope"); !errors.Is(err, library.ErrNoTrack) {
		t.Errorf("unknown track err = %v, want ErrNoTrack", err)
	}
	if _, _, _, err := lib.OpenTrack(context.Background(), "ghost", "t-app-1"); !errors.Is(err, library.ErrNotMounted) {
		t.Errorf("unknown disc err = %v, want ErrNotMounted", err)
	}
	if err := lib.Mount(context.Background(), "disc-a", im); !errors.Is(err, library.ErrAlreadyMounted) {
		t.Errorf("duplicate mount err = %v, want ErrAlreadyMounted", err)
	}
	if !lib.Unmount("disc-a") {
		t.Error("unmount reported the disc missing")
	}
	if _, _, _, err := lib.OpenTrack(context.Background(), "disc-a", "t-app-1"); !errors.Is(err, library.ErrNotMounted) {
		t.Errorf("post-unmount err = %v, want ErrNotMounted", err)
	}
}

// TestMountFailsClosedOnTamper pins the prewarm fail-closed invariant:
// a disc whose index no longer verifies is never registered.
func TestMountFailsClosedOnTamper(t *testing.T) {
	lib := newLib(obs.NewRecorder())
	im := buildImage(t, 14)
	raw := indexBytes(t, im)
	tampered := []byte(strings.Replace(string(raw), "region-1", "region-X", 1))
	if err := im.Put(disc.IndexPath, tampered); err != nil {
		t.Fatal(err)
	}
	if err := lib.Mount(context.Background(), "evil", im); err == nil {
		t.Fatal("tampered disc mounted")
	}
	if _, _, _, err := lib.OpenTrack(context.Background(), "evil", "t-app-1"); !errors.Is(err, library.ErrNotMounted) {
		t.Errorf("failed mount left the disc reachable: %v", err)
	}
}

// TestDegradedTrustServing pins the SECURITY.md policy: hits during a
// trust outage are served but audited; verdicts filled during the
// outage are re-verified as soon as trust recovers.
func TestDegradedTrustServing(t *testing.T) {
	var degraded atomic.Bool
	rec := obs.NewRecorder()
	lib := newLib(rec, library.WithDegradedFunc(degraded.Load))
	raw := indexBytes(t, buildImage(t, 15))

	// Fill with live trust, then degrade: the hit is served + audited.
	if _, _, err := lib.OpenDocument(context.Background(), raw); err != nil {
		t.Fatal(err)
	}
	degraded.Store(true)
	if _, st, err := lib.OpenDocument(context.Background(), raw); err != nil || st != library.StatusHit {
		t.Fatalf("degraded hit: status=%q err=%v", st, err)
	}
	if got := rec.Counter("library.degraded_serve"); got != 1 {
		t.Fatalf("degraded_serve counter = %d, want 1", got)
	}
	found := false
	for _, ev := range rec.AuditTrail() {
		if ev.Kind == obs.AuditDegradedServe {
			found = true
		}
	}
	if !found {
		t.Error("degraded serve not audited")
	}

	// A verdict filled *during* the outage carries the taint...
	raw2 := indexBytes(t, buildImage(t, 16))
	v2, _, err := lib.OpenDocument(context.Background(), raw2)
	if err != nil {
		t.Fatal(err)
	}
	if !v2.Degraded {
		t.Fatal("outage-filled verdict not marked degraded")
	}
	// ...and is re-verified once trust recovers.
	degraded.Store(false)
	v3, st, err := lib.OpenDocument(context.Background(), raw2)
	if err != nil {
		t.Fatal(err)
	}
	if st != library.StatusMiss {
		t.Fatalf("post-recovery open status = %q, want re-verification miss", st)
	}
	if v3.Degraded {
		t.Error("re-verified verdict still marked degraded")
	}
}

func TestCanonicalKeyIgnoresSerializationChangesKeyDetectsStructural(t *testing.T) {
	cluster, _ := workload.Cluster(workload.ClusterSpec{AppTracks: 1, Seed: 17})
	doc := cluster.Document()
	k1, err := library.CanonicalKey(doc, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Reparse (fresh serialization round-trip): same canonical key.
	reparsed, err := xmldom.ParseBytes(doc.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	k2, err := library.CanonicalKey(reparsed, nil)
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Error("canonical key changed across a serialization round-trip")
	}
	// A wrapping-style structural change — injecting a sibling the
	// engine would read — must change the key.
	doc.Root().CreateChild("track").SetAttr("Id", "t-wrapped")
	k3, err := library.CanonicalKey(doc, nil)
	if err != nil {
		t.Fatal(err)
	}
	if k3 == k1 {
		t.Error("canonical key blind to an injected sibling element")
	}
}

// TestOpenReaderSharesVerdictWithOpenDocument: the streaming and
// byte-slice entries key on the same exclusive-C14N digest, so a
// document opened one way is a cache hit the other way — the core
// differential contract of the reader-first cold path.
func TestOpenReaderSharesVerdictWithOpenDocument(t *testing.T) {
	im := buildImage(t, 70)
	raw := indexBytes(t, im)
	rec := obs.NewRecorder()
	lib := newLib(rec)

	v1, st1, err := lib.OpenDocument(context.Background(), raw)
	if err != nil {
		t.Fatal(err)
	}
	if st1 != library.StatusMiss {
		t.Fatalf("first open status = %v, want miss", st1)
	}

	v2, st2, err := lib.OpenReader(context.Background(), strings.NewReader(string(raw)))
	if err != nil {
		t.Fatal(err)
	}
	if st2 != library.StatusHit {
		t.Errorf("streamed re-open status = %v, want hit", st2)
	}
	if v2.Key != v1.Key {
		t.Errorf("streaming key %q != DOM key %q", v2.Key, v1.Key)
	}
	if v2 != v1 {
		t.Error("streamed open did not return the shared verdict")
	}

	// The key is the canonical digest of the tree-walking
	// canonicalizer: hex SHA-256 over c14n.CanonicalizeDocument.
	doc, err := xmldom.ParseBytes(raw)
	if err != nil {
		t.Fatal(err)
	}
	canon, err := c14n.CanonicalizeDocument(doc, c14n.Options{Exclusive: true})
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(canon)
	if want := hex.EncodeToString(sum[:]); v1.Key != want {
		t.Errorf("cache key %q != tree-walker canonical digest %q", v1.Key, want)
	}
}

// TestOpenReaderBadDocument: tokenizer rejections surface as
// ErrBadDocument from both entries — the server's 400 contract.
func TestOpenReaderBadDocument(t *testing.T) {
	lib := newLib(obs.NewRecorder())
	for _, bad := range []string{"<open>unclosed", `<!DOCTYPE a []><a/>`, ""} {
		if _, _, err := lib.OpenReader(context.Background(), strings.NewReader(bad)); !errors.Is(err, library.ErrBadDocument) {
			t.Errorf("OpenReader(%q) err = %v, want ErrBadDocument", bad, err)
		}
		if _, _, err := lib.OpenDocument(context.Background(), []byte(bad)); !errors.Is(err, library.ErrBadDocument) {
			t.Errorf("OpenDocument(%q) err = %v, want ErrBadDocument", bad, err)
		}
	}
}
