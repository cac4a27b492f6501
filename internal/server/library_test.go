package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"discsec/internal/core"
	"discsec/internal/disc"
	"discsec/internal/keymgmt"
	"discsec/internal/library"
	"discsec/internal/obs"
	"discsec/internal/workload"
	"discsec/internal/xmldsig"
	"discsec/internal/xmlenc"
	"discsec/internal/xmlsecuri"
)

// libraryPKI is a local stand-in for experiments.PKIFixture — the
// experiments package imports player (and thus server), so the server
// tests build their own root and creator identity.
func libraryPKI(t *testing.T) (*keymgmt.CA, *keymgmt.Identity) {
	t.Helper()
	root, err := keymgmt.NewRootCA("Library Test Root", keymgmt.ECDSAP256)
	if err != nil {
		t.Fatal(err)
	}
	creator, err := root.IssueIdentity("Library Test Studio", keymgmt.ECDSAP256)
	if err != nil {
		t.Fatal(err)
	}
	return root, creator
}

func libraryFixture(t *testing.T) (*library.Library, *obs.Recorder) {
	t.Helper()
	root, creator := libraryPKI(t)
	encKey := workload.Bytes(16, 0x5EC)
	cluster, clips := workload.Cluster(workload.ClusterSpec{
		AVTracks: 1, AppTracks: 1, Seed: 40,
	})
	p := &core.Protector{Identity: creator}
	im, err := p.Package(core.PackageSpec{
		Cluster:      cluster,
		Clips:        clips,
		Sign:         true,
		SignLevel:    core.LevelCluster,
		EncryptPaths: []string{"//manifest/code"},
		Encryption:   xmlenc.EncryptOptions{Algorithm: xmlsecuri.EncAES128CBC, Key: encKey},
		SignClips:    true,
	})
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.NewRecorder()
	lib := library.New(
		library.WithOpener(core.Opener{
			Roots:            root.Pool(),
			Decrypt:          xmlenc.DecryptOptions{Key: encKey},
			RequireSignature: true,
		}),
		library.WithRecorder(rec),
	)
	if err := lib.Mount(context.Background(), "disc-a", im); err != nil {
		t.Fatal(err)
	}
	return lib, rec
}

func TestLibraryRoutes(t *testing.T) {
	lib, _ := libraryFixture(t)
	cs := NewContentServer(WithLibrary(lib))
	srv := httptest.NewServer(cs)
	defer srv.Close()

	get := func(path string) (*http.Response, string) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp, string(body)
	}

	resp, body := get("/library/")
	if resp.StatusCode != http.StatusOK || !strings.Contains(body, "disc-a") {
		t.Fatalf("mount listing: status=%d body=%q", resp.StatusCode, body)
	}

	// Disc listing: the index was verified at Mount, so this is a hit.
	resp, body = get("/library/disc-a")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("disc listing status = %d", resp.StatusCode)
	}
	if got := resp.Header.Get(HeaderLibraryCache); got != string(library.StatusHit) {
		t.Errorf("%s = %q, want hit (prewarmed at mount)", HeaderLibraryCache, got)
	}
	if !strings.Contains(body, "t-av-1") || !strings.Contains(body, "t-app-1") {
		t.Errorf("track listing missing tracks: %q", body)
	}

	resp, body = get("/library/disc-a/t-av-1")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("track fetch status = %d", resp.StatusCode)
	}
	if got := resp.Header.Get(HeaderLibraryCache); got != string(library.StatusHit) {
		t.Errorf("%s = %q, want hit", HeaderLibraryCache, got)
	}
	if resp.Header.Get(HeaderLibrarySigner) == "" {
		t.Error("verified response carries no signer fingerprint header")
	}
	if resp.Header.Get(HeaderLibraryDegraded) != "" {
		t.Error("healthy-trust response marked degraded")
	}
	if etag := resp.Header.Get("ETag"); len(etag) < 10 {
		t.Errorf("ETag = %q, want the canonical digest", etag)
	}
	if !strings.Contains(body, `Id="t-av-1"`) {
		t.Errorf("track body is not the track element: %.120q", body)
	}

	// Unknown names are 404s, not verification errors.
	if resp, _ := get("/library/no-such-disc"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown disc status = %d, want 404", resp.StatusCode)
	}
	if resp, _ := get("/library/disc-a/no-such-track"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown track status = %d, want 404", resp.StatusCode)
	}
}

// TestLibraryRouteFailsClosed: when the disc's verdict is invalidated
// and re-verification cannot succeed (trust config no longer accepts the
// signer), the route answers 502 — it never serves the resident bytes.
func TestLibraryRouteFailsClosed(t *testing.T) {
	cluster, _ := workload.Cluster(workload.ClusterSpec{AVTracks: 1, Seed: 41})
	doc := cluster.Document()
	im := disc.NewImage()
	if err := im.Put(disc.IndexPath, doc.Bytes()); err != nil {
		t.Fatal(err)
	}
	// An unsigned disc under RequireSignature: Mount itself must fail,
	// and the route must keep failing closed (404: never registered).
	rec := obs.NewRecorder()
	lib := library.New(
		library.WithOpener(core.Opener{RequireSignature: true}),
		library.WithRecorder(rec),
	)
	if err := lib.Mount(context.Background(), "disc-x", im); err == nil {
		t.Fatal("unsigned disc mounted under RequireSignature")
	}

	srvRec := obs.NewRecorder()
	cs := NewContentServer(WithLibrary(lib), WithRecorder(srvRec))
	srv := httptest.NewServer(cs)
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/library/disc-x/t-av-1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unregistered disc status = %d, want 404", resp.StatusCode)
	}

	// A registered disc whose trust is pulled out from under it: the
	// KeyName-signed disc mounts while the signer is valid; after
	// revocation the resident verdict is unreachable, re-verification
	// fails, and the route answers 502 — never the resident bytes.
	root, creator := libraryPKI(t)
	svc := keymgmt.NewService(root.Pool())
	if err := svc.Register(creator.Name, creator.Cert, "pw"); err != nil {
		t.Fatal(err)
	}
	kcluster, _ := workload.Cluster(workload.ClusterSpec{AVTracks: 1, Seed: 42})
	kdoc := kcluster.Document()
	if _, err := xmldsig.SignEnveloped(kdoc, kdoc.Root(), xmldsig.SignOptions{
		Key:     creator.Key,
		KeyInfo: xmldsig.KeyInfoSpec{KeyName: creator.Name},
	}); err != nil {
		t.Fatal(err)
	}
	kim := disc.NewImage()
	if err := kim.Put(disc.IndexPath, kdoc.Bytes()); err != nil {
		t.Fatal(err)
	}
	lib2 := library.New(
		library.WithOpener(core.Opener{RequireSignature: true}),
		library.WithTrustService(svc),
		library.WithRecorder(obs.NewRecorder()),
	)
	if err := lib2.Mount(context.Background(), "disc-k", kim); err != nil {
		t.Fatal(err)
	}
	cs2Rec := obs.NewRecorder()
	cs2 := NewContentServer(WithLibrary(lib2), WithRecorder(cs2Rec))
	srv2 := httptest.NewServer(cs2)
	defer srv2.Close()

	resp2, err := http.Get(srv2.URL + "/library/disc-k/t-av-1")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("pre-revocation track fetch status = %d", resp2.StatusCode)
	}

	if err := svc.Revoke(creator.Name, "pw"); err != nil {
		t.Fatal(err)
	}
	resp3, err := http.Get(srv2.URL + "/library/disc-k/t-av-1")
	if err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusBadGateway {
		t.Fatalf("post-revocation status = %d, want 502 fail-closed", resp3.StatusCode)
	}
	if got := cs2Rec.Counter("http.library.failclosed"); got != 1 {
		t.Errorf("failclosed counter = %d, want 1", got)
	}
}

// TestLibraryRouteNoLibrary: without WithLibrary the prefix is plain
// 404 — no panic, no accidental content-route fallthrough.
func TestLibraryRouteNoLibrary(t *testing.T) {
	cs := NewContentServer()
	srv := httptest.NewServer(cs)
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/library/disc-a/t-av-1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status = %d, want 404", resp.StatusCode)
	}
}

// TestVerifyRoute: POST /verify streams an arbitrary document through
// the shared verification library and returns the verdict as JSON —
// the reader-first cold path exposed over HTTP.
func TestVerifyRoute(t *testing.T) {
	root, creator := libraryPKI(t)
	cluster, _ := workload.Cluster(workload.ClusterSpec{AVTracks: 1, Seed: 43})
	doc := cluster.Document()
	if _, err := xmldsig.SignEnveloped(doc, doc.Root(), xmldsig.SignOptions{
		Key:     creator.Key,
		KeyInfo: xmldsig.KeyInfoSpec{Certificates: [][]byte{creator.Cert.Raw}},
	}); err != nil {
		t.Fatal(err)
	}
	raw := doc.Bytes()

	rec := obs.NewRecorder()
	lib := library.New(
		library.WithOpener(core.Opener{Roots: root.Pool(), RequireSignature: true}),
		library.WithRecorder(rec),
	)
	srvRec := obs.NewRecorder()
	cs := NewContentServer(WithLibrary(lib), WithRecorder(srvRec))
	srv := httptest.NewServer(cs)
	defer srv.Close()

	post := func(body []byte) (*http.Response, verifyResponse) {
		t.Helper()
		resp, err := http.Post(srv.URL+"/verify", "application/xml", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var vr verifyResponse
		if resp.StatusCode == http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(&vr); err != nil {
				t.Fatalf("decoding verify response: %v", err)
			}
		}
		resp.Body.Close()
		return resp, vr
	}

	// Cold: the body streams through the full pipeline and fills the
	// cache.
	resp, vr := post(raw)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cold verify status = %d", resp.StatusCode)
	}
	if vr.Cache != string(library.StatusMiss) {
		t.Errorf("cold verify cache = %q, want miss", vr.Cache)
	}
	if vr.Signatures != 1 || vr.Signer == "" || len(vr.Key) != 64 {
		t.Errorf("verify response = %+v, want 1 signature, a signer, a 64-hex key", vr)
	}
	if got := resp.Header.Get(HeaderLibraryCache); got != string(library.StatusMiss) {
		t.Errorf("%s = %q, want miss", HeaderLibraryCache, got)
	}

	// Warm: the same bytes hit the cached verdict by canonical digest.
	resp, vr2 := post(raw)
	if resp.StatusCode != http.StatusOK || vr2.Cache != string(library.StatusHit) {
		t.Errorf("warm verify status=%d cache=%q, want 200 hit", resp.StatusCode, vr2.Cache)
	}
	if vr2.Key != vr.Key {
		t.Errorf("warm key %q != cold key %q", vr2.Key, vr.Key)
	}

	// Malformed XML is the client's fault: 400, not 502.
	resp, _ = post([]byte("<open>unclosed"))
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed doc status = %d, want 400", resp.StatusCode)
	}
	if got := srvRec.Counter("http.library.baddocument"); got != 1 {
		t.Errorf("baddocument counter = %d, want 1", got)
	}

	// A DOCTYPE is rejected by the hardened tokenizer, same contract.
	resp, _ = post([]byte(`<!DOCTYPE a []><a/>`))
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("doctype doc status = %d, want 400", resp.StatusCode)
	}

	// An unsigned document under RequireSignature fails verification:
	// fail-closed 502.
	resp, _ = post([]byte(`<a/>`))
	if resp.StatusCode != http.StatusBadGateway {
		t.Errorf("unsigned doc status = %d, want 502", resp.StatusCode)
	}

	// POST anywhere else stays a method error.
	r2, err := http.Post(srv.URL+"/catalog", "text/plain", strings.NewReader("x"))
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if r2.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /catalog status = %d, want 405", r2.StatusCode)
	}
}

// TestMetricszShowsAdmitReject: a verdict the library refuses at
// admission is counted, and /metricsz shows the count when the library
// and the server share a recorder.
func TestMetricszShowsAdmitReject(t *testing.T) {
	root, creator := libraryPKI(t)
	docs := make([][]byte, 2)
	for i := range docs {
		cluster, _ := workload.Cluster(workload.ClusterSpec{AVTracks: 1, Seed: uint64(60 + i)})
		doc := cluster.Document()
		if _, err := xmldsig.SignEnveloped(doc, doc.Root(), xmldsig.SignOptions{
			Key:     creator.Key,
			KeyInfo: xmldsig.KeyInfoSpec{Certificates: [][]byte{creator.Cert.Raw}},
		}); err != nil {
			t.Fatal(err)
		}
		docs[i] = doc.Bytes()
	}
	rec := obs.NewRecorder()
	// Room for one verdict: the second, opened as often as the first,
	// is refused rather than evict it.
	lib := library.New(
		library.WithOpener(core.Opener{Roots: root.Pool(), RequireSignature: true}),
		library.WithRecorder(rec),
		library.WithShards(1),
		library.WithByteBudget(int64(max(len(docs[0]), len(docs[1])))*3/2),
	)
	cs := NewContentServer(WithLibrary(lib), WithRecorder(rec))
	for i, raw := range docs {
		w := httptest.NewRecorder()
		cs.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/verify", bytes.NewReader(raw)))
		if w.Code != http.StatusOK || w.Header().Get(HeaderLibraryCache) != string(library.StatusMiss) {
			t.Fatalf("verify %d: %d %q", i, w.Code, w.Header().Get(HeaderLibraryCache))
		}
	}
	if lib.Len() != 1 {
		t.Errorf("library holds %d verdicts, want the first alone", lib.Len())
	}
	w := httptest.NewRecorder()
	cs.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/metricsz", nil))
	for _, want := range []string{
		`discsec_counter{name="library.admit_reject"} 1`,
		`discsec_counter{name="library.evict"} 1`,
	} {
		if !strings.Contains(w.Body.String(), want) {
			t.Errorf("/metricsz missing %q in:\n%s", want, w.Body.String())
		}
	}
}

// TestVerifyRouteNoLibrary: POST /verify without an attached library is
// a plain 404.
func TestVerifyRouteNoLibrary(t *testing.T) {
	cs := NewContentServer()
	srv := httptest.NewServer(cs)
	defer srv.Close()
	resp, err := http.Post(srv.URL+"/verify", "application/xml", strings.NewReader("<a/>"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status = %d, want 404", resp.StatusCode)
	}
}
