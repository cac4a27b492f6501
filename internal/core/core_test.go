package core

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"discsec/internal/access"
	"discsec/internal/disc"
	"discsec/internal/keymgmt"
	"discsec/internal/xmldom"
	"discsec/internal/xmlenc"
	"discsec/internal/xmlsecuri"
)

// Shared PKI fixture.
var (
	rootCA  *keymgmt.CA
	creator *keymgmt.Identity
)

func init() {
	var err error
	rootCA, err = keymgmt.NewRootCA("Format Licensor Root", keymgmt.ECDSAP256)
	if err != nil {
		panic(err)
	}
	creator, err = rootCA.IssueIdentity("Studio Content Creator", keymgmt.ECDSAP256)
	if err != nil {
		panic(err)
	}
}

func sampleClusterDoc(t *testing.T) *xmldom.Document {
	t.Helper()
	c := &disc.InteractiveCluster{
		Title: "Feature",
		Tracks: []*disc.Track{
			{
				ID:   "t-av",
				Kind: disc.TrackAV,
				Playlist: &disc.Playlist{Items: []disc.PlayItem{
					{ClipID: "clip-1", InMS: 0, OutMS: 1000},
				}},
			},
			{
				ID:   "t-app",
				Kind: disc.TrackApplication,
				Manifest: &disc.Manifest{
					ID: "app-1",
					Markup: disc.Markup{SubMarkups: []disc.SubMarkup{
						{Kind: "layout", Content: xmldom.NewElement("layout")},
					}},
					Code: disc.Code{Scripts: []disc.Script{
						{Language: "ecmascript", Source: "var hs = 9000;"},
					}},
				},
			},
		},
	}
	return c.Document()
}

func protector() *Protector {
	return &Protector{Identity: creator}
}

func key32() []byte {
	k := make([]byte, 32)
	for i := range k {
		k[i] = byte(i)
	}
	return k
}

func TestSignLevelsAndOpen(t *testing.T) {
	for _, level := range []Level{LevelCluster, LevelTrack, LevelManifest, LevelCode, LevelMarkup} {
		t.Run(level.String(), func(t *testing.T) {
			doc := sampleClusterDoc(t)
			id := map[Level]string{
				LevelCluster:  "",
				LevelTrack:    "t-app",
				LevelManifest: "app-1",
				LevelCode:     "app-1",
				LevelMarkup:   "app-1",
			}[level]
			if _, err := protector().Sign(doc, level, id); err != nil {
				t.Fatalf("sign at %v: %v", level, err)
			}
			opener := &Opener{Roots: rootCA.Pool(), RequireSignature: true}
			res, err := opener.Open(context.Background(), doc.Bytes())
			if err != nil {
				t.Fatalf("open: %v", err)
			}
			if len(res.Signatures) != 1 {
				t.Fatalf("signatures = %d", len(res.Signatures))
			}
			rep := res.Signatures[0]
			if !rep.ChainValidated {
				t.Error("chain not validated")
			}
			if rep.SignerName != "Studio Content Creator" || rep.SignerCN != "Studio Content Creator" {
				t.Errorf("signer = %q / %q", rep.SignerName, rep.SignerCN)
			}
		})
	}
}

func TestSignLevelTamperScope(t *testing.T) {
	// Signing at LevelCode: markup edits pass, script edits fail.
	doc := sampleClusterDoc(t)
	if _, err := protector().Sign(doc, LevelCode, "app-1"); err != nil {
		t.Fatal(err)
	}
	serialized := doc.Bytes()

	opener := &Opener{Roots: rootCA.Pool(), RequireSignature: true}
	if _, err := opener.Open(context.Background(), serialized); err != nil {
		t.Fatalf("clean open: %v", err)
	}

	scriptTampered := strings.Replace(string(serialized), "var hs = 9000;", "var hs = 1;", 1)
	if _, err := opener.Open(context.Background(), []byte(scriptTampered)); err == nil {
		t.Error("script tamper not detected")
	}

	markupTampered := strings.Replace(string(serialized), `kind="layout"`, `kind="layouty"`, 1)
	if markupTampered == string(serialized) {
		t.Fatal("test setup: markup target not found")
	}
	if _, err := opener.Open(context.Background(), []byte(markupTampered)); err != nil {
		t.Errorf("markup edit outside code coverage broke verification: %v", err)
	}
}

func TestUntrustedSignerRejected(t *testing.T) {
	otherRoot, err := keymgmt.NewRootCA("Rogue Root", keymgmt.ECDSAP256)
	if err != nil {
		t.Fatal(err)
	}
	rogue, err := otherRoot.IssueIdentity("Rogue Author", keymgmt.ECDSAP256)
	if err != nil {
		t.Fatal(err)
	}
	doc := sampleClusterDoc(t)
	if _, err := (&Protector{Identity: rogue}).Sign(doc, LevelCluster, ""); err != nil {
		t.Fatal(err)
	}
	opener := &Opener{Roots: rootCA.Pool(), RequireSignature: true}
	if _, err := opener.Open(context.Background(), doc.Bytes()); err == nil {
		t.Error("signature from untrusted root accepted")
	}
}

func TestRequireSignature(t *testing.T) {
	doc := sampleClusterDoc(t)
	opener := &Opener{Roots: rootCA.Pool(), RequireSignature: true}
	if _, err := opener.Open(context.Background(), doc.Bytes()); !errors.Is(err, ErrVerificationRequired) {
		t.Errorf("err = %v, want ErrVerificationRequired", err)
	}
	lax := &Opener{Roots: rootCA.Pool()}
	if _, err := lax.Open(context.Background(), doc.Bytes()); err != nil {
		t.Errorf("lax open: %v", err)
	}
}

func TestSignThenEncryptEndToEnd(t *testing.T) {
	doc := sampleClusterDoc(t)
	p := protector()
	k := key32()

	// Pre-encrypt the markup part (signed as ciphertext), then sign
	// the manifest, then post-encrypt the code part.
	preID, err := p.EncryptRegion(doc, "//manifest/markup", "enc-markup", xmlenc.EncryptOptions{Key: k})
	if err != nil {
		t.Fatalf("pre-encrypt: %v", err)
	}
	_, err = p.SignThenEncrypt(doc, SignThenEncryptSpec{
		Level:           LevelManifest,
		ID:              "app-1",
		PreEncryptedIDs: []string{preID},
		PostEncrypt:     []string{"//manifest/code"},
		Encryption:      xmlenc.EncryptOptions{Key: k},
	})
	if err != nil {
		t.Fatalf("sign-then-encrypt: %v", err)
	}

	transmitted := doc.Bytes()
	if strings.Contains(string(transmitted), "var hs = 9000;") {
		t.Fatal("script plaintext leaked")
	}

	opener := &Opener{Roots: rootCA.Pool(), RequireSignature: true, Decrypt: xmlenc.DecryptOptions{Key: k}}
	res, err := opener.Open(context.Background(), transmitted)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if res.Signatures[0].DecryptedBeforeVerify != 1 {
		t.Errorf("decrypted before verify = %d, want 1", res.Signatures[0].DecryptedBeforeVerify)
	}
	if res.OpenedAfterVerify != 1 {
		t.Errorf("opened after verify = %d, want 1", res.OpenedAfterVerify)
	}
	app := res.Cluster.FindTrack("t-app")
	if app == nil || app.Manifest == nil {
		t.Fatal("application track not recovered")
	}
	if scripts := app.Manifest.Code.Scripts; len(scripts) != 1 || scripts[0].Source != "var hs = 9000;" {
		t.Errorf("script not recovered: %+v", scripts)
	}
	if subs := app.Manifest.Markup.SubMarkups; len(subs) != 1 || subs[0].Content == nil {
		t.Errorf("markup not recovered: %+v", subs)
	}
}

func TestSignThenEncryptTamperOfCiphertext(t *testing.T) {
	doc := sampleClusterDoc(t)
	p := protector()
	k := key32()
	_, err := p.SignThenEncrypt(doc, SignThenEncryptSpec{
		Level:       LevelCluster,
		PostEncrypt: []string{"//manifest/code"},
		Encryption:  xmlenc.EncryptOptions{Key: k},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Replace the post-signature ciphertext wholesale with a fresh
	// encryption of different content (attacker knows the key).
	evil := sampleClusterDoc(t)
	evilCode, _ := evil.Root().Find("//manifest/code")
	evilCode.FirstChildElement("script").SetText("var hs = 0; hack();")
	if _, err := xmlenc.EncryptElement(evilCode, xmlenc.EncryptOptions{Key: k, DataID: "enc-post-1"}); err != nil {
		t.Fatal(err)
	}
	victim := doc.Bytes()
	evilED, _ := evil.Root().Find("//manifest/EncryptedData")
	if evilED == nil {
		t.Fatal("setup: no evil EncryptedData")
	}
	origED, _ := doc.Root().Find("//manifest/EncryptedData")
	swapped := strings.Replace(string(victim), origED.String(), evilED.String(), 1)
	if swapped == string(victim) {
		t.Fatal("setup: ciphertext swap failed")
	}
	opener := &Opener{Roots: rootCA.Pool(), RequireSignature: true, Decrypt: xmlenc.DecryptOptions{Key: k}}
	if _, err := opener.Open(context.Background(), []byte(swapped)); err == nil {
		t.Error("ciphertext substitution not detected (sign-then-encrypt must cover plaintext)")
	}
}

func TestDetachedTrackSignature(t *testing.T) {
	im := disc.NewImage()
	clip1 := disc.GenerateClip(disc.ClipSpec{DurationMS: 200, BitrateKbps: 2000, Seed: 1})
	clip2 := disc.GenerateClip(disc.ClipSpec{DurationMS: 200, BitrateKbps: 2000, Seed: 2})
	im.Put("CLIPS/clip-1.m2ts", clip1)
	im.Put("CLIPS/clip-2.m2ts", clip2)

	p := protector()
	if err := p.SignTrackPayloads(im, []string{"CLIPS/clip-1.m2ts", "CLIPS/clip-2.m2ts"}, "SIGS/tracks.xml"); err != nil {
		t.Fatalf("sign payloads: %v", err)
	}

	opener := &Opener{Roots: rootCA.Pool()}
	rep, err := opener.VerifyDetached(context.Background(), im, "SIGS/tracks.xml")
	if err != nil {
		t.Fatalf("verify detached: %v", err)
	}
	if len(rep.References) != 2 || !rep.ChainValidated {
		t.Errorf("report = %+v", rep)
	}

	// Corrupt one clip: detection.
	clip1[100] ^= 0xFF
	im.Put("CLIPS/clip-1.m2ts", clip1)
	if _, err := opener.VerifyDetached(context.Background(), im, "SIGS/tracks.xml"); err == nil {
		t.Error("clip corruption not detected")
	}

	// Missing payload.
	if err := p.SignTrackPayloads(im, []string{"CLIPS/ghost.m2ts"}, "SIGS/x.xml"); err == nil {
		t.Error("missing payload accepted")
	}
}

func TestTargetResolutionErrors(t *testing.T) {
	doc := sampleClusterDoc(t)
	p := protector()
	if _, err := p.Sign(doc, LevelTrack, "ghost"); err == nil {
		t.Error("unknown track accepted")
	}
	if _, err := p.Sign(doc, LevelManifest, "ghost"); err == nil {
		t.Error("unknown manifest accepted")
	}
	if _, err := p.Sign(doc, Level(99), "x"); err == nil {
		t.Error("unknown level accepted")
	}
	if _, err := (&Protector{}).Sign(doc, LevelCluster, ""); err == nil {
		t.Error("protector without identity accepted")
	}
	if _, err := p.EncryptRegion(doc, "//nothing/here", "", xmlenc.EncryptOptions{Key: key32()}); err == nil {
		t.Error("empty encrypt path accepted")
	}
}

func TestOpenerAlgorithmPolicy(t *testing.T) {
	doc := sampleClusterDoc(t)
	if _, err := protector().Sign(doc, LevelCluster, ""); err != nil {
		t.Fatal(err)
	}
	opener := &Opener{
		Roots:                    rootCA.Pool(),
		RequireSignature:         true,
		AcceptedSignatureMethods: []string{xmlsecuri.SigRSASHA256}, // identity signs with ECDSA
	}
	if _, err := opener.Open(context.Background(), doc.Bytes()); err == nil {
		t.Error("policy-restricted algorithm accepted")
	}
}

func TestLevelString(t *testing.T) {
	names := map[Level]string{
		LevelCluster: "cluster", LevelTrack: "track", LevelManifest: "manifest",
		LevelCode: "code", LevelMarkup: "markup",
	}
	for l, want := range names {
		if l.String() != want {
			t.Errorf("%d.String() = %q", int(l), l.String())
		}
	}
}

func TestPackageInPackage(t *testing.T) {
	p := protector()
	cluster := func() *disc.InteractiveCluster {
		c, _ := workloadClusterForTest()
		return c
	}

	// Happy path with everything on.
	c, clips := workloadClusterForTest()
	im, err := p.Package(PackageSpec{
		Cluster: c,
		Clips:   clips,
		PermissionRequests: map[string]*access.PermissionRequest{
			"app-1": {AppID: "app-1", Permissions: []access.Permission{{Name: access.PermGraphicsPlane}}},
		},
		Sign:         true,
		SignLevel:    LevelCluster,
		EncryptPaths: []string{"//manifest/code"},
		Encryption:   xmlenc.EncryptOptions{Key: key32()},
		SignClips:    true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !im.Has(ClipSignaturePath) || !im.Has(disc.IndexPath) {
		t.Errorf("paths = %v", im.Paths())
	}
	// Round trip through the opener.
	opener := &Opener{Roots: rootCA.Pool(), RequireSignature: true, Decrypt: xmlenc.DecryptOptions{Key: key32()}}
	raw, _ := im.Get(disc.IndexPath)
	if _, err := opener.Open(context.Background(), raw); err != nil {
		t.Fatalf("open packaged index: %v", err)
	}

	// Error paths.
	if _, err := p.Package(PackageSpec{}); err == nil {
		t.Error("nil cluster accepted")
	}
	if _, err := p.Package(PackageSpec{
		Cluster: cluster(),
		PermissionRequests: map[string]*access.PermissionRequest{
			"ghost": {AppID: "ghost"},
		},
	}); err == nil {
		t.Error("permission request for unknown manifest accepted")
	}
	if _, err := p.Package(PackageSpec{Cluster: cluster(), Sign: true, SignLevel: LevelCluster, SignClips: true}); err == nil {
		t.Error("SignClips without clips accepted")
	}
	if _, err := p.Package(PackageSpec{Cluster: cluster(), EncryptPaths: []string{"//nothing"}, Encryption: xmlenc.EncryptOptions{Key: key32()}}); err == nil {
		t.Error("unmatched encrypt path accepted")
	}
	// Unsigned + encrypted works (encryption without signature).
	im2, err := p.Package(PackageSpec{
		Cluster:      cluster(),
		EncryptPaths: []string{"//manifest/code"},
		Encryption:   xmlenc.EncryptOptions{Key: key32()},
	})
	if err != nil {
		t.Fatalf("unsigned encrypt: %v", err)
	}
	raw2, _ := im2.Get(disc.IndexPath)
	if strings.Contains(string(raw2), "var acc") {
		t.Error("plaintext leaked in unsigned encrypted package")
	}
}

// workloadClusterForTest builds a small cluster with one app track and
// one clip, avoiding an import cycle with the workload package by hand
// construction.
func workloadClusterForTest() (*disc.InteractiveCluster, map[string][]byte) {
	c := &disc.InteractiveCluster{
		Title: "pkg-test",
		Tracks: []*disc.Track{
			{
				ID:   "t-av-1",
				Kind: disc.TrackAV,
				Playlist: &disc.Playlist{Items: []disc.PlayItem{
					{ClipID: "clip-1", InMS: 0, OutMS: 100},
				}},
			},
			{
				ID:   "t-app-1",
				Kind: disc.TrackApplication,
				Manifest: &disc.Manifest{
					ID:   "app-1",
					Code: disc.Code{Scripts: []disc.Script{{Language: "ecmascript", Source: "var acc = 1;"}}},
				},
			},
		},
	}
	clips := map[string][]byte{
		"CLIPS/clip-1.m2ts": disc.GenerateClip(disc.ClipSpec{DurationMS: 50, BitrateKbps: 1000, Seed: 8}),
	}
	return c, clips
}

// TestOpenReaderMatchesOpen: the streaming entry and the byte-slice
// entry agree on accept/reject and on the report for the same input —
// signed, tampered, unsigned, and malformed.
func TestOpenReaderMatchesOpen(t *testing.T) {
	signed := sampleClusterDoc(t)
	if _, err := protector().Sign(signed, LevelCluster, ""); err != nil {
		t.Fatal(err)
	}
	tampered := []byte(strings.Replace(string(signed.Bytes()), "var hs = 9000;", "var hs = 9001;", 1))

	cases := []struct {
		name string
		raw  []byte
	}{
		{"signed", signed.Bytes()},
		{"tampered", tampered},
		{"unsigned", []byte(`<cluster/>`)},
		{"malformed", []byte(`<cluster>`)},
		{"doctype", []byte(`<!DOCTYPE c []><cluster/>`)},
	}
	opener := &Opener{Roots: rootCA.Pool(), RequireSignature: true}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			byteRes, byteErr := opener.Open(context.Background(), tc.raw)
			streamRes, streamErr := opener.OpenReader(context.Background(), bytes.NewReader(tc.raw))
			if (byteErr == nil) != (streamErr == nil) {
				t.Fatalf("verdict divergence: Open err=%v, OpenReader err=%v", byteErr, streamErr)
			}
			if byteErr != nil {
				return
			}
			if len(byteRes.Signatures) != len(streamRes.Signatures) {
				t.Fatalf("signature counts diverge: %d vs %d", len(byteRes.Signatures), len(streamRes.Signatures))
			}
			for i := range byteRes.Signatures {
				if byteRes.Signatures[i].SignerKeyFingerprint != streamRes.Signatures[i].SignerKeyFingerprint {
					t.Errorf("signature %d fingerprint diverges", i)
				}
			}
			if !reflect.DeepEqual(byteRes.Cluster, streamRes.Cluster) {
				t.Error("decoded models diverge between entries")
			}
		})
	}
}
