package discsec

import (
	"reflect"
	"strings"
	"testing"

	"discsec/internal/access"
	"discsec/internal/disc"
	"discsec/internal/workload"
)

// Facade-level integration fixture.
var (
	facadeRoot   *Authority
	facadeStudio *Identity
)

func init() {
	var err error
	facadeRoot, err = NewAuthority("Facade Root")
	if err != nil {
		panic(err)
	}
	facadeStudio, err = facadeRoot.IssueIdentity("Facade Studio")
	if err != nil {
		panic(err)
	}
}

func facadePolicy() *PDP {
	return &PDP{PolicySet: access.PolicySet{
		Combining: access.DenyOverrides,
		Policies: []access.Policy{{
			Combining: access.FirstApplicable,
			Rules: []access.Rule{{
				Effect: access.EffectPermit,
				Condition: access.Compare{
					Category: access.CatSubject, Attribute: "verified",
					Op: access.OpEquals, Value: "true",
				},
			}},
		}},
	}}
}

func facadeCluster() *InteractiveCluster {
	cluster, _ := workload.Cluster(workload.ClusterSpec{
		AVTracks: 1, AppTracks: 1,
		Manifest: workload.ManifestSpec{
			Regions: 2, MediaItems: 3, ScriptStatements: 10, HighScoreEntries: 3,
		},
		ClipDurationMS: 50, Seed: 99,
	})
	return cluster
}

func TestFacadeAuthorPlayerRoundTrip(t *testing.T) {
	author := NewAuthor(facadeStudio)
	im, err := author.Package(PackageSpec{
		Cluster: facadeCluster(),
		PermissionRequests: map[string]*PermissionRequest{
			"app-1": {AppID: "app-1", Permissions: []Permission{
				{Name: access.PermGraphicsPlane},
			}},
		},
		Sign:      true,
		SignLevel: LevelCluster,
	})
	if err != nil {
		t.Fatalf("package: %v", err)
	}

	p := NewPlayer(PlayerConfig{
		Roots:            facadeRoot.TrustPool(),
		Policy:           facadePolicy(),
		RequireSignature: true,
	})
	sess, err := p.Load(im)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if !sess.Verified() {
		t.Error("not verified")
	}
	rep, err := sess.RunApplication("t-app-1")
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(rep.ScriptErrors) != 0 {
		t.Errorf("script errors: %v", rep.ScriptErrors)
	}
	if len(rep.Granted) != 1 {
		t.Errorf("granted = %v", rep.Granted)
	}
	if len(rep.Events) == 0 {
		t.Error("no presentation events")
	}
}

func TestFacadeSignThenEncrypt(t *testing.T) {
	author := NewAuthor(facadeStudio)
	doc := facadeCluster().Document()
	key := workload.Bytes(32, 5)

	err := author.SignThenEncrypt(doc, SignThenEncryptSpecOf(LevelCluster, "", []string{"//manifest/code"}, EncryptOptions{Key: key}))
	if err != nil {
		t.Fatalf("sign-then-encrypt: %v", err)
	}
	if strings.Contains(doc.String(), "var acc") {
		t.Fatal("script plaintext leaked")
	}
	p := NewPlayer(PlayerConfig{
		Roots:            facadeRoot.TrustPool(),
		RequireSignature: true,
		DecryptKeys:      DecryptOptions{Key: key},
	})
	sess, err := p.LoadDocument(doc.Bytes())
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if !sess.Verified() {
		t.Error("not verified")
	}
}

// TestNewPlayerExpandsDecryptKey: a facade player holds its content
// key already expanded, as the engine's DecryptKeys asks, so decrypting
// an EncryptedData does not expand the AES key again.
func TestNewPlayerExpandsDecryptKey(t *testing.T) {
	key := workload.Bytes(32, 5)
	p := NewPlayer(PlayerConfig{DecryptKeys: DecryptOptions{Key: key}})
	if want := (DecryptOptions{Key: key}).ExpandKey(); !reflect.DeepEqual(p.engine.DecryptKeys, want) {
		t.Error("NewPlayer stored the decryption key without its expansion")
	}
}

func TestFacadeTamperedContentBarred(t *testing.T) {
	author := NewAuthor(facadeStudio)
	im, err := author.Package(PackageSpec{
		Cluster: facadeCluster(), Sign: true, SignLevel: LevelCluster,
	})
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := im.Get(disc.IndexPath)
	tampered := strings.Replace(string(raw), "var acc = 0;", "var acc = 666;", 1)
	if tampered == string(raw) {
		t.Fatal("setup: tamper target missing")
	}
	im.Put(disc.IndexPath, []byte(tampered))

	p := NewPlayer(PlayerConfig{Roots: facadeRoot.TrustPool(), RequireSignature: true})
	if _, err := p.Load(im); err == nil {
		t.Error("tampered image loaded")
	}
}

func TestFacadeIntermediateChain(t *testing.T) {
	inter, err := facadeRoot.NewIntermediate("Facade Studio CA")
	if err != nil {
		t.Fatal(err)
	}
	id, err := inter.IssueIdentity("Chained Creator")
	if err != nil {
		t.Fatal(err)
	}
	author := NewAuthor(id)
	im, err := author.Package(PackageSpec{
		Cluster: facadeCluster(), Sign: true, SignLevel: LevelCluster,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Player trusting only the root validates the chain through the
	// embedded intermediate.
	p := NewPlayer(PlayerConfig{Roots: facadeRoot.TrustPool(), RequireSignature: true})
	sess, err := p.Load(im)
	if err != nil {
		t.Fatalf("load with intermediate chain: %v", err)
	}
	if !sess.Verified() || sess.SignerName() != "Chained Creator" {
		t.Errorf("verified=%v signer=%q", sess.Verified(), sess.SignerName())
	}
}

func TestParseDocumentHardened(t *testing.T) {
	if _, err := ParseDocument([]byte(`<!DOCTYPE r [<!ENTITY e "x">]><r>&e;</r>`)); err == nil {
		t.Error("doctype accepted by facade parser")
	}
	doc, err := ParseDocument([]byte(`<ok/>`))
	if err != nil || doc.Root().Local != "ok" {
		t.Errorf("parse = %v, %v", doc, err)
	}
}
