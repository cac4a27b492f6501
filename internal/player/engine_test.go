package player

import (
	"context"
	"strings"
	"testing"

	"discsec/internal/access"
	"discsec/internal/core"
	"discsec/internal/disc"
	"discsec/internal/keymgmt"
	"discsec/internal/markup"
	"discsec/internal/xmldom"
	"discsec/internal/xmlenc"
)

var (
	rootCA  *keymgmt.CA
	creator *keymgmt.Identity
)

func init() {
	var err error
	rootCA, err = keymgmt.NewRootCA("Licensor Root", keymgmt.ECDSAP256)
	if err != nil {
		panic(err)
	}
	creator, err = rootCA.IssueIdentity("Studio", keymgmt.ECDSAP256)
	if err != nil {
		panic(err)
	}
}

// gameCluster builds the paper's game scenario: an application with
// layout, timing, a script that manages high scores in local storage.
func gameCluster() *disc.InteractiveCluster {
	layout := &markup.Layout{Regions: []markup.Region{
		{ID: "main", Width: 1920, Height: 1080},
		{ID: "hud", Left: 0, Top: 980, Width: 1920, Height: 100, ZIndex: 1},
	}}
	timing := &markup.TimingNode{Kind: "seq", Children: []*markup.TimingNode{
		{Kind: "img", Src: "title.png", Region: "main", DurMS: 2000},
		{Kind: "par", Children: []*markup.TimingNode{
			{Kind: "video", Src: "attract.m2ts", Region: "main", DurMS: 8000},
			{Kind: "img", Src: "hud.png", Region: "hud", DurMS: 8000},
		}},
	}}
	script := `
player.log("game booting on app", player.appId);
var prev = storage.get("highscore");
if (prev == null) { prev = 0; }
var score = Number(prev) + 100;
storage.set("highscore", score);
display.draw("score", score);
network.connect("https://leaderboard.example/submit");
network.connect("http://insecure.example/track");
`
	return &disc.InteractiveCluster{
		Title: "Disc Game",
		Tracks: []*disc.Track{
			{
				ID:   "t-av",
				Kind: disc.TrackAV,
				Playlist: &disc.Playlist{Items: []disc.PlayItem{
					{ClipID: "clip-1", InMS: 0, OutMS: 5000},
				}},
			},
			{
				ID:   "t-game",
				Kind: disc.TrackApplication,
				Manifest: &disc.Manifest{
					ID: "game-1",
					Markup: disc.Markup{SubMarkups: []disc.SubMarkup{
						{Kind: "layout", Content: layout.Element()},
						{Kind: "timing", Content: timing.Element()},
					}},
					Code: disc.Code{Scripts: []disc.Script{{Language: "ecmascript", Source: script}}},
				},
			},
		},
	}
}

func gamePermissions() *access.PermissionRequest {
	return &access.PermissionRequest{
		AppID: "game-1",
		Permissions: []access.Permission{
			{Name: access.PermLocalStorageRead, Target: "game-1/*"},
			{Name: access.PermLocalStorageWrite, Target: "game-1/*"},
			{Name: access.PermGraphicsPlane},
			{Name: access.PermNetworkConnect, Target: "https://leaderboard.example/submit"},
			{Name: access.PermNetworkConnect, Target: "http://insecure.example/track"},
		},
	}
}

// platformPolicy grants verified applications storage under their own
// prefix, graphics, and https-only networking.
func platformPolicy() *access.PDP {
	return &access.PDP{PolicySet: access.PolicySet{
		ID:        "platform",
		Combining: access.DenyOverrides,
		Policies: []access.Policy{
			{
				ID:        "verified-only",
				Combining: access.FirstApplicable,
				Rules: []access.Rule{{
					ID:     "deny-unverified",
					Effect: access.EffectDeny,
					Condition: access.Not{C: access.Compare{
						Category: access.CatSubject, Attribute: "verified", Op: access.OpEquals, Value: "true",
					}},
				}},
			},
			{
				ID:        "storage-own-prefix",
				Combining: access.FirstApplicable,
				Target: access.Target{{
					Category: access.CatAction, Attribute: "name", Op: access.OpPrefix, Value: "localstorage.",
				}},
				Rules: []access.Rule{{
					ID: "own", Effect: access.EffectPermit,
					Condition: access.Compare{
						Category: access.CatResource, Attribute: "target", Op: access.OpGlob, Value: "game-1/*",
					},
				}},
			},
			{
				ID:        "graphics",
				Combining: access.FirstApplicable,
				Target: access.Target{{
					Category: access.CatAction, Attribute: "name", Op: access.OpEquals, Value: access.PermGraphicsPlane,
				}},
				Rules: []access.Rule{{ID: "ok", Effect: access.EffectPermit}},
			},
			{
				ID:        "https-only",
				Combining: access.FirstApplicable,
				Target: access.Target{{
					Category: access.CatAction, Attribute: "name", Op: access.OpEquals, Value: access.PermNetworkConnect,
				}},
				Rules: []access.Rule{{
					ID: "https", Effect: access.EffectPermit,
					Condition: access.Compare{
						Category: access.CatResource, Attribute: "target", Op: access.OpPrefix, Value: "https://",
					},
				}},
			},
		},
	}}
}

func buildImage(t *testing.T, sign bool) *disc.Image {
	t.Helper()
	p := &core.Protector{Identity: creator}
	im, err := p.Package(core.PackageSpec{
		Cluster: gameCluster(),
		Clips: map[string][]byte{
			"CLIPS/clip-1.m2ts": disc.GenerateClip(disc.ClipSpec{DurationMS: 100, BitrateKbps: 1000, Seed: 5}),
		},
		PermissionRequests: map[string]*access.PermissionRequest{"game-1": gamePermissions()},
		Sign:               sign,
		SignLevel:          core.LevelCluster,
	})
	if err != nil {
		t.Fatal(err)
	}
	return im
}

func newEngine() *Engine {
	return &Engine{
		Roots:            rootCA.Pool(),
		Policy:           platformPolicy(),
		Storage:          disc.NewLocalStorage(0),
		RequireSignature: true,
	}
}

func TestLoadAndRunVerifiedGame(t *testing.T) {
	im := buildImage(t, true)
	e := newEngine()
	sess, err := e.Load(context.Background(), im)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if !sess.Verified() {
		t.Fatal("session not verified")
	}
	if sess.SignerName() != "Studio" {
		t.Errorf("signer = %q", sess.SignerName())
	}

	rep, err := sess.RunApplication("t-game")
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	// Presentation plan from the timing markup.
	if len(rep.Events) != 3 {
		t.Errorf("events = %+v", rep.Events)
	}
	// Storage worked: highscore persisted.
	b, err := e.Storage.Get("game-1", "highscore")
	if err != nil || string(b) != "100" {
		t.Errorf("highscore = %q, %v", b, err)
	}
	// https connect allowed, http denied at runtime.
	joined := strings.Join(rep.Log, "\n")
	if !strings.Contains(joined, "connect https://leaderboard.example/submit") {
		t.Errorf("https connect missing from log: %v", rep.Log)
	}
	found := false
	for _, d := range rep.DeniedOps {
		if strings.Contains(d, "http://insecure.example") {
			found = true
		}
	}
	if !found {
		t.Errorf("http connect not denied: %v", rep.DeniedOps)
	}
	if len(rep.ScriptErrors) != 0 {
		t.Errorf("script errors: %v", rep.ScriptErrors)
	}

	// Second run accumulates the score (persistent storage).
	sess2, err := e.Load(context.Background(), im)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess2.RunApplication("t-game"); err != nil {
		t.Fatal(err)
	}
	b, _ = e.Storage.Get("game-1", "highscore")
	if string(b) != "200" {
		t.Errorf("second run highscore = %q", b)
	}
}

func TestUnsignedImageRejected(t *testing.T) {
	im := buildImage(t, false)
	e := newEngine()
	if _, err := e.Load(context.Background(), im); err == nil {
		t.Error("unsigned image loaded with RequireSignature")
	}
	// Without the requirement it loads, but the app is unverified and
	// the policy denies everything.
	e2 := newEngine()
	e2.RequireSignature = false
	sess, err := e2.Load(context.Background(), im)
	if err != nil {
		t.Fatal(err)
	}
	if sess.Verified() {
		t.Error("unsigned session claims verification")
	}
	rep, err := sess.RunApplication("t-game")
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Granted) != 0 {
		t.Errorf("unverified app granted: %v", rep.Granted)
	}
	// Storage ops were denied.
	if _, err := e2.Storage.Get("game-1", "highscore"); err == nil {
		t.Error("unverified app wrote storage")
	}
}

func TestTamperedImageBarred(t *testing.T) {
	im := buildImage(t, true)
	raw, _ := im.ReadIndexDocumentBytes()
	tampered := strings.Replace(string(raw), "score = Number(prev) + 100", "score = 999999", 1)
	if tampered == string(raw) {
		t.Fatal("test setup: tamper target missing")
	}
	im.Put(disc.IndexPath, []byte(tampered))
	e := newEngine()
	if _, err := e.Load(context.Background(), im); err == nil {
		t.Error("tampered application executed")
	}
}

func TestEncryptedGameScores(t *testing.T) {
	// Paper §4: keep the markup clear, encrypt only the sensitive
	// region, decrypt during load.
	k := make([]byte, 32)
	for i := range k {
		k[i] = byte(i * 3)
	}
	p := &core.Protector{Identity: creator}
	im, err := p.Package(core.PackageSpec{
		Cluster:            gameCluster(),
		PermissionRequests: map[string]*access.PermissionRequest{"game-1": gamePermissions()},
		Sign:               true,
		SignLevel:          core.LevelCluster,
		EncryptPaths:       []string{"//manifest/code"},
		Encryption:         xmlenc.EncryptOptions{Key: k},
	})
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := im.ReadIndexDocumentBytes()
	if strings.Contains(string(raw), "game booting") {
		t.Fatal("script leaked in packaged image")
	}

	e := newEngine()
	e.DecryptKeys = xmlenc.DecryptOptions{Key: k}
	sess, err := e.Load(context.Background(), im)
	if err != nil {
		t.Fatalf("load encrypted image: %v", err)
	}
	rep, err := sess.RunApplication("t-game")
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.ScriptErrors) != 0 {
		t.Errorf("script errors: %v", rep.ScriptErrors)
	}
	if b, _ := e.Storage.Get("game-1", "highscore"); string(b) != "100" {
		t.Errorf("highscore = %q", b)
	}

	// Player without the key cannot load.
	e2 := newEngine()
	if _, err := e2.Load(context.Background(), im); err == nil {
		t.Error("loaded encrypted image without key")
	}
}

func TestRunApplicationErrors(t *testing.T) {
	im := buildImage(t, true)
	e := newEngine()
	sess, err := e.Load(context.Background(), im)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.RunApplication("ghost"); err == nil {
		t.Error("unknown track accepted")
	}
	if _, err := sess.RunApplication("t-av"); err == nil {
		t.Error("AV track executed as application")
	}
}

func TestScriptRuntimeErrorIsReportedNotFatal(t *testing.T) {
	cluster := gameCluster()
	cluster.ApplicationTracks()[0].Manifest.Code.Scripts = []disc.Script{
		{Language: "ecmascript", Source: "undefined_thing();"},
		{Language: "java", Source: "class X {}"},
	}
	p := &core.Protector{Identity: creator}
	im, err := p.Package(core.PackageSpec{
		Cluster:            cluster,
		PermissionRequests: map[string]*access.PermissionRequest{"game-1": gamePermissions()},
		Sign:               true,
		SignLevel:          core.LevelCluster,
	})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := newEngine().Load(context.Background(), im)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sess.RunApplication("t-game")
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.ScriptErrors) != 2 {
		t.Errorf("script errors = %v", rep.ScriptErrors)
	}
}

func TestLoadBareDocument(t *testing.T) {
	doc := gameCluster().Document()
	p := &core.Protector{Identity: creator}
	if _, err := p.Sign(doc, core.LevelCluster, ""); err != nil {
		t.Fatal(err)
	}
	e := newEngine()
	sess, err := e.LoadDocument(context.Background(), doc.Bytes())
	if err != nil {
		t.Fatalf("load document: %v", err)
	}
	if !sess.Verified() {
		t.Error("not verified")
	}
	// No image: the manifest references a permission file that cannot
	// be resolved, so running must fail cleanly.
	if sess.Image != nil {
		t.Error("bare document session has an image")
	}
}

// TestStripSecurityElements: the session decode leaves signatures and
// encrypted regions out of the model and leaves the verified document
// as it was.
func TestStripSecurityElements(t *testing.T) {
	const ds = `xmlns="http://www.w3.org/2000/09/xmldsig#"`
	doc, err := xmldom.ParseString(`<cluster xmlns="urn:discsec:cluster"><track Id="t" kind="av"><playlist/></track>` +
		`<track Id="a" kind="application"><manifest><markup><submarkup kind="layout"><Signature ` + ds + `/>` +
		`<layout><region id="r"/><Signature ` + ds + `/></layout></submarkup></markup></manifest></track>` +
		`<Signature ` + ds + `/></cluster>`)
	if err != nil {
		t.Fatal(err)
	}
	before := doc.String()
	cl, err := disc.ParseCluster(doc)
	if err != nil {
		t.Fatal(err)
	}
	if got := doc.String(); got != before {
		t.Errorf("decode modified the verified document:\n%s\nwant\n%s", got, before)
	}
	if len(cl.Tracks) != 2 {
		t.Fatalf("decoded %d tracks, want 2", len(cl.Tracks))
	}
	content := cl.Tracks[1].Manifest.Markup.SubMarkups[0].Content
	if content == nil || content.Local != "layout" || len(content.ChildElements()) != 1 {
		t.Errorf("signature not stripped from submarkup content: %v", content)
	}
}
