package player

import (
	"context"
	"strings"
	"sync"
	"testing"

	"discsec/internal/access"
	"discsec/internal/core"
	"discsec/internal/disc"
	"discsec/internal/obs"
	"discsec/internal/xmlenc"
)

// buildEncryptedImage packages the game cluster signed at cluster
// level with the manifest code region encrypted after signing.
func buildEncryptedImage(t *testing.T, key []byte) *disc.Image {
	t.Helper()
	p := &core.Protector{Identity: creator}
	im, err := p.Package(core.PackageSpec{
		Cluster:            gameCluster(),
		PermissionRequests: map[string]*access.PermissionRequest{"game-1": gamePermissions()},
		Sign:               true,
		SignLevel:          core.LevelCluster,
		EncryptPaths:       []string{"//manifest/code"},
		Encryption:         xmlenc.EncryptOptions{Key: key},
	})
	if err != nil {
		t.Fatal(err)
	}
	return im
}

// TestPipelineSpanGolden opens one signed+encrypted image and runs its
// application, asserting the first-occurrence order of completed spans
// against the Fig. 9 pipeline and the policy decision totals.
func TestPipelineSpanGolden(t *testing.T) {
	key := make([]byte, 32)
	for i := range key {
		key[i] = byte(i * 7)
	}
	im := buildEncryptedImage(t, key)

	sink := &obs.MemorySink{}
	rec := obs.NewRecorder(obs.WithSink(sink))
	e := &Engine{
		Roots:            rootCA.Pool(),
		Policy:           platformPolicy(),
		Storage:          disc.NewLocalStorage(0),
		DecryptKeys:      xmlenc.DecryptOptions{Key: key}.ExpandKey(),
		RequireSignature: true,
		Recorder:         rec,
	}
	sess, err := e.Load(context.Background(), im)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if _, err := sess.RunApplication("t-game"); err != nil {
		t.Fatalf("run: %v", err)
	}

	golden := []string{
		obs.StageParse, obs.StageDecrypt, obs.StageDectrans, obs.StageC14N,
		obs.StageDigest, obs.StageSignature, obs.StageLoad, obs.StagePolicy,
		obs.StageExecute,
	}
	var got []string
	seen := map[string]bool{}
	for _, stage := range sink.SpanStages() {
		if !seen[stage] {
			seen[stage] = true
			got = append(got, stage)
		}
	}
	if strings.Join(got, " ") != strings.Join(golden, " ") {
		t.Errorf("span completion order:\n got %v\nwant %v", got, golden)
	}

	// The game requests 5 permissions; https-only networking denies
	// exactly the http one.
	if n := rec.Counter("policy.permit"); n != 4 {
		t.Errorf("policy.permit = %d, want 4", n)
	}
	if n := rec.Counter("policy.deny"); n != 1 {
		t.Errorf("policy.deny = %d, want 1", n)
	}
	if n := rec.Counter("load.ok"); n != 1 {
		t.Errorf("load.ok = %d, want 1", n)
	}

	denied := false
	for _, ev := range rec.AuditTrail() {
		if ev.Kind == obs.AuditPolicyDenied && strings.Contains(ev.Detail, "http://insecure.example") {
			denied = true
		}
	}
	if !denied {
		t.Errorf("no policy-denied audit event for the http target: %+v", rec.AuditTrail())
	}

	// Every pipeline stage recorded a positive duration.
	snap := rec.Snapshot()
	counts := map[string]int64{}
	for _, st := range snap.Stages {
		counts[st.Stage] = st.Count
		if st.Total <= 0 {
			t.Errorf("stage %s total = %v, want > 0", st.Stage, st.Total)
		}
	}
	for _, stage := range golden {
		if counts[stage] == 0 {
			t.Errorf("stage %s missing from snapshot", stage)
		}
	}
}

// TestConcurrentLoadsSharedRecorder hammers one Recorder from parallel
// engine loads; run under -race this doubles as the data-race probe
// for the whole instrumentation path.
func TestConcurrentLoadsSharedRecorder(t *testing.T) {
	im := buildImage(t, true)
	rec := obs.NewRecorder()
	const workers = 8

	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e := &Engine{
				Roots:            rootCA.Pool(),
				Policy:           platformPolicy(),
				Storage:          disc.NewLocalStorage(0),
				RequireSignature: true,
				Recorder:         rec,
			}
			if _, err := e.Load(context.Background(), im); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("concurrent load: %v", err)
	}

	if n := rec.Counter("load.ok"); n != workers {
		t.Errorf("load.ok = %d, want %d", n, workers)
	}
	snap := rec.Snapshot()
	for _, st := range snap.Stages {
		if st.Stage == obs.StageLoad && st.Count != workers {
			t.Errorf("load span count = %d, want %d", st.Count, workers)
		}
	}
}
