package player

import (
	"context"
	"testing"

	"discsec/internal/core"
	"discsec/internal/disc"
	"discsec/internal/library"
	"discsec/internal/obs"
)

// TestEnginesShareLibrary pins the tentpole integration: independent
// engines attached to one library share verification work — the first
// load pays for the full pipeline, every later engine's load of the
// same content is a cache hit, and the sessions behave exactly like
// locally verified ones (policy, storage, execution all per-engine).
func TestEnginesShareLibrary(t *testing.T) {
	im := buildImage(t, true)
	rec := obs.NewRecorder()
	lib := library.New(
		library.WithOpener(core.Opener{
			Roots:            rootCA.Pool(),
			RequireSignature: true,
		}),
		library.WithRecorder(rec),
	)

	mkEngine := func() *Engine {
		return &Engine{
			Library: lib,
			Policy:  platformPolicy(),
			Storage: disc.NewLocalStorage(0),
		}
	}

	s1, err := mkEngine().Load(context.Background(), im)
	if err != nil {
		t.Fatalf("first engine load: %v", err)
	}
	s2, err := mkEngine().Load(context.Background(), im)
	if err != nil {
		t.Fatalf("second engine load: %v", err)
	}
	if !s1.Verified() || !s2.Verified() {
		t.Fatal("library-served sessions not verified")
	}
	if s1.SignerName() != "Studio" || s2.SignerName() != "Studio" {
		t.Fatalf("signer names = %q, %q", s1.SignerName(), s2.SignerName())
	}
	if got := rec.Counter("library.miss"); got != 1 {
		t.Errorf("miss counter = %d, want 1 (one verification for two engines)", got)
	}
	if got := rec.Counter("library.hit"); got != 1 {
		t.Errorf("hit counter = %d, want 1", got)
	}

	// The verdict is shared; execution state is not. Each engine runs
	// the game against its own storage and policy.
	r1, err := s1.RunApplication("t-game")
	if err != nil {
		t.Fatalf("engine 1 run: %v", err)
	}
	r2, err := s2.RunApplication("t-game")
	if err != nil {
		t.Fatalf("engine 2 run: %v", err)
	}
	if len(r1.Log) == 0 || len(r2.Log) == 0 {
		t.Error("shared-verdict sessions produced no execution output")
	}
}

// TestEngineLibraryFailsClosed: an unsigned disc through a
// RequireSignature library must not load, matching the engine's own
// strict behavior.
func TestEngineLibraryFailsClosed(t *testing.T) {
	im := buildImage(t, false)
	lib := library.New(
		library.WithOpener(core.Opener{
			Roots:            rootCA.Pool(),
			RequireSignature: true,
		}),
	)
	e := &Engine{
		Library: lib,
		Policy:  platformPolicy(),
		Storage: disc.NewLocalStorage(0),
	}
	if sess, err := e.Load(context.Background(), im); err == nil || sess != nil {
		t.Fatalf("unsigned disc loaded through strict library (err=%v)", err)
	}
}

// TestSessionsHoldNoTree: no session can keep the verified tree alive,
// since neither Session nor core.OpenResult has a field for one;
// whether it was built from a library verdict (miss or hit) or verified
// by the engine itself, it runs the decoded model.
func TestSessionsHoldNoTree(t *testing.T) {
	im := buildImage(t, true)
	lib := library.New(library.WithOpener(core.Opener{
		Roots:            rootCA.Pool(),
		RequireSignature: true,
	}))
	for _, tc := range []struct {
		name string
		e    *Engine
	}{
		{"library-miss", &Engine{Library: lib}},
		{"library-hit", &Engine{Library: lib}},
		{"direct", newEngine()},
	} {
		sess, err := tc.e.Load(context.Background(), im)
		if err != nil {
			t.Fatalf("%s: load: %v", tc.name, err)
		}
		if sess.Cluster != sess.OpenResult.Cluster {
			t.Errorf("%s: session runs another model than the one opened", tc.name)
		}
		if sess.Cluster.FindTrack("t-game") == nil {
			t.Errorf("%s: session model lost its application track", tc.name)
		}
	}
}
