package library_test

import (
	"context"
	"testing"

	"discsec/internal/core"
	"discsec/internal/experiments"
	"discsec/internal/keymgmt"
	"discsec/internal/library"
	"discsec/internal/obs"
)

// TestAdvanceGlobalEpochMonotonic pins the wire-facing epoch guard:
// announcements arriving from a cluster origin can be delayed,
// duplicated, or reordered, and none of that may roll the trust epoch
// back onto verdicts a newer revocation already killed.
func TestAdvanceGlobalEpochMonotonic(t *testing.T) {
	rec := obs.NewRecorder()
	lib := newLib(rec)
	raw := indexBytes(t, buildImage(t, 60))

	if _, st, err := lib.OpenDocument(context.Background(), raw); err != nil || st != library.StatusMiss {
		t.Fatalf("fill: status=%q err=%v", st, err)
	}

	if !lib.AdvanceGlobalEpoch(5) {
		t.Fatal("AdvanceGlobalEpoch(5) from 0 = false, want an advance")
	}
	if got := lib.GlobalEpoch(); got != 5 {
		t.Fatalf("GlobalEpoch = %d, want 5", got)
	}
	// The advance invalidated the resident verdict.
	if _, st, err := lib.OpenDocument(context.Background(), raw); err != nil || st != library.StatusMiss {
		t.Fatalf("post-advance open: status=%q err=%v, want a fresh miss", st, err)
	}

	// A delayed announcement from before the bump: dropped, counted,
	// and the epoch stands.
	if lib.AdvanceGlobalEpoch(3) {
		t.Fatal("AdvanceGlobalEpoch(3) after 5 = true, want a rejected rollback")
	}
	// A duplicate of the current epoch advances nothing either.
	if lib.AdvanceGlobalEpoch(5) {
		t.Fatal("AdvanceGlobalEpoch(5) at 5 = true, want a rejected duplicate")
	}
	if got := lib.GlobalEpoch(); got != 5 {
		t.Fatalf("GlobalEpoch = %d after stale deliveries, want 5", got)
	}
	// Neither stale delivery invalidated the fresh verdict.
	if _, st, err := lib.OpenDocument(context.Background(), raw); err != nil || st != library.StatusHit {
		t.Fatalf("open after stale deliveries: status=%q err=%v, want hit", st, err)
	}

	if got := rec.Counter("library.epoch_advance"); got != 1 {
		t.Errorf("epoch_advance = %d, want 1", got)
	}
	if got := rec.Counter("library.epoch_stale"); got != 2 {
		t.Errorf("epoch_stale = %d, want 2 (rollback and duplicate)", got)
	}
}

// TestSignerTablesOnePerSigner bounds the per-signer tables: they grow
// with distinct signers and binding names, never with documents, so
// many documents from one signer leave one trust epoch and one index
// entry per name, each naming one key.
func TestSignerTablesOnePerSigner(t *testing.T) {
	root, creator := experiments.PKIFixture()
	svc := keymgmt.NewService(root.Pool())
	if err := svc.Register(creator.Name, creator.Cert, "pw"); err != nil {
		t.Fatal(err)
	}
	lib := library.New(
		library.WithOpener(core.Opener{RequireSignature: true}),
		library.WithTrustService(svc),
	)
	for seed := uint64(0); seed < 24; seed++ {
		if _, st, err := lib.OpenDocument(context.Background(), keyNameDoc(t, 900+seed)); err != nil || st != library.StatusMiss {
			t.Fatalf("doc %d: status=%q err=%v", seed, st, err)
		}
	}
	if lib.Len() != 24 {
		t.Fatalf("resident verdicts = %d, want 24", lib.Len())
	}
	if epochs, names, fps := lib.SignerTables(); epochs != 1 || names != 1 || fps != 1 {
		t.Errorf("24 documents from one signer: %d signer epochs, %d indexed names, up to %d keys per name; want 1, 1, 1", epochs, names, fps)
	}
}
