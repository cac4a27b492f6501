package library_test

import (
	"context"
	"fmt"
	"testing"

	"discsec/internal/core"
	"discsec/internal/experiments"
	"discsec/internal/library"
	"discsec/internal/obs"
	"discsec/internal/workload"
	"discsec/internal/xmldsig"
	"discsec/internal/xmlenc"
	"discsec/internal/xmlsecuri"
)

// fillDoc packages a one-application cluster the way the benchmark
// suite's corpus does: signed over the whole cluster, then the code
// encrypted with AES-128-CBC.
func fillDoc(b testing.TB, stmts int) []byte {
	b.Helper()
	_, creator := experiments.PKIFixture()
	cl, _ := workload.Cluster(workload.ClusterSpec{
		AppTracks: 1,
		Manifest:  workload.ManifestSpec{Regions: 2, MediaItems: 2, Scripts: 1, ScriptStatements: stmts},
		Seed:      uint64(stmts),
	})
	im, err := (&core.Protector{Identity: creator}).Package(core.PackageSpec{
		Cluster:      cl,
		Sign:         true,
		SignLevel:    core.LevelCluster,
		EncryptPaths: []string{"//manifest/code"},
		Encryption:   xmlenc.EncryptOptions{Algorithm: xmlsecuri.EncAES128CBC, Key: experiments.EncKey},
	})
	if err != nil {
		b.Fatal(err)
	}
	return indexBytes(b, im)
}

// BenchmarkFill measures one verification fill through the library:
// parse, decryption transform, reference digests, key resolution,
// chain and signature validation, decryption and the model decode, at
// four manifest sizes (stmts=60 is about 6 KiB, lib-cold's mean
// document). Before every iteration, outside the timed region, the
// library forgets its verdicts, so every open misses and fills.
// signer-cold also forgets every memo (canonical key, parsed
// certificates, validated chains, checked signatures): a signer's first
// document. signer-warm forgets them too, then opens another document
// of the same signer, so the timed fill finds the certificates and the
// chain memoized but keys its bytes and verifies its signature afresh:
// a further document of a known signer. refill keeps every memo: a
// document the process verified before, which is what lib-cold's fills
// are.
func BenchmarkFill(b *testing.B) {
	ctx := context.Background()
	for _, row := range []string{"signer-cold", "signer-warm", "refill"} {
		for _, stmts := range []int{20, 60, 200, 2000} {
			raw := fillDoc(b, stmts)
			other := fillDoc(b, stmts+1)
			b.Run(fmt.Sprintf("%s/stmts=%d", row, stmts), func(b *testing.B) {
				lib := newLib(nil)
				open := func(raw []byte) {
					if _, st, err := lib.OpenDocument(ctx, raw); err != nil || st != library.StatusMiss {
						b.Fatalf("fill: status=%q err=%v", st, err)
					}
				}
				open(raw)
				b.SetBytes(int64(len(raw)))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					lib.InvalidateAll()
					if row != "refill" {
						library.ResetKeyMemo()
						xmldsig.ResetMemos()
					}
					if row == "signer-warm" {
						open(other)
					}
					b.StartTimer()
					open(raw)
				}
			})
		}
	}
}

// TestRefillAllocsPinned: a refill of a lib-cold sized document
// (stmts=60) builds its tree in a recycled arena and releases it when
// the model is decoded, looks up child elements into stack buffers and
// finds its certificates in the memo without decoding them, so it makes
// at most 64 allocations (60 measured). It made 209 while every fill
// left its tree to the GC, and 87 while each child lookup built a
// fresh slice and each certificate was decoded to be hashed.
func TestRefillAllocsPinned(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items")
	}
	ctx := context.Background()
	raw := fillDoc(t, 60)
	lib := newLib(nil)
	refill := func() {
		lib.InvalidateAll()
		if _, st, err := lib.OpenDocument(ctx, raw); err != nil || st != library.StatusMiss {
			t.Fatalf("fill: status=%q err=%v", st, err)
		}
	}
	refill()
	allocs := testing.AllocsPerRun(50, refill)
	t.Logf("%.0f allocations per refill", allocs)
	if allocs > 64 {
		t.Fatalf("a refill made %.0f allocations, want at most 64", allocs)
	}
}

// TestRefillHitsSignatureMemo: a verdict refilled after invalidation
// verifies its signature from the signature memo, and the recorder
// counts the hit.
func TestRefillHitsSignatureMemo(t *testing.T) {
	ctx := context.Background()
	raw := indexBytes(t, buildImage(t, 1))
	rec := obs.NewRecorder()
	lib := newLib(rec)
	xmldsig.ResetMemos()
	for i, want := range []int64{0, 1} {
		if _, st, err := lib.OpenDocument(ctx, raw); err != nil || st != library.StatusMiss {
			t.Fatalf("fill %d: status=%q err=%v", i, st, err)
		}
		if got := rec.Counter("xmldsig.sig_memo_hit"); got != want {
			t.Fatalf("fill %d: sig_memo_hit = %d, want %d", i, got, want)
		}
		lib.InvalidateAll()
	}
}
