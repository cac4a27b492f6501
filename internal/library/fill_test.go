package library_test

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"discsec/internal/core"
	"discsec/internal/disc"
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
// (stmts=60) builds its tree and its text in a recycled arena and
// releases both when the model is decoded, decodes and decrypts the
// CipherValue in a pooled buffer under the opener's expanded key,
// digests and canonicalizes SignedInfo without heap state, looks up
// child elements, signatures and EncryptedData into stack buffers and
// finds its certificates in the memo without decoding them. What it
// allocates is then about what its verdict keeps: at most 38
// allocations (36 measured) and 6 KiB (about 4.4 KiB measured). It made
// 209 allocations while every fill left its tree to the GC, 87 while
// each child lookup built a fresh slice and each certificate was
// decoded to be hashed, 60 allocations of 13.5 KB while every text node
// was its own string, and 40 while the signature and EncryptedData
// searches grew heap slices and the decryption transform returned its
// result through the heap.
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
	bytes := bytesPerRun(50, refill)
	t.Logf("%.0f allocations, %d bytes per refill", allocs, bytes)
	if allocs > 38 {
		t.Errorf("a refill made %.0f allocations, want at most 38", allocs)
	}
	if bytes > 6<<10 {
		t.Errorf("a refill allocated %d bytes, want at most %d", bytes, 6<<10)
	}
}

// bytesPerRun is testing.AllocsPerRun for heap bytes: the mean bytes
// allocated by runs calls of f, after one warm-up call, on one P.
func bytesPerRun(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// TestVerdictSurvivesArenaReuse: a verdict shares no memory with the
// released tree it was decoded from. Eight documents are filled and
// their verdicts copied out deep; sixteen others are then filled, so
// every pooled arena, character slab and decode buffer is recycled and
// overwritten. Each cached verdict must still equal its copy, and equal
// the model and report of a fresh core.Open of the same bytes. A
// verdict that kept a view of the arena (a script source not copied
// out, say) reads the later documents' text, or NULs.
func TestVerdictSurvivesArenaReuse(t *testing.T) {
	ctx := context.Background()
	lib := newLib(nil)
	type kept struct {
		raw  []byte
		v    *library.Verdict
		copy string
	}
	var filled []kept
	for i := 0; i < 8; i++ {
		raw := fillDoc(t, 20+7*i)
		v, st, err := lib.OpenDocument(ctx, raw)
		if err != nil || st != library.StatusMiss {
			t.Fatalf("fill %d: status=%q err=%v", i, st, err)
		}
		filled = append(filled, kept{raw, v, verdictSnapshot(v.Cluster, v.Result)})
	}
	for i := 0; i < 16; i++ {
		if _, _, err := lib.OpenDocument(ctx, fillDoc(t, 300+11*i)); err != nil {
			t.Fatalf("refill %d: %v", i, err)
		}
	}
	op := testOpener()
	for i, k := range filled {
		v, st, err := lib.OpenDocument(ctx, k.raw)
		if err != nil || st != library.StatusHit {
			t.Fatalf("document %d: status=%q err=%v, want a hit", i, st, err)
		}
		if v != k.v {
			t.Fatalf("document %d: the library answered another verdict", i)
		}
		if got := verdictSnapshot(v.Cluster, v.Result); got != k.copy {
			t.Fatalf("document %d: verdict changed after arena reuse:\n got %q\nwant %q", i, got, k.copy)
		}
		res, err := op.Open(ctx, k.raw)
		if err != nil {
			t.Fatalf("document %d: fresh open: %v", i, err)
		}
		if want := verdictSnapshot(res.Cluster, res); k.copy != want {
			t.Fatalf("document %d: verdict differs from a fresh open:\n got %q\nwant %q", i, k.copy, want)
		}
	}
}

// verdictSnapshot renders what a verdict's readers see as one string
// that copies every byte: the model serialized, script sources and
// markup text included, then each signature report.
func verdictSnapshot(cl *disc.InteractiveCluster, res *core.OpenResult) string {
	var b strings.Builder
	b.WriteString(cl.Document().Root().String())
	for _, rep := range res.Signatures {
		fmt.Fprintf(&b, "\n%+v", rep)
	}
	fmt.Fprintf(&b, "\nopened after verify: %d", res.OpenedAfterVerify)
	return b.String()
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
