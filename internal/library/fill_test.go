package library_test

import (
	"context"
	"fmt"
	"testing"

	"discsec/internal/core"
	"discsec/internal/experiments"
	"discsec/internal/library"
	"discsec/internal/workload"
	"discsec/internal/xmldsig"
	"discsec/internal/xmlenc"
	"discsec/internal/xmlsecuri"
)

// fillDoc packages a one-application cluster the way the benchmark
// suite's corpus does: signed over the whole cluster, then the code
// encrypted with AES-128-CBC.
func fillDoc(b *testing.B, stmts int) []byte {
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
// document). Before every iteration, outside the timed
// region, the library forgets its verdicts, so every open misses and
// fills. signer-cold also forgets every memo (canonical key, parsed
// certificates, validated chains): a signer's first document.
// signer-warm keeps them: a further document of a known signer, which
// is what lib-cold's fills are.
func BenchmarkFill(b *testing.B) {
	ctx := context.Background()
	for _, signer := range []string{"signer-cold", "signer-warm"} {
		for _, stmts := range []int{20, 60, 200, 2000} {
			raw := fillDoc(b, stmts)
			cold := signer == "signer-cold"
			b.Run(fmt.Sprintf("%s/stmts=%d", signer, stmts), func(b *testing.B) {
				lib := newLib(nil)
				open := func() {
					if _, st, err := lib.OpenDocument(ctx, raw); err != nil || st != library.StatusMiss {
						b.Fatalf("fill: status=%q err=%v", st, err)
					}
				}
				open()
				b.SetBytes(int64(len(raw)))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					lib.InvalidateAll()
					if cold {
						library.ResetKeyMemo()
						xmldsig.ResetMemos()
					}
					b.StartTimer()
					open()
				}
			})
		}
	}
}
