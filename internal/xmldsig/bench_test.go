package xmldsig

import (
	"fmt"
	"testing"

	"discsec/internal/keymgmt"
	"discsec/internal/workload"
	"discsec/internal/xmldom"
)

// BenchmarkVerify measures core validation of enveloped-signed cluster
// documents that embed a [leaf, root] chain, verified against that
// root, at three manifest sizes. Before each verify, outside the timed
// region, memo-cold forgets every parsed certificate, validated chain
// and checked signature: the first document of a signer. signer-warm
// forgets only the checked signatures, so each verify pays one
// signature verification: a further document of a known signer.
// refill keeps every memo: a document the process verified before.
func BenchmarkVerify(b *testing.B) {
	root, err := keymgmt.NewRootCA("Bench Root", keymgmt.ECDSAP256)
	if err != nil {
		b.Fatal(err)
	}
	id, err := root.IssueIdentity("Bench Studio", keymgmt.ECDSAP256)
	if err != nil {
		b.Fatal(err)
	}
	opts := VerifyOptions{Roots: root.Pool()}
	for _, stmts := range []int{20, 200, 2000} {
		cl, _ := workload.Cluster(workload.ClusterSpec{
			AppTracks: 1,
			Manifest:  workload.ManifestSpec{Regions: 2, MediaItems: 2, Scripts: 1, ScriptStatements: stmts},
			Seed:      uint64(stmts),
		})
		signed := cl.Document()
		if _, err := SignEnveloped(signed, nil, SignOptions{Key: id.Key, KeyInfo: KeyInfoSpec{Certificates: id.Chain}}); err != nil {
			b.Fatal(err)
		}
		doc, err := xmldom.ParseBytes(signed.Bytes())
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range []string{"memo-cold", "signer-warm", "refill"} {
			b.Run(fmt.Sprintf("stmts=%d/%s", stmts, row), func(b *testing.B) {
				if _, err := VerifyDocument(doc, opts); err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					switch row {
					case "memo-cold":
						b.StopTimer()
						ResetMemos()
						b.StartTimer()
					case "signer-warm":
						b.StopTimer()
						sigMemo.Reset()
						b.StartTimer()
					}
					if _, err := VerifyDocument(doc, opts); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
