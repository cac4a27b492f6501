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
// root, at three manifest sizes. memo-cold forgets every parsed
// certificate and validated chain before each verify, outside the timed
// region, so each one parses the certificates and builds the chain (the
// first document of a signer); memo-warm keeps them (every later
// document).
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
		for _, cold := range []bool{true, false} {
			name := fmt.Sprintf("stmts=%d/memo-warm", stmts)
			if cold {
				name = fmt.Sprintf("stmts=%d/memo-cold", stmts)
			}
			b.Run(name, func(b *testing.B) {
				if _, err := VerifyDocument(doc, opts); err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if cold {
						b.StopTimer()
						ResetMemos()
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
