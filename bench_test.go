package discsec

// Benchmarks regenerating every experiment in DESIGN.md's index
// (E1–E7, C1, and the ablations of §5). cmd/discbench prints the same
// measurements as tables; see EXPERIMENTS.md for recorded results.

import (
	"crypto/rand"
	"crypto/rsa"
	"fmt"
	"testing"

	"discsec/internal/c14n"
	"discsec/internal/disc"
	"discsec/internal/experiments"
	"discsec/internal/rights"
	"discsec/internal/workload"
	"discsec/internal/xmldom"
	"discsec/internal/xmldsig"
	"discsec/internal/xmlenc"
	"discsec/internal/xmlsecuri"
)

// --- E1: size overhead, XML security vs OMA DCF --------------------------

func BenchmarkOverheadXMLvsDCF(b *testing.B) {
	for _, n := range experiments.E1Payloads {
		b.Run(fmt.Sprintf("payload=%d", n), func(b *testing.B) {
			payload := workload.Bytes(n, uint64(n))
			var xmlLen, dcfLen int
			for i := 0; i < b.N; i++ {
				x, err := experiments.BuildXMLPackage(payload)
				if err != nil {
					b.Fatal(err)
				}
				d, err := experiments.BuildDCFPackage(payload)
				if err != nil {
					b.Fatal(err)
				}
				xmlLen, dcfLen = len(x), len(d)
			}
			b.ReportMetric(float64(xmlLen), "xml-bytes")
			b.ReportMetric(float64(dcfLen), "dcf-bytes")
			b.ReportMetric(float64(xmlLen)/float64(dcfLen), "size-ratio")
		})
	}
}

// --- E2: processing throughput, XML vs DCF --------------------------------

func BenchmarkProcessXML(b *testing.B) {
	for _, n := range []int{1024, 16384, 262144} {
		b.Run(fmt.Sprintf("payload=%d", n), func(b *testing.B) {
			payload := workload.Bytes(n, uint64(n))
			b.SetBytes(int64(n))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pkg, err := experiments.BuildXMLPackage(payload)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := experiments.OpenXMLPackage(pkg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkProcessDCF(b *testing.B) {
	for _, n := range []int{1024, 16384, 262144} {
		b.Run(fmt.Sprintf("payload=%d", n), func(b *testing.B) {
			payload := workload.Bytes(n, uint64(n))
			b.SetBytes(int64(n))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pkg, err := experiments.BuildDCFPackage(payload)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := experiments.OpenDCFPackage(pkg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- E3: signing/verification granularity ---------------------------------

func BenchmarkSignGranularity(b *testing.B) {
	for _, target := range experiments.GranularityTargets() {
		b.Run(target.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := experiments.SignOnlyAtLevel(target); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkVerifyGranularity(b *testing.B) {
	for _, target := range experiments.GranularityTargets() {
		b.Run(target.Name, func(b *testing.B) {
			signed, err := experiments.ParsedSignedAtLevel(target)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := experiments.VerifyOnly(signed); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- E4: enveloped vs enveloping vs detached -------------------------------

func BenchmarkSignatureForms(b *testing.B) {
	for _, form := range []experiments.SignatureForm{
		experiments.FormEnveloped, experiments.FormEnveloping, experiments.FormDetached,
	} {
		b.Run(string(form), func(b *testing.B) {
			var pkgLen int
			for i := 0; i < b.N; i++ {
				pkg, ext, err := experiments.SignForm(form)
				if err != nil {
					b.Fatal(err)
				}
				if err := experiments.VerifyForm(form, pkg, ext); err != nil {
					b.Fatal(err)
				}
				pkgLen = len(pkg)
			}
			b.ReportMetric(float64(pkgLen), "sig-doc-bytes")
		})
	}
}

// --- E5: full vs partial encryption ---------------------------------------

func BenchmarkEncryptGranularity(b *testing.B) {
	for _, entries := range []int{8, 64, 256} {
		b.Run(fmt.Sprintf("full/scores=%d", entries), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				doc := experiments.GameDocument(entries)
				if err := experiments.EncryptFull(doc); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("partial/scores=%d", entries), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				doc := experiments.GameDocument(entries)
				if err := experiments.EncryptScoresOnly(doc); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkPartialVsFullDecrypt(b *testing.B) {
	prepare := func(full bool, entries int) []byte {
		doc := experiments.GameDocument(entries)
		var err error
		if full {
			err = experiments.EncryptFull(doc)
		} else {
			err = experiments.EncryptScoresOnly(doc)
		}
		if err != nil {
			b.Fatal(err)
		}
		return doc.Bytes()
	}
	for _, entries := range []int{8, 64, 256} {
		fullRaw := prepare(true, entries)
		partialRaw := prepare(false, entries)
		b.Run(fmt.Sprintf("full/scores=%d", entries), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := experiments.DecryptAllIn(fullRaw); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("partial/scores=%d", entries), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := experiments.DecryptAllIn(partialRaw); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- E6: end-to-end pipeline ----------------------------------------------

func BenchmarkEndToEndPipeline(b *testing.B) {
	b.Run("author", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := experiments.AuthorPipeline(); err != nil {
				b.Fatal(err)
			}
		}
	})
	art, err := experiments.AuthorPipeline()
	if err != nil {
		b.Fatal(err)
	}
	b.Run("player", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := experiments.PlayerPipeline(art.PackedImage); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- E7: player startup per protection configuration -----------------------

func BenchmarkPlayerStartup(b *testing.B) {
	for _, cfg := range experiments.StartupConfigs() {
		packed, err := experiments.BuildStartupImage(cfg)
		if err != nil {
			b.Fatal(err)
		}
		require := cfg != experiments.StartupClear
		b.Run(string(cfg), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := experiments.RunStartup(packed, require); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- C1: canonicalization throughput ---------------------------------------

func BenchmarkC14N(b *testing.B) {
	for _, size := range []int{1 << 10, 16 << 10, 256 << 10} {
		doc := workload.XMLDocument(size, uint64(size))
		root := doc.Root()
		for _, mode := range []struct {
			name string
			opts c14n.Options
		}{
			{"inclusive", c14n.Options{}},
			{"exclusive", c14n.Options{Exclusive: true}},
			{"inclusive-comments", c14n.Options{WithComments: true}},
		} {
			b.Run(fmt.Sprintf("%s/size=%d", mode.name, size), func(b *testing.B) {
				b.SetBytes(int64(size))
				for i := 0; i < b.N; i++ {
					if _, err := c14n.Canonicalize(root, mode.opts); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// --- Ablations (DESIGN.md §5) ----------------------------------------------

// BenchmarkDigestAlgorithms ablates the 2005 SHA-1 default against the
// modern SHA-256/512 defaults over the signing path.
func BenchmarkDigestAlgorithms(b *testing.B) {
	_, creator := experiments.PKIFixture()
	doc := workload.XMLDocument(32<<10, 7)
	algs := []struct {
		name   string
		digest string
	}{
		{"sha1", xmlsecuri.DigestSHA1},
		{"sha256", xmlsecuri.DigestSHA256},
		{"sha512", xmlsecuri.DigestSHA512},
	}
	for _, alg := range algs {
		b.Run(alg.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				d := doc.Clone()
				_, err := xmldsig.SignEnveloped(d, d.Root(), xmldsig.SignOptions{
					Key:          creator.Key,
					DigestMethod: alg.digest,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCipherModes ablates XML-Enc 1.0 CBC against 1.1 GCM.
func BenchmarkCipherModes(b *testing.B) {
	payload := workload.Bytes(64<<10, 99)
	modes := []struct {
		name string
		alg  string
		key  []byte
	}{
		{"aes128-cbc", xmlsecuri.EncAES128CBC, experiments.EncKey},
		{"aes256-cbc", xmlsecuri.EncAES256CBC, experiments.EncKey256},
		{"aes128-gcm", xmlsecuri.EncAES128GCM, experiments.EncKey},
		{"aes256-gcm", xmlsecuri.EncAES256GCM, experiments.EncKey256},
	}
	for _, m := range modes {
		b.Run(m.name, func(b *testing.B) {
			b.SetBytes(int64(len(payload)))
			for i := 0; i < b.N; i++ {
				doc, err := xmlenc.EncryptOctets(payload, xmlenc.EncryptOptions{Algorithm: m.alg, Key: m.key})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := xmlenc.DecryptOctets(doc.Root(), xmlenc.DecryptOptions{Key: m.key}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkKeyTransport ablates the key delivery mechanisms.
func BenchmarkKeyTransport(b *testing.B) {
	rsaKey, err := rsa.GenerateKey(rand.Reader, 2048)
	if err != nil {
		b.Fatal(err)
	}
	payload := workload.Bytes(4<<10, 3)
	cases := []struct {
		name string
		enc  xmlenc.EncryptOptions
		dec  xmlenc.DecryptOptions
	}{
		{"rsa-oaep", xmlenc.EncryptOptions{RecipientKey: &rsaKey.PublicKey, KeyTransport: xmlsecuri.KeyTransportRSAOAEP}, xmlenc.DecryptOptions{RSAKey: rsaKey}},
		{"rsa-1_5", xmlenc.EncryptOptions{RecipientKey: &rsaKey.PublicKey, KeyTransport: xmlsecuri.KeyTransportRSA15}, xmlenc.DecryptOptions{RSAKey: rsaKey}},
		{"kw-aes128", xmlenc.EncryptOptions{KEK: experiments.EncKey}, xmlenc.DecryptOptions{KEK: experiments.EncKey}},
		{"direct", xmlenc.EncryptOptions{Key: experiments.EncKey256}, xmlenc.DecryptOptions{Key: experiments.EncKey256}},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				doc, err := xmlenc.EncryptOctets(payload, c.enc)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := xmlenc.DecryptOctets(doc.Root(), c.dec); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkParse measures the DOM substrate itself (every security
// operation starts with a parse).
func BenchmarkParse(b *testing.B) {
	for _, size := range []int{1 << 10, 64 << 10} {
		raw := workload.XMLDocument(size, uint64(size)).Bytes()
		b.Run(fmt.Sprintf("size=%d", size), func(b *testing.B) {
			b.SetBytes(int64(len(raw)))
			for i := 0; i < b.N; i++ {
				if _, err := xmldom.ParseBytes(raw); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkImageContainer measures disc image pack/unpack (the
// player's first step on any load).
func BenchmarkImageContainer(b *testing.B) {
	im := disc.NewImage()
	im.Put("INDEX/cluster.xml", workload.XMLDocument(8<<10, 1).Bytes())
	im.Put("CLIPS/clip-1.m2ts", disc.GenerateClip(disc.ClipSpec{DurationMS: 500, BitrateKbps: 8000, Seed: 2}))
	packed := im.Bytes()
	b.Run("pack", func(b *testing.B) {
		b.SetBytes(int64(len(packed)))
		for i := 0; i < b.N; i++ {
			_ = im.Bytes()
		}
	})
	b.Run("unpack", func(b *testing.B) {
		b.SetBytes(int64(len(packed)))
		for i := 0; i < b.N; i++ {
			if _, err := disc.ReadImageBytes(packed); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkLicenseLifecycle measures signed-license verification + grant
// evaluation (per play in the licensed path).
func BenchmarkLicenseLifecycle(b *testing.B) {
	_, creator := experiments.PKIFixture()
	lic := &rights.License{ID: "bench", Issuer: creator.Name, Grants: []rights.Grant{
		{Principal: "*", Right: rights.RightPlay, Resource: "*"},
	}}
	doc := lic.Document()
	if _, err := xmldsig.SignEnveloped(doc, doc.Root(), xmldsig.SignOptions{
		Key:     creator.Key,
		KeyInfo: xmldsig.KeyInfoSpec{Certificates: creator.Chain},
	}); err != nil {
		b.Fatal(err)
	}
	raw := doc.Bytes()
	root, _ := experiments.PKIFixture()

	b.Run("verify+parse", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			d, err := xmldom.ParseBytes(raw)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := xmldsig.VerifyDocument(d, xmldsig.VerifyOptions{Roots: root.Pool()}); err != nil {
				b.Fatal(err)
			}
			if _, err := rights.Parse(d); err != nil {
				b.Fatal(err)
			}
		}
	})
	eval := rights.NewEvaluator(lic)
	b.Run("exercise", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := eval.Exercise("any", rights.RightPlay, "t"); err != nil {
				b.Fatal(err)
			}
		}
	})
}
