package disc_test

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"discsec/internal/core"
	"discsec/internal/disc"
	"discsec/internal/experiments"
	"discsec/internal/workload"
	"discsec/internal/xmldom"
	"discsec/internal/xmlenc"
	"discsec/internal/xmlsecuri"
)

// oracleVerifiedCluster is the decode ParseCluster replaced for
// verified documents: strip every Signature and EncryptedData element
// from a deep copy of the document, then decode the copy.
func oracleVerifiedCluster(doc *xmldom.Document) (*disc.InteractiveCluster, error) {
	clean := doc.Clone()
	if root := clean.Root(); root != nil {
		var remove []*xmldom.Element
		root.Walk(func(n xmldom.Node) bool {
			el, ok := n.(*xmldom.Element)
			if !ok {
				return true
			}
			if el.Local == "Signature" || el.Local == "EncryptedData" {
				remove = append(remove, el)
				return false
			}
			return true
		})
		for _, el := range remove {
			el.Detach()
		}
	}
	return disc.ParseCluster(clean)
}

const (
	dsSig  = `<ds:Signature xmlns:ds="http://www.w3.org/2000/09/xmldsig#"><ds:SignedInfo/></ds:Signature>`
	encDat = `<xenc:EncryptedData xmlns:xenc="http://www.w3.org/2001/04/xmlenc#"><xenc:CipherData><xenc:CipherValue>AAAA</xenc:CipherValue></xenc:CipherData></xenc:EncryptedData>`
)

// crafted wraps manifest bodies into clusters that place security
// markup where the decode must leave it out.
func crafted() map[string]string {
	cluster := func(body string) string {
		return `<cluster xmlns="urn:discsec:cluster" title="T"><track Id="v" kind="av"><playlist name="p"><playitem clip="c" in="0" out="10"/></playlist></track>` +
			`<track Id="a" kind="application"><manifest Id="m">` + body + `</manifest></track>` + dsSig + `</cluster>`
	}
	layout := `<layout xmlns="urn:discsec:smil"><region id="r0"/></layout>`
	return map[string]string{
		"signature-first-in-submarkup": cluster(`<markup><submarkup kind="layout">` + dsSig + layout + `</submarkup></markup>`),
		"encrypted-first-in-submarkup": cluster(`<markup><submarkup kind="layout">` + encDat + layout + `</submarkup></markup>`),
		"only-signature-in-submarkup":  cluster(`<markup><submarkup kind="layout">` + dsSig + `</submarkup></markup>`),
		"nested-in-content": cluster(`<markup><submarkup kind="timing"><timing xmlns="urn:discsec:smil"><seq>` + encDat +
			`<text dur="1s" src="a.bin"><par>` + dsSig + `</par></text></seq>` + dsSig + `</timing></submarkup></markup>`),
		"inside-script": cluster(`<code><script language="ecmascript">var a = 1;` + dsSig + `var b = 2;` + encDat +
			`</script><script>` + encDat + `</script></code>`),
		"foreign-namespace": cluster(`<markup><submarkup kind="layout"><Signature xmlns="urn:other"/><layout><EncryptedData/><region/></layout>` +
			`</submarkup></markup>`),
		"beside-model-elements": `<cluster xmlns="urn:discsec:cluster">` + encDat + `<track Id="v" kind="av">` + dsSig +
			`<playlist>` + encDat + `<playitem clip="c" in="1" out="2"/></playlist></track></cluster>`,
		"signature-root": dsSig,
		"comments-and-text": cluster(`<markup><submarkup kind="layout">text<!-- c -->` + dsSig + `<?pi x?>` + layout +
			`</submarkup></markup><code><script>a<!-- c -->b</script></code>`),
	}
}

// verifiedCorpus opens signed, partially encrypted clusters the way the
// library and the player do, returning the verified documents.
func verifiedCorpus(t *testing.T) map[string]*xmldom.Document {
	t.Helper()
	root, creator := experiments.PKIFixture()
	opener := core.Opener{Roots: root.Pool(), Decrypt: xmlenc.DecryptOptions{Key: experiments.EncKey}, RequireSignature: true}
	out := map[string]*xmldom.Document{}
	for _, stmts := range []int{5, 60} {
		cl, clips := workload.Cluster(workload.ClusterSpec{
			AVTracks: 1, AppTracks: 2,
			Manifest:       workload.ManifestSpec{Regions: 2, MediaItems: 2, Scripts: 2, ScriptStatements: stmts},
			ClipDurationMS: 50, ClipBitrateKbps: 100,
			Seed: uint64(stmts),
		})
		for _, level := range []core.Level{core.LevelCluster, core.LevelManifest} {
			id := ""
			if level == core.LevelManifest {
				id = cl.ApplicationTracks()[1].Manifest.ID
			}
			im, err := (&core.Protector{Identity: creator}).Package(core.PackageSpec{
				Cluster: cl, Clips: clips, Sign: true, SignLevel: level, SignID: id,
				EncryptPaths: []string{"//manifest/code"},
				Encryption:   xmlenc.EncryptOptions{Algorithm: xmlsecuri.EncAES128CBC, Key: experiments.EncKey},
			})
			if err != nil {
				t.Fatal(err)
			}
			raw, err := im.ReadIndexDocumentBytes()
			if err != nil {
				t.Fatal(err)
			}
			res, err := opener.Open(context.Background(), raw)
			if err != nil {
				t.Fatal(err)
			}
			out[fmt.Sprintf("verified-%s-stmts=%d", level, stmts)] = res.Doc
		}
	}
	return out
}

// TestParseClusterMatchesOracle: the decode without a copy yields
// exactly the model the copy-and-strip decode yields, leaves the
// verified document as it was, and survives the document's release.
func TestParseClusterMatchesOracle(t *testing.T) {
	docs := verifiedCorpus(t)
	paths, err := filepath.Glob(filepath.Join("..", "xmlstream", "testdata", "cluster-*.xml"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no corpus: %v", err)
	}
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if docs[filepath.Base(p)], err = xmldom.ParseBytes(raw); err != nil {
			t.Fatal(err)
		}
	}
	for name, s := range crafted() {
		doc, err := xmldom.ParseString(s)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		docs[name] = doc
	}

	for name, doc := range docs {
		t.Run(name, func(t *testing.T) {
			before := doc.String()
			want, wantErr := oracleVerifiedCluster(doc)
			got, gotErr := disc.ParseCluster(doc)
			if after := doc.String(); after != before {
				t.Fatalf("decode modified the verified document:\n%s\nwant\n%s", after, before)
			}
			if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
				t.Fatalf("error %v, oracle %v", gotErr, wantErr)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("decoded cluster differs from the oracle's:\n%s\nwant\n%s", render(got), render(want))
			}
			// The model shares nothing with the tree: a fill releases the
			// tree right after the decode (the domPoison build overwrites
			// the released nodes).
			doc.Release()
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("decoded cluster changed when its document was released:\n%s\nwant\n%s", render(got), render(want))
			}
		})
	}
}

func render(c *disc.InteractiveCluster) string {
	if c == nil {
		return "<nil>"
	}
	return c.Document().String()
}
