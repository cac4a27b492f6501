package xmlstream_test

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"discsec/internal/core"
	"discsec/internal/experiments"
	"discsec/internal/workload"
	"discsec/internal/xmlenc"
	"discsec/internal/xmlsecuri"
)

var writeCorpus = flag.Bool("write-corpus", false, "regenerate the testdata corpus")

// corpusSizes names the committed sample documents by the number of
// script statements in their encrypted manifest code: the ends and the
// middle of the benchmark suite's 20..2000 range.
var corpusSizes = []struct {
	name  string
	stmts int
}{
	{"cluster-small", 20},
	{"cluster-medium", 200},
	{"cluster-large", 2000},
}

// TestWriteCorpus regenerates testdata/cluster-*.xml: clusters signed
// over the whole document with the experiments PKI, manifest code
// encrypted with AES-128-CBC — the same shape as the benchmark suite's
// documents. Encryption draws fresh IVs, so regenerating changes the
// bytes (and the cache keys); it only runs on request:
//
//	go test ./internal/xmlstream -run TestWriteCorpus -write-corpus
func TestWriteCorpus(t *testing.T) {
	if !*writeCorpus {
		t.Skip("pass -write-corpus to regenerate")
	}
	_, creator := experiments.PKIFixture()
	prot := &core.Protector{Identity: creator}
	for i, sz := range corpusSizes {
		cl, _ := workload.Cluster(workload.ClusterSpec{
			AppTracks: 1,
			Manifest:  workload.ManifestSpec{Regions: 2, MediaItems: 2, Scripts: 1, ScriptStatements: sz.stmts},
			Seed:      uint64(i + 1),
		})
		im, err := prot.Package(core.PackageSpec{
			Cluster:      cl,
			Sign:         true,
			SignLevel:    core.LevelCluster,
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
		if err := os.WriteFile(filepath.Join("testdata", sz.name+".xml"), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
