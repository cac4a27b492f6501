package analysis

import (
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// sharedLoader memoizes one Loader (and therefore one type-checked
// stdlib) across all fixture tests.
var sharedLoader = sync.OnceValues(func() (*Loader, error) {
	return NewLoader(".")
})

func loadFixture(t *testing.T, dir, importPath string) *Package {
	t.Helper()
	l, err := sharedLoader()
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	pkg, err := l.LoadDir(filepath.Join("testdata", "src", dir), importPath)
	if err != nil {
		t.Fatalf("LoadDir(%s): %v", dir, err)
	}
	return pkg
}

// wantDiags parses `// want rule1 rule2` markers from the fixture's
// comments into a line -> rules map.
func wantDiags(pkg *Package) map[int][]string {
	want := map[int][]string{}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, "// want ")
				if !ok {
					continue
				}
				line := pkg.Fset.Position(c.Pos()).Line
				want[line] = append(want[line], strings.Fields(rest)...)
			}
		}
	}
	return want
}

// checkFixture runs the analyzers over the fixture package and
// compares the resulting (line, rule) pairs against the `// want`
// markers.
func checkFixture(t *testing.T, pkg *Package, analyzers ...*Analyzer) {
	t.Helper()
	got := map[int][]string{}
	for _, d := range Run([]*Package{pkg}, analyzers) {
		got[d.Pos.Line] = append(got[d.Pos.Line], d.Rule)
	}
	want := wantDiags(pkg)
	for line, rules := range want {
		if strings.Join(got[line], " ") != strings.Join(rules, " ") {
			t.Errorf("line %d: got diagnostics %v, want %v", line, got[line], rules)
		}
	}
	for line, rules := range got {
		if len(want[line]) == 0 {
			t.Errorf("line %d: unexpected diagnostics %v", line, rules)
		}
	}
}

func TestCryptoCompareFixture(t *testing.T) {
	pkg := loadFixture(t, "cryptocompare", "discsec/internal/disc/ccfixture")
	checkFixture(t, pkg, CryptoCompare)
}

func TestCryptoCompareOutsideCryptoPackages(t *testing.T) {
	// The same violating code loaded as a non-crypto package must be
	// clean: the rule is scoped to the Verifier/Decryptor path.
	pkg := loadFixture(t, "cryptocompare", "discsec/internal/player/ccfixture")
	if diags := Run([]*Package{pkg}, []*Analyzer{CryptoCompare}); len(diags) != 0 {
		t.Errorf("got %d diagnostics outside crypto packages, want 0: %v", len(diags), diags)
	}
}

func TestWeakRandSensitivePackage(t *testing.T) {
	pkg := loadFixture(t, "weakrand_pkg", "discsec/internal/keymgmt/wrfixture")
	checkFixture(t, pkg, WeakRand)
}

func TestWeakRandAssignments(t *testing.T) {
	pkg := loadFixture(t, "weakrand_assign", "discsec/internal/markup/wrfixture")
	checkFixture(t, pkg, WeakRand)
}

func TestErrWrapFixture(t *testing.T) {
	pkg := loadFixture(t, "errwrap", "discsec/internal/ewfixture")
	checkFixture(t, pkg, ErrWrap)
}

func TestXMLParseFixture(t *testing.T) {
	pkg := loadFixture(t, "xmlparse", "discsec/internal/server/xpfixture")
	checkFixture(t, pkg, XMLParse)
}

// TestXMLParseFlagsParserPackages: the parsing layer itself has no
// exemption any more — its scanner owns tokenizing outright.
func TestXMLParseFlagsParserPackages(t *testing.T) {
	for _, path := range []string{"discsec/internal/xmlstream/xpfixture", "discsec/internal/xmldom/xpfixture"} {
		checkFixture(t, loadFixture(t, "xmlparse", path), XMLParse)
	}
}

func TestHTTPClientFixture(t *testing.T) {
	pkg := loadFixture(t, "httpclient", "discsec/internal/server/hcfixture")
	checkFixture(t, pkg, HTTPClient)
}

func TestHTTPClientOutsideNetworkedPackages(t *testing.T) {
	// The same deadline-less code loaded outside the networked
	// packages must be clean: the rule is scoped to where a hung
	// connection stalls the player.
	pkg := loadFixture(t, "httpclient", "discsec/internal/disc/hcfixture")
	if diags := Run([]*Package{pkg}, []*Analyzer{HTTPClient}); len(diags) != 0 {
		t.Errorf("got %d diagnostics outside networked packages, want 0: %v", len(diags), diags)
	}
}

func TestObsCtxFixture(t *testing.T) {
	pkg := loadFixture(t, "obsctx", "discsec/internal/core/ocfixture")
	checkFixture(t, pkg, ObsCtx)
}

func TestObsCtxOutsidePipelinePackages(t *testing.T) {
	// The same ctx-dropping code loaded outside the pipeline packages
	// must be clean: the rule is scoped to where a dropped ctx severs
	// the recorder and cancellation.
	pkg := loadFixture(t, "obsctx", "discsec/internal/disc/ocfixture")
	if diags := Run([]*Package{pkg}, []*Analyzer{ObsCtx}); len(diags) != 0 {
		t.Errorf("got %d diagnostics outside pipeline packages, want 0: %v", len(diags), diags)
	}
}

func TestObsCtxCoversLibraryPackage(t *testing.T) {
	// internal/library is a pipeline package: its entry points carry
	// ctx for cancellation and the recorder, so a dropped ctx flags
	// there exactly as it does in core.
	pkg := loadFixture(t, "obsctx", "discsec/internal/library/ocfixture")
	checkFixture(t, pkg, ObsCtx)
	if diags := Run([]*Package{pkg}, []*Analyzer{ObsCtx}); len(diags) != 1 {
		t.Errorf("got %d diagnostics under internal/library, want 1: %v", len(diags), diags)
	}
}

func TestLockSafetyFixture(t *testing.T) {
	pkg := loadFixture(t, "locksafety", "discsec/internal/lsfixture")
	checkFixture(t, pkg, LockSafety)
}

func TestSuppression(t *testing.T) {
	pkg := loadFixture(t, "suppress", "discsec/internal/disc/supfixture")
	diags := Run([]*Package{pkg}, []*Analyzer{CryptoCompare})

	for _, d := range diags {
		if d.Rule == "cryptocompare" {
			t.Errorf("suppressed finding leaked through: %v", d)
		}
	}
	var unknown, missing int
	for _, d := range diags {
		if d.Rule != "discvet" {
			continue
		}
		switch {
		case strings.Contains(d.Message, strconv.Quote("nosuchrule")):
			unknown++
		case strings.Contains(d.Message, "missing a rule name"):
			missing++
		default:
			t.Errorf("unexpected discvet diagnostic: %v", d)
		}
	}
	if unknown != 1 {
		t.Errorf("got %d unknown-rule diagnostics, want 1 (diags: %v)", unknown, diags)
	}
	if missing != 1 {
		t.Errorf("got %d missing-rule-name diagnostics, want 1 (diags: %v)", missing, diags)
	}
}

func TestLoadModulePackages(t *testing.T) {
	l, err := sharedLoader()
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	pkgs, err := l.Load("./internal/analysis", "./internal/xmldom")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(pkgs) != 2 {
		t.Fatalf("got %d packages, want 2", len(pkgs))
	}
	if pkgs[0].Path != "discsec/internal/analysis" || pkgs[1].Path != "discsec/internal/xmldom" {
		t.Errorf("unexpected package paths: %s, %s", pkgs[0].Path, pkgs[1].Path)
	}
}

func TestByName(t *testing.T) {
	for _, a := range Analyzers() {
		if ByName(a.Name) != a {
			t.Errorf("ByName(%q) did not round-trip", a.Name)
		}
	}
	if ByName("nosuchrule") != nil {
		t.Errorf("ByName(nosuchrule) = non-nil")
	}
}

func TestSplitWords(t *testing.T) {
	cases := []struct {
		in   string
		want string
	}{
		{"clipDigest", "clip digest"},
		{"HMACKey", "hmac key"},
		{"want_sum", "want sum"},
		{"DSigNamespace", "d sig namespace"},
		{"sha256Sum", "sha sum"},
		{"design", "design"},
	}
	for _, c := range cases {
		if got := strings.Join(splitWords(c.in), " "); got != c.want {
			t.Errorf("splitWords(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestReaderFirstFixture(t *testing.T) {
	pkg := loadFixture(t, "readerfirst", "discsec/internal/player/rffixture")
	checkFixture(t, pkg, ReaderFirst)
}

func TestReaderFirstCleanFixture(t *testing.T) {
	pkg := loadFixture(t, "readerfirst_clean", "discsec/internal/player/rffixtureclean")
	if diags := Run([]*Package{pkg}, []*Analyzer{ReaderFirst}); len(diags) != 0 {
		t.Errorf("got %d diagnostics on decoupled buffering, want 0: %v", len(diags), diags)
	}
}

func TestObsCtxCoversClusterPackage(t *testing.T) {
	// internal/cluster is a pipeline package: edge opens carry ctx for
	// cancellation and the recorder, so a dropped ctx flags there
	// exactly as it does in core and library.
	pkg := loadFixture(t, "obsctx", "discsec/internal/cluster/ocfixture")
	checkFixture(t, pkg, ObsCtx)
	if diags := Run([]*Package{pkg}, []*Analyzer{ObsCtx}); len(diags) != 1 {
		t.Errorf("got %d diagnostics under internal/cluster, want 1: %v", len(diags), diags)
	}
}

func TestHTTPClientCoversClusterPackage(t *testing.T) {
	// internal/cluster talks to origin and peer edges over HTTP; a
	// deadline-less client there would hang an edge on a partitioned
	// origin instead of entering the heartbeat/breaker path.
	pkg := loadFixture(t, "httpclient", "discsec/internal/cluster/hcfixture")
	checkFixture(t, pkg, HTTPClient)
}

func TestReaderFirstClusterFixture(t *testing.T) {
	pkg := loadFixture(t, "readerfirst_cluster", "discsec/internal/player/rfcluster")
	checkFixture(t, pkg, ReaderFirst)
}
