// Package experiments contains the fixtures and operations behind every
// reproduced table and figure (DESIGN.md experiment index E1–E7, C1).
// The root bench_test.go times these operations under testing.B; the
// cmd/discbench harness times them with its own stopwatch and prints the
// tables EXPERIMENTS.md records.
package experiments

import (
	"context"
	"fmt"
	"sync"

	"discsec/internal/access"
	"discsec/internal/core"
	"discsec/internal/disc"
	"discsec/internal/keymgmt"
	"discsec/internal/omadcf"
	"discsec/internal/player"
	"discsec/internal/workload"
	"discsec/internal/xmldom"
	"discsec/internal/xmldsig"
	"discsec/internal/xmlenc"
	"discsec/internal/xmlsecuri"
)

// Fixed deterministic keys for symmetric experiments.
var (
	// HMACKey authenticates XML and DCF packages alike in E1/E2, so
	// the comparison isolates framing cost from asymmetric-crypto
	// cost.
	HMACKey = workload.Bytes(32, 0xA11CE)
	// EncKey is the shared AES-128 content key (DCF v2.0 mandates
	// AES-128-CBC; the XML side uses the same cipher for parity).
	EncKey = workload.Bytes(16, 0xB0B)
	// EncKey256 is used by modern-mode ablations.
	EncKey256 = workload.Bytes(32, 0xC0DE)
)

// PKI is the lazily built experiment PKI (ECDSA: fast issuance).
var pkiOnce sync.Once
var pki struct {
	Root    *keymgmt.CA
	Creator *keymgmt.Identity
}

// PKIFixture returns the shared experiment PKI.
func PKIFixture() (*keymgmt.CA, *keymgmt.Identity) {
	pkiOnce.Do(func() {
		root, err := keymgmt.NewRootCA("Experiment Root", keymgmt.ECDSAP256)
		if err != nil {
			panic(err)
		}
		creator, err := root.IssueIdentity("Experiment Studio", keymgmt.ECDSAP256)
		if err != nil {
			panic(err)
		}
		pki.Root, pki.Creator = root, creator
	})
	return pki.Root, pki.Creator
}

// --- E1/E2: XML security vs. OMA DCF ------------------------------------

// BuildXMLPackage protects a payload the XML way: the octets become an
// EncryptedData (AES-128-CBC, matching DCF), wrapped in an enveloped
// HMAC-SHA256 signature — integrity plus confidentiality, the same
// guarantees the DCF baseline provides.
func BuildXMLPackage(payload []byte) ([]byte, error) {
	doc, err := xmlenc.EncryptOctets(payload, xmlenc.EncryptOptions{
		Algorithm: xmlsecuri.EncAES128CBC,
		Key:       EncKey,
		MimeType:  "application/octet-stream",
	})
	if err != nil {
		return nil, err
	}
	if _, err := xmldsig.SignEnveloped(doc, doc.Root(), xmldsig.SignOptions{
		HMACKey:         HMACKey,
		SignatureMethod: xmlsecuri.SigHMACSHA256,
	}); err != nil {
		return nil, err
	}
	return doc.Bytes(), nil
}

// OpenXMLPackage verifies and decrypts an XML package.
func OpenXMLPackage(pkg []byte) ([]byte, error) {
	doc, err := xmldom.ParseBytes(pkg)
	if err != nil {
		return nil, err
	}
	if _, err := xmldsig.VerifyDocument(doc, xmldsig.VerifyOptions{HMACKey: HMACKey}); err != nil {
		return nil, err
	}
	eds := xmlenc.FindEncryptedData(doc)
	if len(eds) != 1 {
		return nil, fmt.Errorf("experiments: %d EncryptedData in package", len(eds))
	}
	return xmlenc.DecryptOctets(eds[0], xmlenc.DecryptOptions{Key: EncKey})
}

// BuildDCFPackage protects a payload the binary way.
func BuildDCFPackage(payload []byte) ([]byte, error) {
	return omadcf.Protect(payload, dcfOptions())
}

// OpenDCFPackage verifies and decrypts a DCF package.
func OpenDCFPackage(pkg []byte) ([]byte, error) {
	return omadcf.Unprotect(pkg, dcfOptions())
}

func dcfOptions() omadcf.ProtectOptions {
	return omadcf.ProtectOptions{
		ContentType:   "application/octet-stream",
		KeyHint:       "cid:bench@studio.example",
		EncryptionKey: EncKey,
		MACKey:        HMACKey,
	}
}

// E1Payloads is the payload sweep of the overhead experiment.
var E1Payloads = []int{256, 512, 1024, 4096, 16384, 65536, 262144, 1048576}

// --- E3/E4: signing granularity and forms --------------------------------

// StandardCluster builds the fixed evaluation cluster: three A/V tracks
// and one application with three submarkups and two scripts, mirroring
// the paper's reference application shape.
func StandardCluster() (*disc.InteractiveCluster, map[string][]byte) {
	return workload.Cluster(workload.ClusterSpec{
		AVTracks:  3,
		AppTracks: 1,
		Manifest: workload.ManifestSpec{
			Regions:          4,
			MediaItems:       8,
			Scripts:          2,
			ScriptStatements: 60,
			HighScoreEntries: 16,
		},
		ClipDurationMS:  200,
		ClipBitrateKbps: 8000,
		Seed:            2005,
	})
}

// GranularityTarget describes one E3 signing target.
type GranularityTarget struct {
	Name  string
	Level core.Level
	ID    string
}

// GranularityTargets lists the E3 sweep, broadest first.
func GranularityTargets() []GranularityTarget {
	return []GranularityTarget{
		{"cluster", core.LevelCluster, ""},
		{"track", core.LevelTrack, "t-app-1"},
		{"manifest", core.LevelManifest, "app-1"},
		{"markup", core.LevelMarkup, "app-1"},
		{"code", core.LevelCode, "app-1"},
	}
}

// E3 uses a large cluster (several application tracks with heavy
// manifests) so the digested-content volume differs visibly across
// granularities: cluster >> track >> manifest >> markup/code.
var e3Once sync.Once
var e3DocBytes []byte

// E3ClusterBytes returns the cached serialized unsigned E3 cluster.
func E3ClusterBytes() []byte {
	e3Once.Do(func() {
		cluster, _ := workload.Cluster(workload.ClusterSpec{
			AVTracks:  2,
			AppTracks: 6,
			Manifest: workload.ManifestSpec{
				Regions:          8,
				MediaItems:       48,
				Scripts:          4,
				ScriptStatements: 600,
				HighScoreEntries: 64,
			},
			ClipDurationMS: 50,
			Seed:           3,
		})
		e3DocBytes = cluster.Document().Bytes()
	})
	return e3DocBytes
}

var e3TemplateOnce sync.Once
var e3Template *xmldom.Document

func e3ParsedTemplate() *xmldom.Document {
	e3TemplateOnce.Do(func() {
		doc, err := xmldom.ParseBytes(E3ClusterBytes())
		if err != nil {
			panic(err)
		}
		e3Template = doc
	})
	return e3Template
}

// SignAtLevel parses a fresh copy of the E3 cluster and signs it at the
// target granularity, returning the serialized signed document (the
// full authoring path including parse and serialize).
func SignAtLevel(t GranularityTarget) ([]byte, error) {
	_, creator := PKIFixture()
	doc, err := xmldom.ParseBytes(E3ClusterBytes())
	if err != nil {
		return nil, err
	}
	p := &core.Protector{Identity: creator}
	if _, err := p.Sign(doc, t.Level, t.ID); err != nil {
		return nil, err
	}
	return doc.Bytes(), nil
}

// SignOnlyAtLevel signs a clone of the pre-parsed E3 cluster, excluding
// parse and serialization so the measurement isolates digest coverage
// (canonicalize + hash + sign).
func SignOnlyAtLevel(t GranularityTarget) error {
	_, creator := PKIFixture()
	doc := e3ParsedTemplate().Clone()
	p := &core.Protector{Identity: creator}
	_, err := p.Sign(doc, t.Level, t.ID)
	return err
}

// ParsedSignedAtLevel returns a parsed signed document for
// VerifyOnly measurements.
func ParsedSignedAtLevel(t GranularityTarget) (*xmldom.Document, error) {
	raw, err := SignAtLevel(t)
	if err != nil {
		return nil, err
	}
	return xmldom.ParseBytes(raw)
}

// VerifyOnly validates the signatures of a pre-parsed document,
// excluding parse time. The document carries no encrypted regions, so
// repeated calls observe identical state.
func VerifyOnly(doc *xmldom.Document) error {
	root, _ := PKIFixture()
	opener := &core.Opener{Roots: root.Pool(), RequireSignature: true}
	_, err := opener.OpenDocument(context.Background(), doc)
	return err
}

// VerifySigned verifies a document produced by SignAtLevel.
func VerifySigned(raw []byte) error {
	root, _ := PKIFixture()
	opener := &core.Opener{Roots: root.Pool(), RequireSignature: true}
	_, err := opener.Open(context.Background(), raw)
	return err
}

// SignatureForm is one E4 variant.
type SignatureForm string

// The three XML-DSig forms of the paper's Fig. 6.
const (
	FormEnveloped  SignatureForm = "enveloped"
	FormEnveloping SignatureForm = "enveloping"
	FormDetached   SignatureForm = "detached"
)

// ManifestElement builds the fixed E4 manifest element.
func ManifestElement() *xmldom.Element {
	m := workload.Manifest(workload.ManifestSpec{
		ID: "e4-app", Regions: 2, MediaItems: 4, ScriptStatements: 30, Seed: 4,
	})
	return m.Element()
}

// SignForm signs the E4 manifest in the given form, returning the
// serialized signature document (enveloped: manifest containing the
// signature; enveloping: signature containing the manifest; detached:
// standalone signature referencing the manifest bytes externally).
func SignForm(form SignatureForm) (pkg []byte, external []byte, err error) {
	_, creator := PKIFixture()
	opts := xmldsig.SignOptions{
		Key:             creator.Key,
		SignatureMethod: xmlsecuri.SigECDSASHA256,
		KeyInfo:         xmldsig.KeyInfoSpec{Certificates: creator.Chain},
	}
	el := ManifestElement()
	switch form {
	case FormEnveloped:
		doc := &xmldom.Document{}
		doc.SetRoot(el)
		if _, err := xmldsig.SignEnveloped(doc, doc.Root(), opts); err != nil {
			return nil, nil, err
		}
		return doc.Bytes(), nil, nil
	case FormEnveloping:
		doc, err := xmldsig.SignEnveloping(el, "e4-object", opts)
		if err != nil {
			return nil, nil, err
		}
		return doc.Bytes(), nil, nil
	case FormDetached:
		content := el.Bytes()
		resolver := xmldsig.ExternalResolverFunc(func(uri string) ([]byte, error) {
			if uri == "disc://APPS/e4-app/manifest.xml" {
				return content, nil
			}
			return nil, fmt.Errorf("unknown uri %q", uri)
		})
		doc, err := xmldsig.SignDetached([]xmldsig.ReferenceSpec{
			{URI: "disc://APPS/e4-app/manifest.xml"},
		}, resolver, opts)
		if err != nil {
			return nil, nil, err
		}
		return doc.Bytes(), content, nil
	default:
		return nil, nil, fmt.Errorf("experiments: unknown form %q", form)
	}
}

// VerifyForm verifies a SignForm output.
func VerifyForm(form SignatureForm, pkg, external []byte) error {
	root, _ := PKIFixture()
	doc, err := xmldom.ParseBytes(pkg)
	if err != nil {
		return err
	}
	vo := xmldsig.VerifyOptions{Roots: root.Pool()}
	if form == FormDetached {
		vo.Resolver = xmldsig.ExternalResolverFunc(func(uri string) ([]byte, error) {
			return external, nil
		})
	}
	_, err = xmldsig.VerifyDocument(doc, vo)
	return err
}

// --- E5: full vs. partial encryption --------------------------------------

// GameDocument builds a game manifest document with n high-score
// entries; the rest of the manifest (markup + code) is the invariant
// "general application markup" the paper suggests leaving unencrypted.
func GameDocument(scoreEntries int) *xmldom.Document {
	return GameDocumentSized(scoreEntries, 80)
}

// GameDocumentSized controls both the sensitive region (score entries)
// and the unencrypted remainder (script statements). The paper's
// partial-encryption advantage grows with the remainder: full
// encryption pays for bytes partial encryption never touches.
func GameDocumentSized(scoreEntries, scriptStatements int) *xmldom.Document {
	m := workload.Manifest(workload.ManifestSpec{
		ID: "game", Regions: 3, MediaItems: 6,
		ScriptStatements: scriptStatements, HighScoreEntries: scoreEntries, Seed: 55,
	})
	doc := &xmldom.Document{}
	doc.SetRoot(m.Element())
	return doc
}

// EncryptFull encrypts the entire manifest element content.
func EncryptFull(doc *xmldom.Document) error {
	_, err := xmlenc.EncryptContent(doc.Root(), xmlenc.EncryptOptions{
		Algorithm: xmlsecuri.EncAES128CBC, Key: EncKey,
	})
	return err
}

// EncryptScoresOnly encrypts only the high-score state submarkup.
func EncryptScoresOnly(doc *xmldom.Document) error {
	el, err := doc.Root().Find("//submarkup[@kind='state']")
	if err != nil {
		return err
	}
	if el == nil {
		return fmt.Errorf("experiments: no state submarkup")
	}
	_, err = xmlenc.EncryptElement(el, xmlenc.EncryptOptions{
		Algorithm: xmlsecuri.EncAES128CBC, Key: EncKey,
	})
	return err
}

// DecryptAllIn opens every encrypted region.
func DecryptAllIn(raw []byte) error {
	doc, err := xmldom.ParseBytes(raw)
	if err != nil {
		return err
	}
	_, err = xmlenc.DecryptAll(doc, xmlenc.DecryptOptions{Key: EncKey})
	return err
}

// --- E6: end-to-end pipeline ---------------------------------------------

// PipelineStages runs the Fig. 9 flow once, returning the serialized
// artifacts each stage produces so callers can time the stages
// separately.
type PipelineArtifacts struct {
	Authored    []byte // signed + encrypted document
	PackedImage []byte // full disc image container
}

// AuthorPipeline performs the authoring half: build cluster, sign
// (cluster level), encrypt code regions, package the image.
func AuthorPipeline() (*PipelineArtifacts, error) {
	_, creator := PKIFixture()
	cluster, clips := StandardCluster()
	p := &core.Protector{Identity: creator}
	im, err := p.Package(core.PackageSpec{
		Cluster: cluster,
		Clips:   clips,
		PermissionRequests: map[string]*access.PermissionRequest{
			"app-1": GamePermissions("app-1"),
		},
		Sign:         true,
		SignLevel:    core.LevelCluster,
		EncryptPaths: []string{"//manifest/code"},
		Encryption:   xmlenc.EncryptOptions{Algorithm: xmlsecuri.EncAES128CBC, Key: EncKey},
		SignClips:    true,
	})
	if err != nil {
		return nil, err
	}
	authored, err := im.Get(disc.IndexPath)
	if err != nil {
		return nil, err
	}
	return &PipelineArtifacts{Authored: authored, PackedImage: im.Bytes()}, nil
}

// PlayerPipeline performs the consumption half on a packed image:
// unpack, decrypt+verify, permissions, execute. Returns the execution
// report.
func PlayerPipeline(packed []byte) (*player.ExecutionReport, error) {
	root, _ := PKIFixture()
	im, err := disc.ReadImageBytes(packed)
	if err != nil {
		return nil, err
	}
	e := player.NewEngine(
		player.WithTrustPool(root.Pool()),
		player.WithPolicy(PlatformPolicy()),
		player.WithStorage(disc.NewLocalStorage(0)),
		player.WithDecryptKeys(xmlenc.DecryptOptions{Key: EncKey}),
		player.WithRequireSignature(true),
	)
	sess, err := e.Load(context.Background(), im)
	if err != nil {
		return nil, err
	}
	return sess.RunApplication("t-app-1")
}

// GamePermissions is the standard permission request of the experiment
// application.
func GamePermissions(appID string) *access.PermissionRequest {
	return &access.PermissionRequest{
		AppID: appID,
		Permissions: []access.Permission{
			{Name: access.PermLocalStorageRead, Target: appID + "/*"},
			{Name: access.PermLocalStorageWrite, Target: appID + "/*"},
			{Name: access.PermGraphicsPlane},
		},
	}
}

// PlatformPolicy is the experiment platform policy: verified
// applications get what they ask for, unverified nothing.
func PlatformPolicy() *access.PDP {
	return &access.PDP{PolicySet: access.PolicySet{
		ID:        "experiment-platform",
		Combining: access.DenyOverrides,
		Policies: []access.Policy{{
			ID:        "verified-gate",
			Combining: access.FirstApplicable,
			Rules: []access.Rule{
				{
					ID:     "deny-unverified",
					Effect: access.EffectDeny,
					Condition: access.Not{C: access.Compare{
						Category: access.CatSubject, Attribute: "verified",
						Op: access.OpEquals, Value: "true",
					}},
				},
				{ID: "permit-rest", Effect: access.EffectPermit},
			},
		}},
	}}
}

// --- E7: player startup configurations ------------------------------------

// StartupConfig is one E7 protection configuration.
type StartupConfig string

// E7 configurations.
const (
	StartupClear            StartupConfig = "clear"
	StartupSigned           StartupConfig = "signed"
	StartupSignedEncrypted  StartupConfig = "signed+encrypted"
	StartupSignedPartialEnc StartupConfig = "signed+partial-enc"
)

// StartupConfigs lists the E7 sweep.
func StartupConfigs() []StartupConfig {
	return []StartupConfig{StartupClear, StartupSigned, StartupSignedEncrypted, StartupSignedPartialEnc}
}

// BuildStartupImage packages the standard cluster under a configuration.
func BuildStartupImage(cfg StartupConfig) ([]byte, error) {
	_, creator := PKIFixture()
	cluster, clips := StandardCluster()
	spec := core.PackageSpec{
		Cluster: cluster,
		Clips:   clips,
		PermissionRequests: map[string]*access.PermissionRequest{
			"app-1": GamePermissions("app-1"),
		},
	}
	switch cfg {
	case StartupClear:
	case StartupSigned:
		spec.Sign = true
		spec.SignLevel = core.LevelCluster
	case StartupSignedEncrypted:
		spec.Sign = true
		spec.SignLevel = core.LevelCluster
		spec.EncryptPaths = []string{"//manifest"}
		spec.Encryption = xmlenc.EncryptOptions{Algorithm: xmlsecuri.EncAES128CBC, Key: EncKey}
	case StartupSignedPartialEnc:
		spec.Sign = true
		spec.SignLevel = core.LevelCluster
		spec.EncryptPaths = []string{"//submarkup[@kind='state']"}
		spec.Encryption = xmlenc.EncryptOptions{Algorithm: xmlsecuri.EncAES128CBC, Key: EncKey}
	default:
		return nil, fmt.Errorf("experiments: unknown startup config %q", cfg)
	}
	p := &core.Protector{Identity: creator}
	im, err := p.Package(spec)
	if err != nil {
		return nil, err
	}
	return im.Bytes(), nil
}

// RunStartup loads a startup image and executes the application (cold
// start to last script statement).
func RunStartup(packed []byte, requireSignature bool) error {
	root, _ := PKIFixture()
	im, err := disc.ReadImageBytes(packed)
	if err != nil {
		return err
	}
	e := player.NewEngine(
		player.WithTrustPool(root.Pool()),
		player.WithPolicy(PlatformPolicy()),
		player.WithStorage(disc.NewLocalStorage(0)),
		player.WithDecryptKeys(xmlenc.DecryptOptions{Key: EncKey}),
		player.WithRequireSignature(requireSignature),
	)
	sess, err := e.Load(context.Background(), im)
	if err != nil {
		return err
	}
	rep, err := sess.RunApplication("t-app-1")
	if err != nil {
		return err
	}
	if len(rep.ScriptErrors) > 0 {
		return fmt.Errorf("experiments: script errors: %v", rep.ScriptErrors)
	}
	return nil
}
