// Package discsec is an end-to-end XML security stack for interactive
// applications on next-generation optical discs, reproducing
// "XML Security in the Next Generation Optical Disc Context"
// (Gopakumar Nair, Gopalakrishnan, Mauw, Moll — SDM@VLDB 2005).
//
// The package is the public facade over the full stack:
//
//   - XML Digital Signature, XML Encryption, Canonical XML, and the
//     Decryption Transform (internal/xmldsig, internal/xmlenc,
//     internal/c14n, internal/dectrans), built from scratch on the Go
//     standard library;
//   - an X.509 CA and XKMS-style key service (internal/keymgmt);
//   - MHP-style permission request files and an XACML-lite policy engine
//     (internal/access);
//   - the disc content hierarchy, virtual disc images, synthetic
//     transport streams, and local storage (internal/disc);
//   - a SMIL-lite markup model and ECMAScript-subset interpreter
//     (internal/markup) executed by the player engine (internal/player);
//   - a content server and downloader (internal/server) and an
//     OMA-DCF-style binary baseline (internal/omadcf).
//
// Typical use: an Authority issues signing identities; an Author
// packages, signs and encrypts content into a disc image; a Player
// loads the image, runs the decrypt-verify pipeline, evaluates
// permissions, and executes the application.
package discsec

import (
	"context"
	"crypto"
	"crypto/x509"
	"io"

	"discsec/internal/access"
	"discsec/internal/core"
	"discsec/internal/disc"
	"discsec/internal/keymgmt"
	"discsec/internal/obs"
	"discsec/internal/player"
	"discsec/internal/xmldom"
	"discsec/internal/xmlenc"
)

// Re-exported types: the facade uses aliases so the examples, tools and
// benchmarks speak one vocabulary.
type (
	// Identity is a certified signing identity (key pair + chain).
	Identity = keymgmt.Identity
	// Image is a virtual disc image.
	Image = disc.Image
	// InteractiveCluster is the disc content hierarchy root.
	InteractiveCluster = disc.InteractiveCluster
	// Track is one cluster track.
	Track = disc.Track
	// Manifest is an application manifest.
	Manifest = disc.Manifest
	// PermissionRequest is an MHP-style permission request file.
	PermissionRequest = access.PermissionRequest
	// Permission is one requested or granted right.
	Permission = access.Permission
	// PDP is the platform policy decision point.
	PDP = access.PDP
	// Level is a signing/encryption granularity.
	Level = core.Level
	// PackageSpec configures authoring runs.
	PackageSpec = core.PackageSpec
	// EncryptOptions configures XML encryption.
	EncryptOptions = xmlenc.EncryptOptions
	// DecryptOptions configures XML decryption.
	DecryptOptions = xmlenc.DecryptOptions
	// Session is a loaded, verified disc or download.
	Session = player.Session
	// ExecutionReport is the outcome of running an application.
	ExecutionReport = player.ExecutionReport
	// OpenResult reports the security processing of a document.
	OpenResult = core.OpenResult
	// Document is a parsed XML document.
	Document = xmldom.Document
	// Recorder aggregates pipeline observability: per-stage duration
	// histograms, named counters, and the security-audit event stream.
	Recorder = obs.Recorder
	// MetricsSnapshot is a point-in-time copy of a Recorder's
	// aggregates.
	MetricsSnapshot = obs.Snapshot
)

// NewRecorder creates an enabled observability recorder (see
// internal/obs); attach it to a load with WithRecorder or set it on
// PlayerConfig.Recorder.
func NewRecorder() *Recorder { return obs.NewRecorder() }

// WithRecorder returns a context carrying the recorder; pass it to
// LoadContext/LoadDocumentContext to observe the per-stage pipeline.
func WithRecorder(ctx context.Context, r *Recorder) context.Context {
	return obs.WithRecorder(ctx, r)
}

// Granularity levels (paper §5.2).
const (
	LevelCluster  = core.LevelCluster
	LevelTrack    = core.LevelTrack
	LevelManifest = core.LevelManifest
	LevelCode     = core.LevelCode
	LevelMarkup   = core.LevelMarkup
)

// Authority is a certificate authority issuing signing identities (the
// format licensor root or a studio intermediate).
type Authority struct {
	ca *keymgmt.CA
}

// NewAuthority creates a self-signed root authority.
func NewAuthority(name string) (*Authority, error) {
	ca, err := keymgmt.NewRootCA(name, keymgmt.ECDSAP256)
	if err != nil {
		return nil, err
	}
	return &Authority{ca: ca}, nil
}

// NewIntermediate issues a subordinate authority.
func (a *Authority) NewIntermediate(name string) (*Authority, error) {
	ca, err := a.ca.NewIntermediate(name, keymgmt.ECDSAP256)
	if err != nil {
		return nil, err
	}
	return &Authority{ca: ca}, nil
}

// IssueIdentity creates a certified signing identity.
func (a *Authority) IssueIdentity(name string) (*Identity, error) {
	return a.ca.IssueIdentity(name, keymgmt.ECDSAP256)
}

// TrustPool returns the authority as a trust anchor set for players.
func (a *Authority) TrustPool() *x509.CertPool {
	return a.ca.Pool()
}

// Author is the content-creator side: signing, encrypting, packaging.
type Author struct {
	protector core.Protector
}

// NewAuthor creates an authoring context for the identity.
func NewAuthor(id *Identity) *Author {
	return &Author{protector: core.Protector{Identity: id}}
}

// Package assembles and protects a disc image per the spec.
func (a *Author) Package(spec PackageSpec) (*Image, error) {
	return a.protector.Package(spec)
}

// SignDocument signs a cluster document at the given granularity.
func (a *Author) SignDocument(doc *Document, level Level, id string) error {
	_, err := a.protector.Sign(doc, level, id)
	return err
}

// SignThenEncrypt applies the paper's §7 end-to-end order.
func (a *Author) SignThenEncrypt(doc *Document, spec core.SignThenEncryptSpec) error {
	_, err := a.protector.SignThenEncrypt(doc, spec)
	return err
}

// EncryptRegion encrypts one region before signing; pass the returned Id
// to SignThenEncrypt as a PreEncryptedID.
func (a *Author) EncryptRegion(doc *Document, path, dataID string, opts EncryptOptions) (string, error) {
	return a.protector.EncryptRegion(doc, path, dataID, opts)
}

// SignThenEncryptSpecOf builds the common sign-then-encrypt spec: sign
// at the given granularity, then encrypt the listed element paths.
func SignThenEncryptSpecOf(level Level, id string, postEncrypt []string, enc EncryptOptions) core.SignThenEncryptSpec {
	return core.SignThenEncryptSpec{
		Level:       level,
		ID:          id,
		PostEncrypt: postEncrypt,
		Encryption:  enc,
	}
}

// Player is the consumer-electronics device side.
type Player struct {
	engine player.Engine
}

// PlayerConfig configures a player runtime.
type PlayerConfig struct {
	// Trust anchors for signature chains (required for verification).
	Roots *x509.CertPool
	// Policy decides permission requests; nil denies everything.
	Policy *PDP
	// DecryptKeys supplies content decryption material.
	DecryptKeys DecryptOptions
	// RequireSignature bars unsigned content.
	RequireSignature bool
	// KeyByName resolves ds:KeyName hints via a trust service when a
	// signature carries no certificate (use
	// keymgmt.Service.PublicKeyByName or keymgmt.Client.PublicKeyByName).
	KeyByName func(name string) (crypto.PublicKey, error)
	// StorageQuota bounds local storage (0 = default 8 MiB).
	StorageQuota int64
	// Recorder receives per-stage observability for loads that do not
	// carry their own via WithRecorder; nil keeps the player silent.
	Recorder *Recorder
}

// NewPersistentPlayer creates a player whose local storage is backed by
// a directory, so application saves and license use counts survive
// restarts.
func NewPersistentPlayer(cfg PlayerConfig, storageDir string) (*Player, error) {
	p := NewPlayer(cfg)
	storage, err := disc.OpenLocalStorage(storageDir, cfg.StorageQuota)
	if err != nil {
		return nil, err
	}
	p.engine.Storage = storage
	return p, nil
}

// NewPlayer creates a player with its own local storage.
func NewPlayer(cfg PlayerConfig) *Player {
	return &Player{engine: player.Engine{
		Roots:            cfg.Roots,
		Policy:           cfg.Policy,
		Storage:          disc.NewLocalStorage(cfg.StorageQuota),
		DecryptKeys:      cfg.DecryptKeys.ExpandKey(),
		RequireSignature: cfg.RequireSignature,
		KeyByName:        cfg.KeyByName,
		Recorder:         cfg.Recorder,
	}}
}

// Load opens a disc image through the full security pipeline.
func (p *Player) Load(im *Image) (*Session, error) {
	return p.engine.Load(context.Background(), im)
}

// LoadContext is Load under a caller context; attach a Recorder with
// WithRecorder to observe the per-stage pipeline.
func (p *Player) LoadContext(ctx context.Context, im *Image) (*Session, error) {
	return p.engine.Load(ctx, im)
}

// LoadDocument opens a bare downloaded cluster document.
func (p *Player) LoadDocument(raw []byte) (*Session, error) {
	return p.engine.LoadDocument(context.Background(), raw)
}

// LoadDocumentContext is LoadDocument under a caller context.
func (p *Player) LoadDocumentContext(ctx context.Context, raw []byte) (*Session, error) {
	return p.engine.LoadDocument(ctx, raw)
}

// LoadFrom reads a downloaded cluster document from r, once and to
// EOF, and verifies the resident bytes (see DESIGN.md §14). Use it
// when the payload arrives as a stream (network body, file), and
// LoadDocument when it is already in memory.
func (p *Player) LoadFrom(ctx context.Context, r io.Reader) (*Session, error) {
	return p.engine.LoadFrom(ctx, r)
}

// Storage exposes the player's local storage (inspection, tests).
func (p *Player) Storage() *disc.LocalStorage {
	return p.engine.Storage
}

// ParseDocument parses an XML document with the stack's hardened
// defaults (no doctype, bounded depth).
func ParseDocument(raw []byte) (*Document, error) {
	return xmldom.ParseBytes(raw)
}

// ParseDocumentReader reads an XML document from r to EOF and parses
// it with the same hardened defaults as ParseDocument.
func ParseDocumentReader(r io.Reader) (*Document, error) {
	return xmldom.Parse(r)
}
