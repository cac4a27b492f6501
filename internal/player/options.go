package player

import (
	"crypto"
	"crypto/x509"

	"discsec/internal/access"
	"discsec/internal/disc"
	"discsec/internal/library"
	"discsec/internal/obs"
	"discsec/internal/xmlenc"
)

// Option configures an Engine built by NewEngine.
type Option func(*Engine)

// WithTrustPool sets the player's trusted root certificates.
func WithTrustPool(roots *x509.CertPool) Option {
	return func(e *Engine) { e.Roots = roots }
}

// WithPolicy sets the platform policy deciding permission requests.
func WithPolicy(pdp *access.PDP) Option {
	return func(e *Engine) { e.Policy = pdp }
}

// WithStorage sets the player's local storage.
func WithStorage(st *disc.LocalStorage) Option {
	return func(e *Engine) { e.Storage = st }
}

// WithDecryptKeys supplies content decryption material.
func WithDecryptKeys(opts xmlenc.DecryptOptions) Option {
	return func(e *Engine) { e.DecryptKeys = opts.ExpandKey() }
}

// WithRequireSignature bars unsigned applications.
func WithRequireSignature(require bool) Option {
	return func(e *Engine) { e.RequireSignature = require }
}

// WithKeyByName resolves ds:KeyName hints via a trust service.
func WithKeyByName(fn func(name string) (crypto.PublicKey, error)) Option {
	return func(e *Engine) { e.KeyByName = fn }
}

// WithScriptStepBudget bounds script execution (0 uses the default).
func WithScriptStepBudget(steps int) Option {
	return func(e *Engine) { e.ScriptStepBudget = steps }
}

// WithRecorder sets the engine's default observability recorder, used
// when a load context does not carry one.
func WithRecorder(rec *obs.Recorder) Option {
	return func(e *Engine) { e.Recorder = rec }
}

// WithLibrary routes the engine's loads through a shared verification
// library: N engines loading the same content trigger one verification,
// and later loads are cache hits. The library's own core.Opener
// supersedes this engine's trust configuration for loads — configure
// roots, decrypt keys, and signature policy on the library.
func WithLibrary(lib *library.Library) Option {
	return func(e *Engine) { e.Library = lib }
}

// NewEngine builds a player runtime from functional options. The zero
// configuration is a closed platform: no trusted roots, a nil policy
// (deny everything), no storage, and signatures not required.
func NewEngine(opts ...Option) *Engine {
	e := &Engine{}
	for _, o := range opts {
		o(e)
	}
	return e
}
