package keymgmt

import (
	"bytes"
	"context"
	"crypto"
	"crypto/x509"
	"encoding/base64"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"discsec/internal/obs"
	"discsec/internal/resilience"
	"discsec/internal/xmldom"
	"discsec/internal/xmlsecuri"
)

// XKMS-style XML message exchange over HTTP. The messages are a compact
// profile of XKMS 2.0: LocateRequest/LocateResult,
// ValidateRequest/ValidateResult, RegisterRequest/RegisterResult,
// RevokeRequest/RevokeResult, each a small XML document.

const xkmsPrefix = "xkms"

// Result majors per XKMS.
const (
	resultSuccess = "Success"
	resultSender  = "Sender"
)

// Handler exposes a Service as an XKMS-style HTTP endpoint. POST XML
// request documents to it.
type Handler struct {
	Service *Service
}

// ServeHTTP implements http.Handler.
func (h *Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "xkms endpoint accepts POST only", http.StatusMethodNotAllowed)
		return
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, 4<<20))
	if err != nil {
		http.Error(w, "read error", http.StatusBadRequest)
		return
	}
	resp, err := h.handle(body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	w.Header().Set("Content-Type", "application/xml")
	w.Write(resp)
}

func (h *Handler) handle(body []byte) ([]byte, error) {
	doc, err := xmldom.ParseBytes(body)
	if err != nil {
		return nil, fmt.Errorf("keymgmt: malformed request: %w", err)
	}
	req := doc.Root()
	name := childText(req, "KeyName")
	auth := childText(req, "Authenticator")

	switch req.Local {
	case "LocateRequest":
		kb, err := h.Service.Locate(name)
		if err != nil {
			return errorResult("LocateResult", err), nil
		}
		return locateResult(kb), nil

	case "ValidateRequest":
		status, err := h.Service.Validate(name)
		res := newResult("ValidateResult", resultSuccess)
		res.Root().CreateChild(xkmsPrefix + ":Status").SetText(string(status))
		if err != nil {
			res.Root().CreateChild(xkmsPrefix + ":Reason").SetText(err.Error())
		}
		return res.Bytes(), nil

	case "RegisterRequest":
		cert, err := certFromRequest(req)
		if err != nil {
			return errorResult("RegisterResult", err), nil
		}
		if err := h.Service.Register(name, cert, auth); err != nil {
			return errorResult("RegisterResult", err), nil
		}
		return newResult("RegisterResult", resultSuccess).Bytes(), nil

	case "RevokeRequest":
		if err := h.Service.Revoke(name, auth); err != nil {
			return errorResult("RevokeResult", err), nil
		}
		return newResult("RevokeResult", resultSuccess).Bytes(), nil

	case "ReissueRequest":
		cert, err := certFromRequest(req)
		if err != nil {
			return errorResult("ReissueResult", err), nil
		}
		if err := h.Service.Reissue(name, cert, auth); err != nil {
			return errorResult("ReissueResult", err), nil
		}
		return newResult("ReissueResult", resultSuccess).Bytes(), nil

	default:
		return nil, fmt.Errorf("keymgmt: unknown request %q", req.Local)
	}
}

func childText(el *xmldom.Element, local string) string {
	c := el.FirstChildElement(local)
	if c == nil {
		return ""
	}
	return c.Text()
}

func certFromRequest(req *xmldom.Element) (*x509.Certificate, error) {
	c := req.FirstChildElement("X509Certificate")
	if c == nil {
		return nil, errors.New("keymgmt: request missing X509Certificate")
	}
	der, err := base64.StdEncoding.DecodeString(c.Text())
	if err != nil {
		return nil, fmt.Errorf("keymgmt: X509Certificate: %w", err)
	}
	return x509.ParseCertificate(der)
}

func newResult(local, major string) *xmldom.Document {
	doc := &xmldom.Document{}
	root := xmldom.NewElement(xkmsPrefix + ":" + local)
	root.DeclareNamespace(xkmsPrefix, xmlsecuri.XKMSNamespace)
	root.SetAttr("ResultMajor", major)
	doc.SetRoot(root)
	return doc
}

func errorResult(local string, err error) []byte {
	doc := newResult(local, resultSender)
	doc.Root().SetAttr("ResultMinor", err.Error())
	return doc.Bytes()
}

func locateResult(kb *KeyBinding) []byte {
	doc := newResult("LocateResult", resultSuccess)
	kbEl := doc.Root().CreateChild(xkmsPrefix + ":KeyBinding")
	kbEl.SetAttr("Name", kb.Name)
	status := StatusValid
	if kb.Revoked {
		status = StatusInvalid
	}
	kbEl.CreateChild(xkmsPrefix + ":Status").SetText(string(status))
	kbEl.CreateChild(xkmsPrefix + ":X509Certificate").SetText(base64.StdEncoding.EncodeToString(kb.Certificate.Raw))
	return doc.Bytes()
}

// Degraded-trust errors.
var (
	// ErrDegraded marks a key binding served from the bounded-staleness
	// cache because the trust service was unreachable. The player may
	// proceed (graceful degradation per the paper's §7 connected-player
	// model) but must surface the weakened trust decision.
	ErrDegraded = errors.New("keymgmt: degraded trust: key binding served from stale cache")
)

// Client talks to an XKMS-style endpoint. Locate and Validate (the
// idempotent XKMS operations) are retried under Retry; Register,
// Revoke, and Reissue are never blindly retried — a lost response
// must not duplicate a state-changing registration. When the service
// is unreachable, Locate can fall back to a previously fetched
// KeyBinding no older than MaxStale, reporting the degradation.
type Client struct {
	// BaseURL is the endpoint URL.
	BaseURL string
	// HTTPClient defaults to a shared client with a 15s timeout
	// (never http.DefaultClient, which has none).
	HTTPClient *http.Client
	// Retry governs Locate/Validate retries; nil uses the resilience
	// defaults.
	Retry *resilience.Policy
	// MaxStale bounds the cached-KeyBinding fallback age; 0 disables
	// the fallback entirely (strict mode: unreachable service fails
	// closed).
	MaxStale time.Duration
	// Breaker, if set, guards every wire request: while the circuit is
	// open, requests fail immediately with ErrCircuitOpen instead of
	// timing out against a dead service, and the stale-cache fallback
	// applies exactly as it does for transient transport failures.
	Breaker *resilience.Breaker
	// Bulkhead, if set, caps concurrent wire requests so a slow trust
	// service saturates its own compartment, not the whole player.
	Bulkhead *resilience.Bulkhead
	// OnDegraded, if set, observes each degraded trust decision: the
	// binding name served stale and the outage error that forced it.
	OnDegraded func(name string, cause error)
	// OnRestored, if set, observes recovery: the first live service
	// answer after a degraded stretch.
	OnRestored func()
	// Recorder receives XKMS request spans/counters and the
	// degraded-trust audit transitions; nil records nothing.
	Recorder *obs.Recorder

	// nowFunc overrides the clock in tests.
	nowFunc func() time.Time

	degraded atomic.Bool
	cacheMu  sync.Mutex
	cache    map[string]cachedBinding
}

type cachedBinding struct {
	kb KeyBinding
	at time.Time
}

// defaultXKMSClient bounds every request a zero-config Client makes;
// key resolution sits on the player's startup path and must never
// hang forever on a dead trust service.
var defaultXKMSClient = &http.Client{Timeout: 15 * time.Second}

func (c *Client) httpClient() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return defaultXKMSClient
}

func (c *Client) retry() *resilience.Policy {
	if c.Retry != nil {
		return c.Retry
	}
	return &resilience.Policy{}
}

func (c *Client) now() time.Time {
	if c.nowFunc != nil {
		return c.nowFunc()
	}
	return time.Now()
}

// Degraded reports whether the client's most recent trust resolution
// was served from the stale-binding cache instead of the live
// service.
func (c *Client) Degraded() bool { return c.degraded.Load() }

// storeCached keeps kb as the stale-cache fallback for name, the name
// that was requested.
func (c *Client) storeCached(name string, kb *KeyBinding) {
	c.cacheMu.Lock()
	defer c.cacheMu.Unlock()
	if c.cache == nil {
		c.cache = make(map[string]cachedBinding)
	}
	c.cache[name] = cachedBinding{kb: *kb, at: c.now()}
}

// cachedFresh returns a copy of the cached binding for name when it
// is within the MaxStale bound.
func (c *Client) cachedFresh(name string) (*KeyBinding, bool) {
	if c.MaxStale <= 0 {
		return nil, false
	}
	c.cacheMu.Lock()
	defer c.cacheMu.Unlock()
	e, ok := c.cache[name]
	if !ok || c.now().Sub(e.at) > c.MaxStale {
		return nil, false
	}
	kb := e.kb
	return &kb, true
}

// degrade records and reports a stale-cache trust decision.
func (c *Client) degrade(name string, cause error) {
	if !c.degraded.Swap(true) {
		c.Recorder.Audit(obs.AuditDegradedEnter, "binding %q served stale: %v", name, cause)
	}
	c.Recorder.Inc("xkms.degraded")
	if c.OnDegraded != nil {
		c.OnDegraded(name, cause)
	}
}

// restore clears degraded-trust mode after a live service answer,
// auditing the transition.
func (c *Client) restore() {
	if c.degraded.Swap(false) {
		c.Recorder.Audit(obs.AuditDegradedExit, "live trust service answer")
		if c.OnRestored != nil {
			c.OnRestored()
		}
	}
}

// post sends one request document under the client's bulkhead and
// breaker: a full compartment waits (or fails with the caller's ctx),
// an open circuit rejects immediately without touching the wire.
func (c *Client) post(ctx context.Context, doc *xmldom.Document) (*xmldom.Element, error) {
	release, err := c.Bulkhead.Acquire(ctx)
	if err != nil {
		c.Recorder.Inc("xkms.bulkhead_rejected")
		return nil, err
	}
	defer release()
	var root *xmldom.Element
	err = c.Breaker.Do(ctx, func(ctx context.Context) error {
		var perr error
		root, perr = c.postOnce(ctx, doc)
		return perr
	})
	if err != nil {
		return nil, err
	}
	return root, nil
}

// postOnce is one wire round trip; xkms.requests counts these, so the
// counter is the ground truth for retry-amplification checks.
func (c *Client) postOnce(ctx context.Context, doc *xmldom.Document) (*xmldom.Element, error) {
	defer c.Recorder.Start(obs.StageXKMS).End()
	c.Recorder.Inc("xkms.requests")
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.BaseURL, bytes.NewReader(doc.Bytes()))
	if err != nil {
		return nil, resilience.Terminal(fmt.Errorf("keymgmt: building request: %w", err))
	}
	req.Header.Set("Content-Type", "application/xml")
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return nil, fmt.Errorf("keymgmt: POST %s: %w", c.BaseURL, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 4<<20))
	if err != nil {
		return nil, fmt.Errorf("keymgmt: reading result: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, resilience.ClassifyStatus(resp, fmt.Errorf("keymgmt: endpoint returned %s: %s", resp.Status, bytes.TrimSpace(body)))
	}
	rd, err := xmldom.ParseBytes(body)
	if err != nil {
		return nil, resilience.Terminal(fmt.Errorf("keymgmt: malformed result: %w", err))
	}
	root := rd.Root()
	if major := root.AttrValue("ResultMajor"); major != resultSuccess {
		// The service answered and refused: retrying cannot change a
		// Sender-class result.
		return nil, resilience.Terminal(fmt.Errorf("keymgmt: %s: %s", major, root.AttrValue("ResultMinor")))
	}
	return root, nil
}

func newRequest(local string, name string) *xmldom.Document {
	doc := &xmldom.Document{}
	root := xmldom.NewElement(xkmsPrefix + ":" + local)
	root.DeclareNamespace(xkmsPrefix, xmlsecuri.XKMSNamespace)
	doc.SetRoot(root)
	if name != "" {
		root.CreateChild(xkmsPrefix + ":KeyName").SetText(name)
	}
	return doc
}

// Locate fetches the key binding registered under name. It is
// LocateContext without cancellation.
func (c *Client) Locate(name string) (*KeyBinding, error) {
	return c.LocateContext(context.Background(), name)
}

// LocateContext fetches the key binding registered under name,
// retrying transient failures (Locate is idempotent). If the service
// stays unreachable and a cached binding no older than MaxStale
// exists, that binding is served instead and the degradation is
// recorded and reported through OnDegraded/Degraded.
func (c *Client) LocateContext(ctx context.Context, name string) (*KeyBinding, error) {
	var kb *KeyBinding
	err := c.retry().Do(ctx, func(ctx context.Context) error {
		got, lerr := c.locateOnce(ctx, name)
		if lerr != nil {
			return lerr
		}
		kb = got
		return nil
	})
	if err == nil {
		c.storeCached(name, kb)
		c.restore()
		return kb, nil
	}
	if dependencyUnavailable(err) {
		if cached, ok := c.cachedFresh(name); ok {
			c.degrade(name, err)
			return cached, nil
		}
	}
	return nil, err
}

// dependencyUnavailable reports whether err means the trust service
// could not be reached at all — transient transport failure after
// retries, or the circuit breaker rejecting locally while open. Both
// justify the bounded-staleness fallback; terminal service *answers*
// (revoked, invalid, malformed) never do.
func dependencyUnavailable(err error) bool {
	return resilience.IsTransient(err) || errors.Is(err, resilience.ErrCircuitOpen)
}

func (c *Client) locateOnce(ctx context.Context, name string) (*KeyBinding, error) {
	root, err := c.post(ctx, newRequest("LocateRequest", name))
	if err != nil {
		return nil, err
	}
	kbEl := root.FirstChildElement("KeyBinding")
	if kbEl == nil {
		return nil, resilience.Terminal(errors.New("keymgmt: LocateResult missing KeyBinding"))
	}
	// A binding for another name is not an answer to this request;
	// accepting it would serve (and cache) that key under this name.
	if got := kbEl.AttrValue("Name"); got != name {
		return nil, resilience.Terminal(fmt.Errorf("keymgmt: LocateResult binds %q, not the requested %q", got, name))
	}
	der, err := base64.StdEncoding.DecodeString(childText(kbEl, "X509Certificate"))
	if err != nil {
		return nil, resilience.Terminal(fmt.Errorf("keymgmt: LocateResult certificate: %w", err))
	}
	cert, err := x509.ParseCertificate(der)
	if err != nil {
		return nil, resilience.Terminal(fmt.Errorf("keymgmt: LocateResult certificate: %w", err))
	}
	return &KeyBinding{
		Name:        name,
		Certificate: cert,
		Revoked:     childText(kbEl, "Status") != string(StatusValid),
	}, nil
}

// Validate asks the service for the trust status of the named
// binding. It is ValidateContext without cancellation.
func (c *Client) Validate(name string) (BindingStatus, string, error) {
	return c.ValidateContext(context.Background(), name)
}

// ValidateContext asks the service for the trust status of the named
// binding, retrying transient failures (Validate is idempotent).
// There is no cached fallback here: Validate *is* the freshness
// check, so an unreachable service yields Indeterminate plus the
// transport error, and the degradation policy belongs to the caller
// (see PublicKeyByNameContext).
func (c *Client) ValidateContext(ctx context.Context, name string) (BindingStatus, string, error) {
	var status BindingStatus
	var reason string
	err := c.retry().Do(ctx, func(ctx context.Context) error {
		root, perr := c.post(ctx, newRequest("ValidateRequest", name))
		if perr != nil {
			return perr
		}
		status, reason = BindingStatus(childText(root, "Status")), childText(root, "Reason")
		return nil
	})
	if err != nil {
		return StatusIndeterminate, "", err
	}
	return status, reason, nil
}

// Register binds name to cert under the given authenticator secret.
// Register is not idempotent and is never blindly retried: a lost
// response must not double-register or collide with itself.
func (c *Client) Register(name string, cert *x509.Certificate, authenticator string) error {
	return c.RegisterContext(context.Background(), name, cert, authenticator)
}

// RegisterContext is Register with cancellation (single attempt).
func (c *Client) RegisterContext(ctx context.Context, name string, cert *x509.Certificate, authenticator string) error {
	doc := newRequest("RegisterRequest", name)
	doc.Root().CreateChild(xkmsPrefix + ":Authenticator").SetText(authenticator)
	doc.Root().CreateChild(xkmsPrefix + ":X509Certificate").SetText(base64.StdEncoding.EncodeToString(cert.Raw))
	_, err := c.post(ctx, doc)
	return resilience.Classify(err)
}

// Revoke invalidates the named binding (single attempt; see Register
// for why state-changing operations are never blindly retried).
func (c *Client) Revoke(name, authenticator string) error {
	return c.RevokeContext(context.Background(), name, authenticator)
}

// RevokeContext is Revoke with cancellation (single attempt).
func (c *Client) RevokeContext(ctx context.Context, name, authenticator string) error {
	doc := newRequest("RevokeRequest", name)
	doc.Root().CreateChild(xkmsPrefix + ":Authenticator").SetText(authenticator)
	_, err := c.post(ctx, doc)
	return resilience.Classify(err)
}

// PublicKeyByName resolves a KeyName to a public key over the wire,
// refusing bindings the service does not report Valid. It is
// PublicKeyByNameContext without cancellation.
func (c *Client) PublicKeyByName(name string) (crypto.PublicKey, error) {
	return c.PublicKeyByNameContext(context.Background(), name)
}

// PublicKeyByNameContext resolves a KeyName to a public key. When the
// trust service is unreachable (transient failure after retries) and
// a cached, unrevoked binding within MaxStale exists, the cached key
// is served and the weakened trust decision is recorded (Degraded
// reports true, OnDegraded fires). Revoked or invalid bindings never
// degrade: an answer from the service always wins.
func (c *Client) PublicKeyByNameContext(ctx context.Context, name string) (crypto.PublicKey, error) {
	status, reason, err := c.ValidateContext(ctx, name)
	if err != nil {
		if dependencyUnavailable(err) {
			if cached, ok := c.cachedFresh(name); ok && !cached.Revoked {
				c.degrade(name, err)
				return cached.Certificate.PublicKey, nil
			}
		}
		return nil, err
	}
	if status != StatusValid {
		return nil, resilience.Terminal(fmt.Errorf("keymgmt: binding %q is %s: %s", name, status, reason))
	}
	kb, err := c.LocateContext(ctx, name)
	if err != nil {
		return nil, err
	}
	if kb.Revoked {
		return nil, resilience.Terminal(fmt.Errorf("keymgmt: binding %q is revoked", name))
	}
	c.restore()
	return kb.Certificate.PublicKey, nil
}

// Reissue replaces the certificate under the named binding (single
// attempt; see Register for why state-changing operations are never
// blindly retried).
func (c *Client) Reissue(name string, cert *x509.Certificate, authenticator string) error {
	return c.ReissueContext(context.Background(), name, cert, authenticator)
}

// ReissueContext is Reissue with cancellation (single attempt).
func (c *Client) ReissueContext(ctx context.Context, name string, cert *x509.Certificate, authenticator string) error {
	doc := newRequest("ReissueRequest", name)
	doc.Root().CreateChild(xkmsPrefix + ":Authenticator").SetText(authenticator)
	doc.Root().CreateChild(xkmsPrefix + ":X509Certificate").SetText(base64.StdEncoding.EncodeToString(cert.Raw))
	_, err := c.post(ctx, doc)
	return resilience.Classify(err)
}
