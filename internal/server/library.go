package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"time"

	"discsec/internal/library"
	"discsec/internal/resilience"
)

// WithLibrary attaches a shared verification library and enables the
// /library/ routes: the server then serves *verified* tracks from
// mounted discs — every response body passed the full Fig. 9 pipeline,
// amortized through the library's cache — with cache-status headers so
// operators can see hit rates per response.
func WithLibrary(lib *library.Library) Option {
	return func(cs *ContentServer) { cs.library = lib }
}

// Library response headers.
const (
	// HeaderLibraryCache reports how the verdict was served:
	// hit | miss | singleflight-wait | bypass.
	HeaderLibraryCache = "X-Library-Cache"
	// HeaderLibrarySigner carries the verified signer-key fingerprint.
	HeaderLibrarySigner = "X-Library-Signer"
	// HeaderLibraryDegraded is "true" when the verdict was filled under
	// degraded trust (stale revocation data; see SECURITY.md).
	HeaderLibraryDegraded = "X-Library-Degraded"
)

// serveLibrary handles GET/HEAD under /library/:
//
//	/library/                  -> mounted disc names (text)
//	/library/<disc>            -> verified track listing (text)
//	/library/<disc>/<track>    -> the verified track XML
//
// Verification failures map to 502: the server fails closed rather
// than serve content it can no longer vouch for.
func (cs *ContentServer) serveLibrary(w http.ResponseWriter, r *http.Request, rest string) {
	if cs.library == nil {
		cs.recorder.Inc("http.notfound")
		http.NotFound(w, r)
		return
	}
	rest = strings.Trim(rest, "/")
	if rest == "" {
		w.Header().Set("Content-Type", "text/plain")
		for _, n := range cs.library.Mounts() {
			fmt.Fprintln(w, n)
		}
		return
	}
	discName, trackID, hasTrack := strings.Cut(rest, "/")
	if !hasTrack {
		v, status, err := cs.library.OpenDisc(r.Context(), discName)
		if err != nil {
			cs.libraryError(w, r, err)
			return
		}
		cs.libraryHeaders(w, v, status)
		w.Header().Set("Content-Type", "text/plain")
		for _, tr := range v.Cluster.Tracks {
			fmt.Fprintf(w, "%s %s\n", tr.ID, tr.Kind)
		}
		return
	}

	body, v, status, err := cs.library.TrackXML(r.Context(), discName, trackID)
	if err != nil {
		cs.libraryError(w, r, err)
		return
	}
	cs.libraryHeaders(w, v, status)
	w.Header().Set("Content-Type", "application/xml")
	// The canonical digest is a strong content-addressed validator.
	w.Header().Set("ETag", `"`+v.Key+`"`)
	if r.Method == http.MethodGet {
		cs.download.Add(1)
	}
	http.ServeContent(w, r, "", time.Time{}, bytes.NewReader(body))
}

// verifyMaxBytes bounds a POST /verify request body; past it the read
// fails and the route answers 413 instead of buffering without limit.
const verifyMaxBytes = 64 << 20

// verifyResponse is the JSON body of a successful POST /verify.
type verifyResponse struct {
	// Key is the exclusive-C14N digest the verdict is cached under.
	Key string `json:"key"`
	// Cache reports how the verdict was served (hit, miss, ...).
	Cache string `json:"cache"`
	// Signer is the verified signer-key fingerprint, if signed.
	Signer string `json:"signer,omitempty"`
	// Signatures counts validated signatures.
	Signatures int `json:"signatures"`
	// Degraded is true when the verdict was filled under degraded trust.
	Degraded bool `json:"degraded,omitempty"`
}

// serveVerify handles POST /verify: the request body goes straight
// into the verification library's key front — read once into a pooled
// buffer, one tokenization derives the cache key, a hit builds no
// tree — and the verdict comes back as JSON with the usual X-Library-*
// headers. Malformed documents are the client's fault (400); trust
// invalidations that keep racing the fill past its retries are
// answered 503 + Retry-After so the client simply re-POSTs.
func (cs *ContentServer) serveVerify(w http.ResponseWriter, r *http.Request) {
	if cs.library == nil {
		cs.recorder.Inc("http.notfound")
		http.NotFound(w, r)
		return
	}
	body := http.MaxBytesReader(w, r.Body, verifyMaxBytes)
	v, status, err := cs.library.OpenReader(r.Context(), body)
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			cs.recorder.Inc("http.library.toolarge")
			http.Error(w, "document exceeds verification size limit", http.StatusRequestEntityTooLarge)
			return
		}
		cs.libraryError(w, r, err)
		return
	}
	cs.libraryHeaders(w, v, status)
	w.Header().Set("Content-Type", "application/json")
	resp := verifyResponse{
		Key:        v.Key,
		Cache:      string(status),
		Signer:     v.Fingerprint,
		Signatures: len(v.Result.Signatures),
		Degraded:   v.Degraded,
	}
	json.NewEncoder(w).Encode(resp) //nolint:errcheck // best-effort body; verdict already served via headers
}

func (cs *ContentServer) libraryHeaders(w http.ResponseWriter, v *library.Verdict, status library.Status) {
	w.Header().Set(HeaderLibraryCache, string(status))
	if v.Fingerprint != "" {
		w.Header().Set(HeaderLibrarySigner, v.Fingerprint)
	}
	if v.Degraded {
		w.Header().Set(HeaderLibraryDegraded, "true")
	}
}

// libraryError maps library failures onto HTTP: unknown names are 404,
// client cancellation is the client's problem, and anything touching
// verification is 502 — the route never falls back to unverified bytes.
func (cs *ContentServer) libraryError(w http.ResponseWriter, r *http.Request, err error) {
	switch {
	case errors.Is(err, library.ErrNotMounted), errors.Is(err, library.ErrNoTrack):
		cs.recorder.Inc("http.notfound")
		http.NotFound(w, r)
	case errors.Is(err, library.ErrBadDocument):
		// The tokenizer rejected the input itself (malformed XML,
		// DOCTYPE, depth/token limits): a client error, not a
		// verification failure.
		cs.recorder.Inc("http.library.baddocument")
		http.Error(w, "malformed document", http.StatusBadRequest)
	case errors.Is(err, library.ErrTrustChanged):
		// Trust invalidations kept racing the fill past its retries;
		// the verdict was discarded, and the client can re-POST.
		cs.recorder.Inc("http.library.trustchanged")
		w.Header().Set("Retry-After", "1")
		http.Error(w, "trust changed during verification; retry", http.StatusServiceUnavailable)
	case errors.Is(err, library.ErrDependencyDown), errors.Is(err, resilience.ErrCircuitOpen):
		// A dependency the fill needs is down: 503 + Retry-After so
		// well-behaved clients back off until the breaker recovers,
		// rather than 502 (nothing is wrong with the content itself).
		cs.recorder.Inc("http.library.dependency_down")
		w.Header().Set("Retry-After", "1")
		http.Error(w, "library dependency down; cold fill refused", http.StatusServiceUnavailable)
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		cs.recorder.Inc("http.library.canceled")
		http.Error(w, "request canceled", http.StatusServiceUnavailable)
	default:
		cs.recorder.Inc("http.library.failclosed")
		http.Error(w, "library verification failed", http.StatusBadGateway)
	}
}
