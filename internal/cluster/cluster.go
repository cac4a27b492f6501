// Package cluster implements the distributed verification tier: one
// origin node performs full cold verification through the shared
// library (parse, canonicalize, signature and chain validation), and a
// fleet of thin edge nodes serves warm opens from replicated verdict
// caches — two map lookups and a streaming digest, no DOM build, no
// crypto.
//
// Replication preserves the library's content-addressed key: every
// wire verdict (Record) carries the exclusive-C14N digest it was
// verified under, the fingerprint of the signing key, and the fleet
// trust epoch at fill time. An edge only ever serves a record whose
// digest it has recomputed from the presented bytes, so a verdict that
// cannot be re-addressed — a wrapped, substituted, or reshuffled
// document — can never ride a replicated cache entry.
//
// Trust changes propagate as epoch announcements: a revocation at the
// origin bumps the fleet epoch and fans it out to every edge; records
// stamped with an older epoch fail closed (library.ErrTrustChanged) at
// the next touch. The epoch only moves forward (monotonic CAS), so a
// delayed or replayed announcement can never roll an edge back onto
// verdicts a newer revocation already killed. An edge partitioned from
// its origin degrades per the health state machine — warm serves
// continue audited while Degraded, then fail closed (ErrPartitioned)
// once missed heartbeats cross the budget and the component goes Down.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"

	"discsec/internal/library"
	"discsec/internal/resilience"
)

// Node roles, surfaced in /healthz so fleet orchestration can tell the
// tiers apart.
const (
	// RoleOrigin marks the node performing cold verification.
	RoleOrigin = "origin"
	// RoleEdge marks a node serving warm opens from a replicated cache.
	RoleEdge = "edge"
)

// Cluster errors.
var (
	// ErrPartitioned indicates the edge has missed enough origin
	// heartbeats to be considered cut off; it fails both warm serves
	// and cold fills closed rather than serve verdicts it can no
	// longer invalidate.
	ErrPartitioned = errors.New("cluster: edge partitioned from origin; failing closed")
	// ErrKeyMismatch indicates a replicated verdict did not re-address
	// the presented content: its canonical digest differs from the one
	// computed locally. Fail-closed by construction — the record is
	// discarded, never served.
	ErrKeyMismatch = errors.New("cluster: replicated verdict does not re-address the presented content")
)

// Status classifies how an edge open was served.
type Status string

// Edge open statuses (also surfaced in the X-Cluster-Status header).
const (
	// StatusHit: served from the edge's replicated cache — no wire.
	StatusHit Status = "hit"
	// StatusMiss: this edge filled from the origin.
	StatusMiss Status = "miss"
	// StatusForward: the miss was routed to the ring owner of the key,
	// which filled (or already held) the verdict.
	StatusForward Status = "forward"
	// StatusWait: another in-flight open on this edge was already
	// filling the same digest; this call shared its outcome.
	StatusWait Status = "singleflight-wait"
)

// Record is one replicated verdict: the full library cache key
// (canonical digest, signer fingerprint, trust epoch) plus the verdict
// summary an edge serves. It deliberately carries no document bytes —
// the content is what the client presents; the record only vouches
// that content with exactly this canonical digest was verified.
type Record struct {
	// Key is the exclusive-C14N digest (hex) the verdict is addressed
	// by.
	Key string `json:"key"`
	// Signer is the fingerprint of the key that validated
	// SignatureValue (empty for unsigned content, which is never
	// replicated).
	Signer string `json:"signer"`
	// Epoch is the fleet trust epoch read before the fill began; a
	// record whose epoch lags the announced one is dead.
	Epoch uint64 `json:"epoch"`
	// Degraded marks a verdict filled while the origin's trust service
	// was degraded (revocation data possibly stale).
	Degraded bool `json:"degraded,omitempty"`
	// Signatures is the number of validated signatures.
	Signatures int `json:"signatures"`
}

// Member identifies one edge node: its ring name and base URL.
type Member struct {
	Name string `json:"name"`
	URL  string `json:"url"`
}

// writeError maps cluster/library failures onto wire status codes the
// peer's classifier understands: 4xx terminal, 5xx (+Retry-After)
// transient.
func writeError(w http.ResponseWriter, err error) {
	msg := err.Error()
	switch {
	case errors.Is(err, library.ErrBadDocument):
		http.Error(w, msg, http.StatusBadRequest)
	case errors.Is(err, library.ErrTrustChanged),
		errors.Is(err, library.ErrDependencyDown),
		errors.Is(err, resilience.ErrCircuitOpen),
		errors.Is(err, ErrPartitioned),
		errors.Is(err, context.Canceled),
		errors.Is(err, context.DeadlineExceeded):
		w.Header().Set("Retry-After", "1")
		http.Error(w, msg, http.StatusServiceUnavailable)
	default:
		http.Error(w, msg, http.StatusBadGateway)
	}
}

// classifyExchange folds an inter-node HTTP status into the resilience
// taxonomy: 5xx and 429 are transient (the breaker counts them toward
// opening), everything else terminal.
func classifyExchange(url string, resp *http.Response) error {
	if resp.StatusCode >= 500 || resp.StatusCode == http.StatusTooManyRequests {
		return resilience.Transient(fmt.Errorf("cluster: POST %s: %s", url, resp.Status))
	}
	return resilience.Terminal(fmt.Errorf("cluster: POST %s: %s", url, resp.Status))
}
