// Package library implements the shared verification library: one pool
// of fully verified content verdicts shared by many player sessions
// across many mounted discs.
//
// The paper's player re-runs the whole Fig. 9 pipeline (decryption
// transform, reference digests, signature validation, chain building)
// on every Application Manifest load — the dominant cost once XML
// security overhead (2.5–5.1x over binary per reference [37]) meets the
// ROADMAP's millions-of-concurrent-users target. The library
// amortizes that cost safely: a sharded, byte-budgeted cache whose
// entries are verdicts — the decoded content model and the
// core.OpenResult security report, without the verified tree — keyed
// by the triple
//
//	(exclusive-C14N digest, signer-key fingerprint, trust epoch)
//
// so a cache hit can never stand in for content the verifier did not
// actually validate. Keying on the canonical digest (not raw bytes or
// file identity) means any wrapping-style substitution — moving the
// signed subtree, injecting a sibling the application engine would read
// — changes the canonical form and therefore misses the cache; keying
// on the fingerprint of the key that validated SignatureValue (not the
// mutable KeyName/CN hints) binds the verdict to the actual signer; and
// the epoch pair (global + per-signer) lets a revocation flush every
// dependent verdict without a global lock or a cache walk. Each shard is
// an lru.Cache, whose W-TinyLFU admission keeps the verdicts opened
// often resident while a scan of documents opened once passes through.
//
// The canonical key is memoized in front of the canonical pass: a
// process-wide, bounded memo maps a secret-keyed GMAC tag of a
// document's exact bytes to its key, so a repeat open of bytes already
// keyed makes one GHASH pass over them and neither tokenizes nor
// canonicalizes. The memo does not replace the canonical key; any byte
// change misses it and is keyed by its canonical form.
//
// Concurrency: lookups are lock-free per shard beyond one short mutex;
// concurrent misses for the same digest collapse into a single
// verification via singleflight; Mount prewarms a disc's manifest tree
// through a bounded worker pool shared by all mounts.
package library

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"discsec/internal/core"
	"discsec/internal/cowmap"
	"discsec/internal/disc"
	"discsec/internal/flight"
	"discsec/internal/keymgmt"
	"discsec/internal/lru"
	"discsec/internal/obs"
	"discsec/internal/resilience"
)

// Status classifies how one open was served.
type Status string

// Open statuses (also surfaced in the server's X-Library-Cache header).
const (
	// StatusHit: the verdict came straight from the cache.
	StatusHit Status = "hit"
	// StatusMiss: this call ran the full verification and filled the
	// cache.
	StatusMiss Status = "miss"
	// StatusWait: another in-flight call was already verifying the same
	// canonical digest; this call waited for its verdict.
	StatusWait Status = "singleflight-wait"
	// StatusBypass: the document is unsigned; it was processed but not
	// cached (only verified verdicts are worth sharing).
	StatusBypass Status = "bypass"
)

// Library errors.
var (
	// ErrBadDocument wraps tokenizer/parser rejections of the input
	// itself (malformed XML, DOCTYPE, depth/token limits) — a client
	// error, distinct from verification failures.
	ErrBadDocument = errors.New("library: malformed document")
	// ErrTooLarge indicates ReadFrontLimit read more than its limit.
	ErrTooLarge = errors.New("library: document too large")
	// ErrNotMounted indicates OpenTrack named an unknown disc.
	ErrNotMounted = errors.New("library: disc not mounted")
	// ErrAlreadyMounted indicates a duplicate Mount name.
	ErrAlreadyMounted = errors.New("library: disc already mounted")
	// ErrTrustChanged indicates trust invalidations kept racing a fill;
	// the library fails closed rather than cache a possibly stale
	// verdict.
	ErrTrustChanged = errors.New("library: trust changed during verification; verdict discarded")
	// ErrNoTrack indicates the mounted disc has no such track.
	ErrNoTrack = errors.New("library: no such track")
	// ErrDependencyDown indicates a cold fill was refused outright
	// because a dependency the verification needs (the trust service)
	// is down — its circuit breaker is open. Warm hits keep serving
	// (degraded, audited); only uncached verification fails closed,
	// immediately instead of timing out. See the SECURITY.md decision
	// table.
	ErrDependencyDown = errors.New("library: dependency down; cold fill refused")
)

// Verdict is one fully verified, immutable cache entry: the decoded
// content hierarchy and the security report. A fill never sees the
// verified tree (core releases it before Open returns), so a resident
// verdict keeps no more heap than it is charged against the byte
// budget. Verdicts are shared read-only across sessions — callers must
// not mutate Cluster (clone first).
type Verdict struct {
	// Cluster is the decoded content hierarchy.
	Cluster *disc.InteractiveCluster
	// Result is the full security report of the fill verification.
	Result *core.OpenResult
	// Key is the canonical (exclusive C14N) digest the entry is stored
	// under.
	Key string
	// Fingerprint identifies the signing key (core.KeyFingerprint).
	Fingerprint string
	// Degraded reports the verdict was filled while the trust service
	// was degraded (revocation data possibly stale); such verdicts are
	// re-verified as soon as trust recovers.
	Degraded bool
}

// Library is a shared pool of verified verdicts. Construct with New;
// the zero value is not usable.
type Library struct {
	opener   core.Opener
	rec      *obs.Recorder
	degraded func() bool

	// shards each lock on their own, so lookups contend only within a
	// digest's shard. New builds them from budget and nShards.
	shards  []*lru.Cache[string, entry]
	budget  int64
	nShards int
	flights flight.Group[*Verdict]

	// globalEpoch versions the whole cache; bumping it invalidates
	// every entry lazily (InvalidateAll).
	globalEpoch atomic.Uint64
	// signerEpochs versions each signer independently so one
	// revocation flushes only that signer's verdicts. Copy-on-write:
	// every cache lookup reads an epoch, and the signer population is
	// tiny and stable next to the lookup rate, so reads must not box
	// the fingerprint key the way sync.Map's Load(any) did.
	signerEpochs cowmap.Map[string, *atomic.Uint64]
	// invalGen counts every invalidation of any scope. Fills capture it
	// before verifying and retry when it moved, so a revocation racing
	// a fill can never be cached around.
	invalGen atomic.Uint64

	// signerIndex maps trust-service binding names to the key
	// fingerprints seen for them, for name-keyed revocation fan-out.
	signerMu    sync.Mutex
	signerIndex map[string]map[string]struct{}

	prewarmSem chan struct{}
	mounts     sync.Map // name -> *mounted

	// fillGate, when set, caps concurrent cold fills (WithFillLimit).
	fillGate *resilience.Bulkhead
}

// Option configures a Library built by New.
type Option func(*Library)

// WithOpener sets the verification configuration (trust roots, decrypt
// material, signature policy). The library owns it: every fill — no
// matter which engine or route triggered it — verifies under this one
// configuration, which is what makes sharing the verdicts sound.
func WithOpener(op core.Opener) Option {
	return func(l *Library) {
		// Every fill decrypts under the same shared key: expand it once.
		op.Decrypt = op.Decrypt.ExpandKey()
		l.opener = op
	}
}

// WithRecorder sets the observability recorder for hit/miss/evict/
// singleflight counters, library spans, and degraded-serve audits.
func WithRecorder(rec *obs.Recorder) Option {
	return func(l *Library) { l.rec = rec }
}

// WithByteBudget bounds resident verdict bytes (approximated by source
// document size). The budget is split evenly across shards. Zero or
// negative keeps the default (64 MiB).
func WithByteBudget(n int64) Option {
	return func(l *Library) {
		if n > 0 {
			l.budget = n
		}
	}
}

// WithShards sets the shard count (power-of-two recommended; default
// 16). More shards reduce lock contention at high engine counts.
func WithShards(n int) Option {
	return func(l *Library) {
		if n > 0 {
			l.nShards = n
		}
	}
}

// WithDegradedFunc supplies the degraded-trust probe (typically
// keymgmt.Client.Degraded). While it reports true, cache hits are
// served but audited (obs.AuditDegradedServe), and verdicts filled
// during the outage are re-verified as soon as it reports false.
func WithDegradedFunc(fn func() bool) Option {
	return func(l *Library) { l.degraded = fn }
}

// WithTrustService wires revocation fan-out: every successful Revoke or
// Reissue on the service invalidates the affected signer's verdicts
// before the call returns. If the opener has no KeyByName resolver yet,
// the service's is installed.
func WithTrustService(svc *keymgmt.Service) Option {
	return func(l *Library) {
		if svc == nil {
			return
		}
		svc.OnRevoke(l.InvalidateSignerName)
		if l.opener.KeyByName == nil {
			l.opener.KeyByName = svc.PublicKeyByName
		}
	}
}

// WithPrewarmWorkers bounds the worker pool Mount uses to prewarm a
// disc's manifest tree (default 4, shared across concurrent mounts).
func WithPrewarmWorkers(n int) Option {
	return func(l *Library) {
		if n > 0 {
			l.prewarmSem = make(chan struct{}, n)
		}
	}
}

// WithFillLimit caps concurrent cold-fill verifications with a
// bulkhead. Fills are the expensive path (full Fig. 9 pipeline plus
// trust-service round trips); the cap keeps a burst of distinct misses
// from saturating the verifier while warm hits stay unaffected. 0
// leaves fills uncapped.
func WithFillLimit(n int) Option {
	return func(l *Library) {
		if n > 0 {
			l.fillGate = resilience.NewBulkhead("library-fill", n)
		}
	}
}

const (
	defaultBudget  = 64 << 20
	defaultShards  = 16
	defaultWorkers = 4
	// maxFillAttempts bounds re-verification when trust invalidations
	// race a fill; after that the library fails closed.
	maxFillAttempts = 3
)

// New builds a shared verification library.
func New(opts ...Option) *Library {
	l := &Library{
		budget:      defaultBudget,
		nShards:     defaultShards,
		signerIndex: make(map[string]map[string]struct{}),
		prewarmSem:  make(chan struct{}, defaultWorkers),
	}
	for _, o := range opts {
		o(l)
	}
	l.shards = make([]*lru.Cache[string, entry], l.nShards)
	for i := range l.shards {
		l.shards[i] = lru.New[string, entry](l.budget / int64(l.nShards))
	}
	return l
}

// entry is one cached verdict plus the trust epochs it was filled
// under. Entries are immutable after insertion; validity is judged
// against the library's current epochs on every lookup.
type entry struct {
	v           *Verdict
	globalEpoch uint64
	signerEpoch uint64
}

//discvet:hotpath shard routing runs on every open
func (l *Library) shardFor(key string) *lru.Cache[string, entry] {
	// Keys are hex digests: fold the first eight bytes for spread.
	var h uint32
	for i := 0; i < len(key) && i < 8; i++ {
		h = h*31 + uint32(key[i])
	}
	return l.shards[int(h)%len(l.shards)]
}

// OpenReader verifies a cluster document read from r through the
// shared cache. The reader is consumed once, into a pooled buffer, and
// one tokenization of those bytes derives the exclusive-C14N cache key
// (ReadFront): a hit is served from that pass alone, with no tree
// built. A miss parses the buffered bytes for verification, and a fill
// that races a trust invalidation re-parses them and verifies again,
// exactly like the byte-slice form.
func (l *Library) OpenReader(ctx context.Context, r io.Reader) (*Verdict, Status, error) {
	ctx, rec := obs.Attach(ctx, l.rec)
	defer rec.Start(obs.StageLibrary).End()
	if err := ctx.Err(); err != nil {
		return nil, StatusMiss, err
	}
	f, err := ReadFront(rec, r)
	if err != nil {
		return nil, StatusMiss, err
	}
	defer f.Release()
	return l.open(ctx, rec, f.Key, f.Raw, nil)
}

// OpenDocument verifies a raw cluster document through the shared
// cache: one key pass over the bytes (KeyBytes), cache lookup, and on a
// miss one singleflight-deduplicated core verification whose verdict is
// cached for every later caller. Unsigned documents are processed but
// never cached (StatusBypass).
func (l *Library) OpenDocument(ctx context.Context, raw []byte) (*Verdict, Status, error) {
	ctx, rec := obs.Attach(ctx, l.rec)
	defer rec.Start(obs.StageLibrary).End()
	if err := ctx.Err(); err != nil {
		return nil, StatusMiss, err
	}
	key, err := KeyBytes(rec, raw)
	if err != nil {
		return nil, StatusMiss, fmt.Errorf("%w: %w", ErrBadDocument, err)
	}
	return l.open(ctx, rec, key, raw, nil)
}

// open serves one keyed request: lookup, then singleflight fill of raw.
// resolver, when non-nil, dereferences detached URIs (the mounted
// image).
func (l *Library) open(ctx context.Context, rec *obs.Recorder, key string, raw []byte, resolver *disc.Image) (*Verdict, Status, error) {
	if v, ok := l.lookup(rec, key, true); ok {
		rec.Inc("library.hit")
		return v, StatusHit, nil
	}
	var status Status
	v, err, shared := l.flights.Do(key, func() (*Verdict, error) {
		// Double-check under flight leadership: a racing fill may have
		// landed between our lookup and taking the flight. The first
		// lookup already counted this open toward the key's frequency.
		if v, ok := l.lookup(rec, key, false); ok {
			status = StatusHit
			rec.Inc("library.hit")
			return v, nil
		}
		status = StatusMiss
		return l.fill(ctx, rec, key, raw, resolver)
	})
	if shared {
		rec.Inc("library.singleflight_wait")
		status = StatusWait
	}
	if err != nil {
		return nil, status, err
	}
	if status == StatusMiss && v.Fingerprint == "" && len(v.Result.Signatures) == 0 {
		status = StatusBypass
	}
	return v, status, nil
}

// lookup returns a valid cached verdict, lazily evicting entries whose
// trust epochs moved. Serving a hit while trust is degraded is allowed
// (the verdict was filled from live trust) but audited. count says
// whether the lookup counts toward the key's frequency, which decides
// admission: once per open.
//
//discvet:hotpath the warm-open path: millions of opens resolve here
func (l *Library) lookup(rec *obs.Recorder, key string, count bool) (*Verdict, bool) {
	sh := l.shardFor(key)
	var e entry
	var ok bool
	if count {
		e, ok = sh.Get(key)
	} else {
		e, ok = sh.Peek(key)
	}
	if !ok {
		return nil, false
	}
	if !l.entryValid(e) {
		// Identity-checked, so a concurrent refill is never clobbered.
		if sh.CompareAndDelete(key, e) {
			rec.Inc("library.invalidated")
		}
		return nil, false
	}
	if l.degraded != nil && l.degraded() {
		rec.Inc("library.degraded_serve")
		rec.Audit(obs.AuditDegradedServe, "cached verdict %.12s served under degraded trust (signer %.12s)", key, e.v.Fingerprint)
	}
	return e.v, true
}

// entryValid checks the entry's epochs against current trust: the
// global epoch, the signer's epoch, and — for verdicts filled during a
// trust outage — that the outage is still in effect (once trust
// recovers such verdicts must be re-verified against live revocation
// data).
//
//discvet:hotpath runs on every cache hit
func (l *Library) entryValid(e entry) bool {
	if e.globalEpoch != l.globalEpoch.Load() {
		return false
	}
	if e.signerEpoch != l.signerEpochOf(e.v.Fingerprint).Load() {
		return false
	}
	if e.v.Degraded && (l.degraded == nil || !l.degraded()) {
		return false
	}
	return true
}

//discvet:hotpath epoch check on every warm-open lookup
func (l *Library) signerEpochOf(fp string) *atomic.Uint64 {
	return l.signerEpochs.GetOrCreate(fp, newEpoch)
}

// newEpoch is GetOrCreate's first-touch factory: a declared function
// so the warm lookup path never builds a closure.
func newEpoch() *atomic.Uint64 { return new(atomic.Uint64) }

// fill runs the real verification of raw (core.Opener.Open, which
// keeps no tree) and caches the verdict. It captures the invalidation
// generation first and retries (bounded) whenever an invalidation
// landed while verifying, so a revocation can never race a fill into
// caching a stale verdict: the retry re-parses and re-resolves keys,
// and a now-revoked signer fails verification.
//
//discvet:coldpath a miss runs the full Fig. 9 verification; allocation is inherent
func (l *Library) fill(ctx context.Context, rec *obs.Recorder, key string, raw []byte, resolver *disc.Image) (*Verdict, error) {
	release, err := l.fillGate.Acquire(ctx)
	if err != nil {
		rec.Inc("library.fill_rejected")
		return nil, fmt.Errorf("library: fill: %w", err)
	}
	defer release()
	op := l.opener
	if resolver != nil {
		op.Resolver = resolver
	}
	for attempt := 0; attempt < maxFillAttempts; attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		gen := l.invalGen.Load()

		res, err := op.Open(ctx, raw)
		if err != nil {
			if errors.Is(err, resilience.ErrCircuitOpen) {
				// The trust service's breaker is open: nothing can be
				// verified fresh right now, so the fill fails closed with
				// a typed error instead of letting callers time out.
				rec.Inc("library.fill_failclosed")
				rec.Audit(obs.AuditFailClosed, "cold fill %.12s refused: trust dependency down: %v", key, err)
				return nil, fmt.Errorf("library: verification: %w: %w", ErrDependencyDown, err)
			}
			return nil, fmt.Errorf("library: verification: %w", err)
		}
		// Probe degradation after verification: that is when the trust
		// client knows whether it answered from live service or stale
		// cache. A verdict filled on stale revocation data is tainted
		// until trust recovers (entryValid re-verifies it then).
		degradedFill := l.degraded != nil && l.degraded()

		v := &Verdict{
			Cluster:     res.Cluster,
			Result:      res,
			Key:         key,
			Fingerprint: primaryFingerprint(res),
			Degraded:    degradedFill,
		}
		if v.Fingerprint == "" && len(res.Signatures) == 0 {
			// Unsigned: nothing worth sharing; hand back uncached.
			rec.Inc("library.bypass")
			return v, nil
		}

		ge := l.globalEpoch.Load()
		se := l.signerEpochOf(v.Fingerprint).Load()
		if l.invalGen.Load() != gen {
			// Trust moved while we verified: the verdict may predate a
			// revocation. Verify again under the new trust state.
			rec.Inc("library.fill_retry")
			continue
		}
		l.indexSigner(res, v.Fingerprint)
		// A verdict refused at admission is still returned; it counts as
		// evicted, so library.evict is every verdict that left the cache
		// or never entered it.
		evicted, admitted := l.shardFor(key).Put(key, entry{v: v, globalEpoch: ge, signerEpoch: se}, int64(len(raw)))
		if evicted > 0 {
			rec.Add("library.evict", int64(evicted))
		}
		if !admitted {
			rec.Inc("library.admit_reject")
		}
		rec.Inc("library.miss")
		return v, nil
	}
	return nil, ErrTrustChanged
}

// indexSigner records the binding names seen for a fingerprint so a
// name-keyed revocation can find every dependent epoch.
func (l *Library) indexSigner(res *core.OpenResult, fp string) {
	if fp == "" {
		return
	}
	l.signerMu.Lock()
	defer l.signerMu.Unlock()
	for _, rep := range res.Signatures {
		for _, name := range []string{rep.SignerName, rep.SignerCN} {
			if name == "" {
				continue
			}
			set, ok := l.signerIndex[name]
			if !ok {
				set = make(map[string]struct{})
				l.signerIndex[name] = set
			}
			set[fp] = struct{}{}
		}
	}
}

func primaryFingerprint(res *core.OpenResult) string {
	for _, rep := range res.Signatures {
		if rep.SignerKeyFingerprint != "" {
			return rep.SignerKeyFingerprint
		}
	}
	return ""
}

// InvalidateAll bumps the global trust epoch: every resident verdict
// becomes unreachable immediately and is evicted lazily on next touch.
func (l *Library) InvalidateAll() {
	l.globalEpoch.Add(1)
	l.invalGen.Add(1)
	l.rec.Inc("library.invalidate_all")
}

// GlobalEpoch reports the library's current global trust epoch.
// Cluster edges stamp replicated verdicts with it and compare against
// the origin's announced epoch before serving.
func (l *Library) GlobalEpoch() uint64 {
	return l.globalEpoch.Load()
}

// AdvanceGlobalEpoch moves the global trust epoch forward to exactly
// `to`, invalidating every resident verdict, and reports whether the
// epoch moved. It is the wire-facing counterpart of InvalidateAll: a
// revocation announcement replicated over the network can be
// duplicated, delayed, or reordered, so the guard is forward-only — a
// stale or replayed announcement (to <= current) is a no-op and can
// never roll the epoch backward onto verdicts that a newer revocation
// already killed.
func (l *Library) AdvanceGlobalEpoch(to uint64) bool {
	for {
		cur := l.globalEpoch.Load()
		if to <= cur {
			l.rec.Inc("library.epoch_stale")
			return false
		}
		if l.globalEpoch.CompareAndSwap(cur, to) {
			l.invalGen.Add(1)
			l.rec.Inc("library.epoch_advance")
			return true
		}
	}
}

// InvalidateSigner flushes every verdict signed by the fingerprinted
// key — no global lock, no cache walk: the signer's epoch moves and
// dependent entries die on their next lookup.
func (l *Library) InvalidateSigner(fingerprint string) {
	if fingerprint != "" {
		l.signerEpochOf(fingerprint).Add(1)
	}
	l.invalGen.Add(1)
	l.rec.Inc("library.invalidate_signer")
}

// InvalidateSignerName flushes every verdict whose signature named the
// binding (ds:KeyName or certificate CN). Wired to
// keymgmt.Service.OnRevoke by WithTrustService. Even when the name is
// unknown the invalidation generation moves, so an in-flight fill for a
// not-yet-indexed signer still re-verifies.
func (l *Library) InvalidateSignerName(name string) {
	l.signerMu.Lock()
	var fps []string
	for fp := range l.signerIndex[name] {
		fps = append(fps, fp)
	}
	l.signerMu.Unlock()
	for _, fp := range fps {
		l.signerEpochOf(fp).Add(1)
	}
	l.invalGen.Add(1)
	l.rec.Inc("library.invalidate_signer")
}

// Verdicts returns the resident verdicts that current trust still
// admits: each passes the check a lookup would make at this moment.
// Invalid entries are skipped, not evicted; their next lookup drops
// them.
func (l *Library) Verdicts() []*Verdict {
	var out []*Verdict
	for _, s := range l.shards {
		for _, e := range s.Values() {
			if l.entryValid(e) {
				out = append(out, e.v)
			}
		}
	}
	return out
}

// Len reports resident entries (diagnostics and tests).
func (l *Library) Len() int {
	n := 0
	for _, s := range l.shards {
		n += s.Len()
	}
	return n
}

// SizeBytes reports resident verdict bytes (diagnostics and tests).
func (l *Library) SizeBytes() int64 {
	var n int64
	for _, s := range l.shards {
		n += s.Bytes()
	}
	return n
}
