package main

import (
	"bytes"
	"container/list"
	"crypto/sha256"
	"crypto/x509"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"sync"
	"sync/atomic"

	"discsec/internal/c14n"
	"discsec/internal/core"
	"discsec/internal/experiments"
	"discsec/internal/workload"
	"discsec/internal/xmldom"
	"discsec/internal/xmlenc"
	"discsec/internal/xmlsecuri"
)

// doc is one signed, partially encrypted cluster document together
// with the verdict key computed for it through a path independent of
// the system under test.
type doc struct {
	raw []byte
	// want is the hex SHA-256 of the document's exclusive
	// canonicalization: xmldom.ParseBytes, then
	// c14n.CanonicalizeDocument, then SHA-256.
	want string
}

// plan holds every input of one workload run. It is generated from
// the seed before any timing starts; the system under test only ever
// sees the document bytes.
type plan struct {
	spec spec

	docs []doc
	// controls are tampered copies of corpus documents: one digit of a
	// signed attribute value flipped. Every open of one must fail.
	controls [][]byte
	// cold is the pool of never-seen documents opened at spec.coldRate
	// during the measured phase.
	cold []doc

	// prewarm lists the corpus documents opened during set-up.
	prewarm []int32
	// stream is the request order after set-up: a value >= 0 opens
	// docs[v], a value < 0 opens controls[-1-v]. Workers cycle it.
	stream []int32

	corpusBytes int64
	// budget is the library byte budget (0 keeps the library default).
	budget int64
	// expectHit is the hit ratio a global LRU of the same byte budget
	// would reach on the stream (cold opens excluded).
	expectHit float64

	roots  *x509.CertPool
	signer string
}

// streamLen bounds the pre-generated request order; a run of ten
// seconds opens fewer documents than this at any rate seen here, and
// longer runs cycle it.
const streamLen = 1 << 18

// zipfS is the skew of verify-http's document popularity.
const zipfS = 1.1

// numControls is the number of distinct tampered documents.
const numControls = 64

// newPlan generates a workload's inputs from the seed. seconds sizes
// the cold pool: cold opens arrive at a fixed rate, so a faster system
// sees the same set of distinct documents.
func newPlan(sp spec, seed uint64, seconds float64) (*plan, error) {
	root, creator := experiments.PKIFixture()
	p := &plan{spec: sp, roots: root.Pool(), signer: core.KeyFingerprint(creator.Key.Public())}
	prot := &core.Protector{Identity: creator}
	rng := rand.New(rand.NewPCG(seed, 0))

	var err error
	if p.docs, err = genDocs(prot, rng, sp.docs, sp.minStmts, sp.maxStmts); err != nil {
		return nil, err
	}
	for _, d := range p.docs {
		p.corpusBytes += int64(len(d.raw))
	}
	if sp.coldRate > 0 {
		n := int(math.Ceil(sp.coldRate*seconds)) + 1
		if p.cold, err = genDocs(prot, rng, n, sp.minStmts, sp.maxStmts); err != nil {
			return nil, err
		}
	}
	bySize := sizeOrder(p.docs)
	if sp.tamperEvery > 0 {
		// Controls cost a failed verification each; spreading them over
		// the size range keeps that cost the same for every seed.
		for i := 0; i < numControls; i++ {
			d := bySize[(2*i+1)*len(bySize)/(2*numControls)]
			p.controls = append(p.controls, tamper(p.docs[d].raw, rng))
		}
	}

	limit := int64(math.MaxInt64)
	if sp.budgetShare > 0 {
		p.budget = int64(sp.budgetShare * float64(p.corpusBytes))
		limit = p.budget
	}
	// perm is the seeded identity of each document: its place in the
	// cycle, or its popularity rank.
	perm := rng.Perm(len(p.docs))
	if sp.zipf {
		perm = spreadBySize(bySize)
	}
	var filled int64
	for _, d := range perm {
		if filled+int64(len(p.docs[d].raw)) > limit {
			break
		}
		filled += int64(len(p.docs[d].raw))
		p.prewarm = append(p.prewarm, int32(d))
	}

	next := cyclic(perm, len(p.prewarm))
	if sp.zipf {
		z := rand.NewZipf(rng, zipfS, 1, uint64(len(perm)-1))
		next = func() int32 { return int32(perm[z.Uint64()]) }
	}
	p.stream = make([]int32, streamLen)
	for j := range p.stream {
		if sp.tamperEvery > 0 && j%sp.tamperEvery == sp.tamperEvery-1 {
			p.stream[j] = int32(-1 - (j/sp.tamperEvery)%len(p.controls))
			continue
		}
		p.stream[j] = next()
	}
	p.expectHit = p.simulateLRU(limit)
	return p, nil
}

// sizeOrder lists the document indices from smallest to largest.
func sizeOrder(docs []doc) []int {
	order := make([]int, len(docs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return len(docs[order[a]].raw) < len(docs[order[b]].raw) })
	return order
}

// spreadBySize orders the documents by popularity rank so that every
// head of the ranking spans the whole size range: rank r takes the
// document at size quantile frac(1/2 + r·φ), a low-discrepancy
// sequence. Under Zipf the few top ranks draw most requests, so a
// seeded ranking would make the request size mix, and with it every
// latency, depend on the seed.
func spreadBySize(bySize []int) []int {
	quantile := make([]float64, len(bySize))
	ranks := make([]int, len(bySize))
	for r := range quantile {
		_, quantile[r] = math.Modf(0.5 + float64(r)*math.Phi)
		ranks[r] = r
	}
	sort.Slice(ranks, func(a, b int) bool { return quantile[ranks[a]] < quantile[ranks[b]] })
	perm := make([]int, len(bySize))
	for i, r := range ranks {
		perm[r] = bySize[i]
	}
	return perm
}

// cyclic returns the documents of perm in order, starting at from and
// wrapping around.
func cyclic(perm []int, from int) func() int32 {
	i := from
	return func() int32 {
		d := perm[i%len(perm)]
		i++
		return int32(d)
	}
}

// genDocs builds n documents whose script lengths are log-uniform in
// [minStmts, maxStmts]. The lengths are stratified — one draw per
// n-quantile — so every seed yields nearly the same size mix and only
// content, order and keys vary.
func genDocs(prot *core.Protector, rng *rand.Rand, n, minStmts, maxStmts int) ([]doc, error) {
	lo, hi := math.Log(float64(minStmts)), math.Log(float64(maxStmts))
	stmts := make([]int, n)
	seeds := make([]uint64, n)
	for i := range stmts {
		u := (float64(i) + rng.Float64()) / float64(n)
		stmts[i] = int(math.Round(math.Exp(lo + u*(hi-lo))))
		seeds[i] = rng.Uint64()
	}
	rng.Shuffle(n, func(i, j int) { stmts[i], stmts[j] = stmts[j], stmts[i] })

	docs := make([]doc, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for w := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				d, err := genDoc(prot, stmts[i], seeds[i])
				if err != nil {
					errs[w] = err
					return
				}
				docs[i] = d
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return docs, nil
}

// genDoc packages one cluster the way an author would: signed over the
// whole cluster, then the manifest code encrypted with AES-128-CBC.
func genDoc(prot *core.Protector, stmts int, seed uint64) (doc, error) {
	cl, _ := workload.Cluster(workload.ClusterSpec{
		AppTracks: 1,
		Manifest:  workload.ManifestSpec{Regions: 2, MediaItems: 2, Scripts: 1, ScriptStatements: stmts},
		Seed:      seed,
	})
	im, err := prot.Package(core.PackageSpec{
		Cluster:      cl,
		Sign:         true,
		SignLevel:    core.LevelCluster,
		EncryptPaths: []string{"//manifest/code"},
		Encryption:   xmlenc.EncryptOptions{Algorithm: xmlsecuri.EncAES128CBC, Key: experiments.EncKey},
	})
	if err != nil {
		return doc{}, fmt.Errorf("package corpus document: %w", err)
	}
	raw, err := im.ReadIndexDocumentBytes()
	if err != nil {
		return doc{}, fmt.Errorf("read corpus document: %w", err)
	}
	want, err := expectedKey(raw)
	if err != nil {
		return doc{}, err
	}
	return doc{raw: raw, want: want}, nil
}

// expectedKey derives the verdict cache key through the DOM
// canonicalizer, independently of the streaming front the library,
// the server and the edges use.
func expectedKey(raw []byte) (string, error) {
	d, err := xmldom.ParseBytes(raw)
	if err != nil {
		return "", fmt.Errorf("parse corpus document: %w", err)
	}
	octets, err := c14n.CanonicalizeDocument(d, c14n.Options{Exclusive: true})
	if err != nil {
		return "", fmt.Errorf("canonicalize corpus document: %w", err)
	}
	sum := sha256.Sum256(octets)
	return hex.EncodeToString(sum[:]), nil
}

// tamper flips one digit of a signed layout attribute (left, top,
// width or height). The result is still well-formed XML, so it reaches
// verification and must fail there on the reference digest.
func tamper(raw []byte, rng *rand.Rand) []byte {
	signedEnd := bytes.Index(raw, []byte("<xenc:EncryptedData"))
	var digits []int
	for _, attr := range []string{` left="`, ` top="`, ` width="`, ` height="`} {
		for off := 0; ; {
			i := bytes.Index(raw[off:signedEnd], []byte(attr))
			if i < 0 {
				break
			}
			v := off + i + len(attr)
			for ; raw[v] >= '0' && raw[v] <= '9'; v++ {
				digits = append(digits, v)
			}
			off = v
		}
	}
	out := bytes.Clone(raw)
	at := digits[rng.IntN(len(digits))]
	out[at] = '0' + (out[at]-'0'+1+byte(rng.IntN(9)))%10
	return out
}

// simulateLRU estimates the hit ratio of the stream under a global LRU
// holding limit bytes, after the set-up opens.
func (p *plan) simulateLRU(limit int64) float64 {
	order := list.New()
	at := map[int32]*list.Element{}
	var held int64
	touch := func(d int32) bool {
		if e, ok := at[d]; ok {
			order.MoveToFront(e)
			return true
		}
		at[d] = order.PushFront(d)
		held += int64(len(p.docs[d].raw))
		for held > limit {
			old := order.Remove(order.Back()).(int32)
			delete(at, old)
			held -= int64(len(p.docs[old].raw))
		}
		return false
	}
	for _, d := range p.prewarm {
		touch(d)
	}
	hits, n := 0, 0
	for _, d := range p.stream[:min(len(p.stream), 50000)] {
		if d < 0 {
			continue
		}
		n++
		if touch(d) {
			hits++
		}
	}
	return float64(hits) / float64(n)
}
