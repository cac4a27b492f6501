package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"discsec/internal/obs"
)

// span is one timed interval of a traced request: a benchmark span
// around a public call or an HTTP hop, or an obs stage span the
// program recorded into the request's recorder. Parents are assigned
// when the trace is assembled, by interval containment within the
// request — every request runs synchronously, hops included, so its
// spans nest strictly.
type span struct {
	Req    uint64 `json:"req"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Node   string `json:"node"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// Benchmark span names. Everything else is an obs stage name.
const (
	spanOpen       = "open"        // one public call: library or edge OpenReader, or a POST round trip
	spanHTTPClient = "http.client" // one HTTP exchange, request sent to response body closed
	spanHTTPServer = "http.server" // one ContentServer.ServeHTTP call
)

// headerReq carries the request id across HTTP hops. Only the
// benchmark's own transports and handler wrappers read or write it.
const headerReq = "X-Bench-Req"

// tracer records spans for requests started while it is on. Each
// request gets a recorder (attached through the context, the program's
// public observability hook) whose sink collects that request's stage
// spans; recorders are reused, so their counters add up to the totals
// of the traced window.
type tracer struct {
	on    atomic.Bool
	epoch time.Time
	reqs  atomic.Uint64

	// opens and colds count the traced public calls, and those the form
	// did not answer from its cache.
	opens, colds atomic.Int64

	mu    sync.Mutex
	spans []span
	recs  []*obs.Recorder
	free  []*obs.Recorder
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

type reqKey struct{}

// reqSink collects the stage spans of one request on one node.
type reqSink struct {
	mu    sync.Mutex
	t     *tracer
	req   uint64
	node  string
	spans []span
}

func (s *reqSink) OnSpan(stage string, start time.Time, d time.Duration) {
	at := int64(start.Sub(s.t.epoch))
	s.mu.Lock()
	s.spans = append(s.spans, span{Req: s.req, Name: stage, Node: s.node, Start: at, End: at + int64(d)})
	s.mu.Unlock()
}

func (s *reqSink) OnCounter(string, int64, int64) {}
func (s *reqSink) OnAudit(obs.AuditEvent)         {}

// traced is one request in flight on one node.
type traced struct {
	ctx   context.Context
	rec   *obs.Recorder
	sink  *reqSink
	start time.Time
}

// begin starts tracing request req on node; req 0 allocates a new id.
func (t *tracer) begin(ctx context.Context, req uint64, node string) *traced {
	if req == 0 {
		req = t.reqs.Add(1)
	}
	t.mu.Lock()
	var rec *obs.Recorder
	if n := len(t.free); n > 0 {
		rec, t.free = t.free[n-1], t.free[:n-1]
	} else {
		rec = obs.NewRecorder()
		t.recs = append(t.recs, rec)
	}
	t.mu.Unlock()
	sink := &reqSink{t: t, req: req, node: node}
	rec.SetSink(sink)
	ctx = obs.WithRecorder(context.WithValue(ctx, reqKey{}, req), rec)
	return &traced{ctx: ctx, rec: rec, sink: sink, start: time.Now()}
}

// end closes the request's root span and files its spans.
func (t *tracer) end(tc *traced, name string) {
	end := time.Now()
	tc.rec.SetSink(nil)
	t.mu.Lock()
	t.free = append(t.free, tc.rec)
	tc.sink.mu.Lock()
	t.spans = append(t.spans, tc.sink.spans...)
	tc.sink.mu.Unlock()
	t.spans = append(t.spans, span{Req: tc.sink.req, Name: name, Node: tc.sink.node,
		Start: int64(tc.start.Sub(t.epoch)), End: int64(end.Sub(t.epoch))})
	t.mu.Unlock()
}

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// handler wraps a node's ContentServer: a request carrying the
// benchmark header, or any request while tracing is on, runs with its
// own recorder under an http.server span.
func (t *tracer) handler(node string, next http.Handler) http.Handler {
	if t == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req, _ := strconv.ParseUint(r.Header.Get(headerReq), 10, 64)
		if req == 0 && !t.on.Load() {
			next.ServeHTTP(w, r)
			return
		}
		tc := t.begin(r.Context(), req, node)
		next.ServeHTTP(w, r.WithContext(tc.ctx))
		t.end(tc, spanHTTPServer)
	})
}

// transport wraps a node's client transport: requests made on behalf
// of a traced request carry its id and record an http.client span.
func (t *tracer) transport(node string, base http.RoundTripper) http.RoundTripper {
	if t == nil {
		return base
	}
	return &traceTransport{t: t, node: node, base: base}
}

type traceTransport struct {
	t    *tracer
	node string
	base http.RoundTripper
}

func (tt *traceTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	req, ok := r.Context().Value(reqKey{}).(uint64)
	if !ok {
		return tt.base.RoundTrip(r)
	}
	r = r.Clone(r.Context())
	r.Header.Set(headerReq, strconv.FormatUint(req, 10))
	s := span{Req: req, Name: spanHTTPClient, Node: tt.node, Start: int64(time.Since(tt.t.epoch))}
	resp, err := tt.base.RoundTrip(r)
	if err != nil {
		s.End = int64(time.Since(tt.t.epoch))
		tt.t.add(s)
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, t: tt.t, s: s}
	return resp, nil
}

// spanBody ends the http.client span when the caller closes the body,
// so the span covers reading the response too.
type spanBody struct {
	io.ReadCloser
	t    *tracer
	s    span
	once sync.Once
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() {
		b.s.End = int64(time.Since(b.t.epoch))
		b.t.add(b.s)
	})
	return err
}

// profile is the assembled trace of a window of requests.
type profile struct {
	// self sums each span name's self time: its duration minus the
	// time its direct children cover.
	self map[string]time.Duration
	// inclusive sums each span name's durations.
	inclusive map[string]time.Duration
	// total sums every self time: all traced work in the window.
	total time.Duration
	// opens counts root open spans; openTime sums their durations.
	opens    int
	openTime time.Duration
}

// assemble links every span to its parent and sums self times over
// the requests with id >= from.
func (t *tracer) assemble(from uint64) profile {
	t.mu.Lock()
	defer t.mu.Unlock()
	sort.SliceStable(t.spans, func(i, j int) bool {
		a, b := t.spans[i], t.spans[j]
		if a.Req != b.Req {
			return a.Req < b.Req
		}
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		return a.End > b.End
	})
	pr := profile{self: map[string]time.Duration{}, inclusive: map[string]time.Duration{}}
	layer := make([]string, len(t.spans))
	var stack []int
	for i := range t.spans {
		s := &t.spans[i]
		s.ID = i + 1
		if i == 0 || t.spans[i-1].Req != s.Req {
			stack = stack[:0]
		}
		for len(stack) > 0 && t.spans[stack[len(stack)-1]].End < s.End {
			stack = stack[:len(stack)-1]
		}
		s.Parent = 0
		layer[i] = s.Name
		d := time.Duration(s.End - s.Start)
		if len(stack) > 0 {
			p := stack[len(stack)-1]
			s.Parent = t.spans[p].ID
			// The streaming canonicalizer's c14n span lasts as long as the
			// single front pass that drives it (library parse, or the
			// edge digest), so it is accounted to that pass as parse.
			if s.Name == "c14n" && (layer[p] == "parse" || layer[p] == "cluster") {
				layer[i] = "parse"
			}
			if s.Req >= from {
				pr.self[layer[p]] -= d
			}
		}
		stack = append(stack, i)
		if s.Req < from {
			continue
		}
		pr.self[layer[i]] += d
		if layer[i] == s.Name {
			pr.inclusive[s.Name] += d
		}
		if s.Name == spanOpen {
			pr.opens++
			pr.openTime += d
		}
	}
	for _, d := range pr.self {
		pr.total += d
	}
	return pr
}

// counters sums a counter over every recorder handed out.
func (t *tracer) counter(name string) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var n int64
	for _, rec := range t.recs {
		n += rec.Counter(name)
	}
	return n
}

// write dumps the assembled spans as JSON.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	b, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return fmt.Errorf("encode trace: %w", err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	return nil
}
