package xmlstream

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

// TestPooledParserReuseNoStateBleed hammers Parse from 8 goroutines,
// each with its own distinct document shape, and checks every event
// log against that goroutine's expectation. The pooled parser's stack
// and attribute buffers are handed between goroutines by sync.Pool;
// any state bleeding across a Get/Put boundary (a stale open-element
// stack, attributes left over from another document) shows up either
// as a wrong event log or as a race under -race.
//
// Error-path recycling is exercised too: odd iterations parse a
// deliberately malformed twin, so parsers re-enter the pool from early
// returns with a non-empty stack and must still come back clean.
func TestPooledParserReuseNoStateBleed(t *testing.T) {
	const (
		goroutines = 8
		iterations = 200
	)

	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()

			// Per-goroutine document: unique element names, attribute
			// values, and depth so cross-contamination cannot produce a
			// matching log by coincidence.
			el := fmt.Sprintf("g%d", g)
			doc := fmt.Sprintf(
				`<%[1]s id="%[2]d"><inner%[2]d a="x%[2]d" b="y%[2]d">t%[2]d</inner%[2]d></%[1]s>`,
				el, g)
			want := []string{
				fmt.Sprintf("start %s id=%d", el, g),
				fmt.Sprintf("start inner%d a=x%d b=y%d", g, g, g),
				fmt.Sprintf("text t%d", g),
				fmt.Sprintf("end inner%d", g),
				fmt.Sprintf("end %s", el),
			}
			// Unclosed inner element: Parse fails after pushing two
			// frames, recycling a dirty parser into the pool.
			badDoc := fmt.Sprintf(`<%[1]s><inner%[2]d>`, el, g)

			for i := 0; i < iterations; i++ {
				if i%2 == 1 {
					if err := Parse(strings.NewReader(badDoc), Options{}, &recordingHandler{}); err == nil {
						errs <- fmt.Errorf("goroutine %d: malformed document parsed cleanly", g)
						return
					}
					continue
				}
				h := &recordingHandler{}
				if err := Parse(strings.NewReader(doc), Options{}, h); err != nil {
					errs <- fmt.Errorf("goroutine %d iter %d: %v", g, i, err)
					return
				}
				if len(h.events) != len(want) {
					errs <- fmt.Errorf("goroutine %d iter %d: events %q, want %q", g, i, h.events, want)
					return
				}
				for j := range want {
					if h.events[j] != want[j] {
						errs <- fmt.Errorf("goroutine %d iter %d: event %d = %q, want %q (state bleed?)",
							g, i, j, h.events[j], want[j])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestPooledReparseAllocsPinned: re-parsing a corpus document with a
// pooled parser finds every name and short value in the interning
// table, so it allocates nothing. A hash that sends three of one
// document's recurring strings to one two-way set shows up here: with
// byte-at-a-time FNV-1a in place of internHash, cluster-large costs 2.
func TestPooledReparseAllocsPinned(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items")
	}
	for _, doc := range corpus(t) {
		parse := func() {
			if err := ParseBytes(doc.data, Options{}); err != nil {
				t.Fatal(err)
			}
		}
		parse()
		if got := testing.AllocsPerRun(50, parse); got > 0 {
			t.Errorf("%s: a pooled re-parse made %.0f allocations, want 0", doc.name, got)
		}
	}
}

// TestInternTableBounded: a document of many distinct long names
// leaves at most internSlots*internLen bytes in the pooled parser's
// interning table; a name longer than internLen is never kept.
func TestInternTableBounded(t *testing.T) {
	var b strings.Builder
	b.WriteString("<r>")
	for i := 0; i < 2*internSlots; i++ {
		fmt.Fprintf(&b, "<e%04d%s/>", i, strings.Repeat("x", 1<<10))
	}
	b.WriteString("</r>")
	p := getParser(Options{}, nil)
	defer putParser(p)
	p.buf = []byte(b.String())
	if err := p.run(); err != nil {
		t.Fatal(err)
	}
	kept := 0
	for _, s := range p.names {
		if len(s) > internLen {
			t.Fatalf("interned a %d-byte name", len(s))
		}
		kept += len(s)
	}
	if kept > internSlots*internLen {
		t.Errorf("interning table holds %d bytes, bound %d", kept, internSlots*internLen)
	}
}
