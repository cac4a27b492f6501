// Package flight provides a minimal generic singleflight: concurrent
// calls for the same key share one execution. The library collapses
// concurrent cold opens of one document into one verification with it,
// and a cluster edge collapses concurrent misses into one origin fill.
package flight

import (
	"sync"
	"sync/atomic"
)

// Group deduplicates concurrent calls by key. The zero value is ready
// to use.
type Group[V any] struct {
	mu sync.Mutex
	m  map[string]*call[V]
}

type call[V any] struct {
	wg  sync.WaitGroup
	v   V
	err error
	// waiters counts callers that joined this call (observability and
	// deterministic tests).
	waiters atomic.Int32
}

// Do runs fn once per key among concurrent callers. shared reports
// whether this caller joined an execution another caller led (waiters
// block until the leader finishes; the leader's context governs the
// work).
func (g *Group[V]) Do(key string, fn func() (V, error)) (v V, err error, shared bool) {
	g.mu.Lock()
	if c, ok := g.m[key]; ok {
		c.waiters.Add(1)
		g.mu.Unlock()
		c.wg.Wait()
		return c.v, c.err, true
	}
	if g.m == nil {
		g.m = make(map[string]*call[V])
	}
	c := &call[V]{}
	c.wg.Add(1)
	g.m[key] = c
	g.mu.Unlock()

	c.v, c.err = fn()

	g.mu.Lock()
	delete(g.m, key)
	g.mu.Unlock()
	c.wg.Done()
	return c.v, c.err, false
}
