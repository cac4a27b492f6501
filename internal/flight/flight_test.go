package flight

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestGroupSharesOneExecution drives the wait path
// deterministically: the leader blocks inside fn until 63 waiters have
// registered on the in-flight call, so the sharing semantics do not
// depend on scheduler parallelism (GOMAXPROCS=1 runs goroutines
// sequentially and would otherwise never produce a waiter).
func TestGroupSharesOneExecution(t *testing.T) {
	g := &Group[*verdict]{}
	entered := make(chan struct{})
	release := make(chan struct{})
	want := &verdict{key: "k"}
	var executions atomic.Int32

	var leaderDone sync.WaitGroup
	leaderDone.Add(1)
	go func() {
		defer leaderDone.Done()
		v, err, shared := g.Do("k", func() (*verdict, error) {
			executions.Add(1)
			close(entered)
			<-release
			return want, nil
		})
		if v != want || err != nil || shared {
			t.Errorf("leader: v=%v err=%v shared=%v", v == want, err, shared)
		}
	}()
	<-entered

	const n = 63
	var done sync.WaitGroup
	var sharedCount atomic.Int32
	done.Add(n)
	for i := 0; i < n; i++ {
		go func() {
			defer done.Done()
			v, err, shared := g.Do("k", func() (*verdict, error) {
				executions.Add(1)
				return nil, errors.New("waiter executed the fill")
			})
			if shared {
				sharedCount.Add(1)
			}
			if v != want || err != nil {
				t.Errorf("waiter: got v=%v err=%v", v == want, err)
			}
		}()
	}

	// Release only after every waiter is registered on the call, so
	// none of them can race past the leader's cleanup and become a
	// second leader.
	g.mu.Lock()
	c := g.m["k"]
	g.mu.Unlock()
	deadline := time.Now().Add(10 * time.Second)
	for c.waiters.Load() < n {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d waiters registered", c.waiters.Load(), n)
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	leaderDone.Wait()
	done.Wait()

	if got := executions.Load(); got != 1 {
		t.Fatalf("fn executed %d times, want 1", got)
	}
	if got := sharedCount.Load(); got != n {
		t.Fatalf("%d/%d waiters shared the execution", got, n)
	}
	g.mu.Lock()
	left := len(g.m)
	g.mu.Unlock()
	if left != 0 {
		t.Fatalf("%d calls left registered after completion", left)
	}
}

// verdict stands in for a shared result; the test compares pointers.
type verdict struct{ key string }
