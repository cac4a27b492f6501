package resilience

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"syscall"
	"testing"
	"time"
)

func TestTransientTerminalMarks(t *testing.T) {
	cause := errors.New("boom")
	tr := Transient(cause)
	if !errors.Is(tr, ErrTransient) || errors.Is(tr, ErrTerminal) {
		t.Errorf("Transient marks wrong: %v", tr)
	}
	if !errors.Is(tr, cause) {
		t.Error("Transient severed the cause chain")
	}
	te := Terminal(cause)
	if !errors.Is(te, ErrTerminal) || errors.Is(te, ErrTransient) {
		t.Errorf("Terminal marks wrong: %v", te)
	}
	// Re-marking an already classified error must not flip it.
	if !errors.Is(Terminal(tr), ErrTransient) {
		t.Error("Terminal() re-marked a transient error")
	}
	if Transient(nil) != nil || Terminal(nil) != nil {
		t.Error("marking nil must stay nil")
	}
}

type fakeTimeout struct{}

func (fakeTimeout) Error() string   { return "i/o timeout" }
func (fakeTimeout) Timeout() bool   { return true }
func (fakeTimeout) Temporary() bool { return false }

func TestClassifyTaxonomy(t *testing.T) {
	cases := []struct {
		name      string
		err       error
		transient bool
	}{
		{"reset", &net.OpError{Op: "read", Err: syscall.ECONNRESET}, true},
		{"refused", &net.OpError{Op: "dial", Err: syscall.ECONNREFUSED}, true},
		{"pipe", syscall.EPIPE, true},
		{"truncated", fmt.Errorf("reading body: %w", io.ErrUnexpectedEOF), true},
		{"net timeout", fakeTimeout{}, true},
		{"canceled", context.Canceled, false},
		{"deadline", context.DeadlineExceeded, false},
		{"unknown", errors.New("malformed response"), false},
	}
	for _, c := range cases {
		if got := IsTransient(c.err); got != c.transient {
			t.Errorf("%s: IsTransient = %v, want %v", c.name, got, c.transient)
		}
		if got := IsTerminal(c.err); got == c.transient {
			t.Errorf("%s: IsTerminal = %v, want %v", c.name, got, !c.transient)
		}
	}
	if Classify(nil) != nil {
		t.Error("Classify(nil) != nil")
	}
}

// clientTimeout models how an http.Client deadline surfaces: a
// net.Error with Timeout() true whose chain reaches
// context.DeadlineExceeded (as url.Error does).
type clientTimeout struct{}

func (clientTimeout) Error() string   { return "Client.Timeout exceeded while awaiting headers" }
func (clientTimeout) Timeout() bool   { return true }
func (clientTimeout) Temporary() bool { return true }
func (clientTimeout) Unwrap() error   { return context.DeadlineExceeded }

func TestClassifyNetTimeoutWrappingContextDeadline(t *testing.T) {
	// The timeout reading must win over the wrapped context sentinel.
	if !IsTransient(clientTimeout{}) {
		t.Errorf("client timeout classified terminal: %v", Classify(clientTimeout{}))
	}
}

func TestRetryAfterHint(t *testing.T) {
	base := errors.New("503")
	err := WithRetryAfter(Transient(base), 42*time.Second)
	if d, ok := RetryAfter(err); !ok || d != 42*time.Second {
		t.Errorf("RetryAfter = %v, %v", d, ok)
	}
	if !errors.Is(err, ErrTransient) || !errors.Is(err, base) {
		t.Error("WithRetryAfter broke the error chain")
	}
	if _, ok := RetryAfter(base); ok {
		t.Error("hint found where none attached")
	}
	if WithRetryAfter(nil, time.Second) != nil {
		t.Error("WithRetryAfter(nil) != nil")
	}
}

// TestClassifyStatus: 5xx and 429 are transient, with the response's
// Retry-After as the backoff floor; any other status is terminal; the
// caller's error stays in the chain either way.
func TestClassifyStatus(t *testing.T) {
	cases := []struct {
		code       int
		retryAfter string
		transient  bool
		floor      time.Duration
	}{
		{http.StatusInternalServerError, "", true, 0},
		{http.StatusServiceUnavailable, "3", true, 3 * time.Second},
		{http.StatusTooManyRequests, "", true, 0},
		{http.StatusNotFound, "", false, 0},
		{http.StatusBadRequest, "5", false, 0},
	}
	for _, c := range cases {
		resp := &http.Response{StatusCode: c.code, Header: http.Header{}}
		if c.retryAfter != "" {
			resp.Header.Set("Retry-After", c.retryAfter)
		}
		cause := fmt.Errorf("exchange answered %d", c.code)
		err := ClassifyStatus(resp, cause)
		if !errors.Is(err, cause) {
			t.Errorf("%d: %v lost the caller's error", c.code, err)
		}
		if IsTransient(err) != c.transient || IsTerminal(err) == c.transient {
			t.Errorf("%d: transient = %v, want %v", c.code, IsTransient(err), c.transient)
		}
		if floor, _ := RetryAfter(err); floor != c.floor {
			t.Errorf("%d: Retry-After floor = %v, want %v", c.code, floor, c.floor)
		}
	}
}

func fastPolicy() *Policy {
	return &Policy{BaseDelay: time.Microsecond, MaxDelay: time.Millisecond}
}

func TestDoRetriesTransientUntilSuccess(t *testing.T) {
	p := fastPolicy()
	attempts := 0
	err := p.Do(context.Background(), func(context.Context) error {
		attempts++
		if attempts < 3 {
			return Transient(errors.New("flaky"))
		}
		return nil
	})
	if err != nil || attempts != 3 {
		t.Fatalf("err = %v, attempts = %d", err, attempts)
	}
}

func TestDoTerminalStopsImmediately(t *testing.T) {
	p := fastPolicy()
	cause := errors.New("forged signature")
	attempts := 0
	err := p.Do(context.Background(), func(context.Context) error {
		attempts++
		return Terminal(cause)
	})
	if attempts != 1 {
		t.Errorf("terminal error retried: %d attempts", attempts)
	}
	if !errors.Is(err, ErrTerminal) || !errors.Is(err, cause) {
		t.Errorf("err = %v", err)
	}
}

func TestDoExhaustsAttempts(t *testing.T) {
	p := fastPolicy()
	p.MaxAttempts = 3
	cause := &net.OpError{Op: "read", Err: syscall.ECONNRESET}
	attempts := 0
	err := p.Do(context.Background(), func(context.Context) error {
		attempts++
		return cause
	})
	if attempts != 3 {
		t.Errorf("attempts = %d, want 3", attempts)
	}
	if !errors.Is(err, ErrTransient) || !errors.Is(err, syscall.ECONNRESET) {
		t.Errorf("exhaustion error = %v", err)
	}
}

func TestDoDefaultClassifierApplies(t *testing.T) {
	// Unmarked network errors classify transient and retry.
	p := fastPolicy()
	attempts := 0
	err := p.Do(context.Background(), func(context.Context) error {
		attempts++
		if attempts == 1 {
			return &net.OpError{Op: "read", Err: syscall.ECONNRESET}
		}
		return nil
	})
	if err != nil || attempts != 2 {
		t.Fatalf("err = %v, attempts = %d", err, attempts)
	}
}

func TestDoHonorsRetryAfterFloor(t *testing.T) {
	p := fastPolicy()
	var gotBackoff time.Duration
	ctx, cancel := context.WithCancel(context.Background())
	p.OnRetry = func(attempt int, err error, backoff time.Duration) {
		gotBackoff = backoff
		cancel() // don't actually sleep out the floor in a unit test
	}
	err := p.Do(ctx, func(context.Context) error {
		return WithRetryAfter(Transient(errors.New("503")), 30*time.Second)
	})
	if gotBackoff < 30*time.Second {
		t.Errorf("backoff %v below Retry-After floor", gotBackoff)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v", err)
	}
}

func TestDoCancelledDuringBackoff(t *testing.T) {
	p := &Policy{BaseDelay: time.Hour, MaxDelay: time.Hour}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- p.Do(ctx, func(context.Context) error {
			return Transient(errors.New("flaky"))
		})
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, ErrTerminal) || !errors.Is(err, context.Canceled) {
			t.Errorf("err = %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Do did not return after cancellation mid-backoff")
	}
}

// TestDoCancelledDuringBackoffNoGoroutineLeak cancels precisely inside
// the backoff sleep (the OnRetry hook fires immediately before it) and
// asserts Do returns promptly and leaves no stray timer goroutine
// behind — the process goroutine count settles back to its baseline.
func TestDoCancelledDuringBackoffNoGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 20; i++ {
		p := &Policy{BaseDelay: time.Hour, MaxDelay: time.Hour}
		ctx, cancel := context.WithCancel(context.Background())
		p.OnRetry = func(int, error, time.Duration) { cancel() }
		start := time.Now()
		err := p.Do(ctx, func(context.Context) error {
			return Transient(errors.New("flaky"))
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want ctx.Err() from mid-backoff cancel", err)
		}
		if elapsed := time.Since(start); elapsed > 5*time.Second {
			t.Fatalf("Do took %v to notice cancellation during a 1h backoff", elapsed)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	after := runtime.NumGoroutine()
	for after > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
		after = runtime.NumGoroutine()
	}
	if after > before {
		t.Errorf("goroutines grew %d -> %d after cancelled backoffs", before, after)
	}
}

func TestDoCancelledBeforeFirstAttempt(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	attempts := 0
	err := fastPolicy().Do(ctx, func(context.Context) error {
		attempts++
		return nil
	})
	if attempts != 0 || !errors.Is(err, context.Canceled) {
		t.Errorf("attempts = %d, err = %v", attempts, err)
	}
}

func TestAttemptTimeoutIsTransient(t *testing.T) {
	p := fastPolicy()
	p.AttemptTimeout = 5 * time.Millisecond
	p.MaxAttempts = 2
	attempts := 0
	err := p.Do(context.Background(), func(ctx context.Context) error {
		attempts++
		if attempts == 1 {
			<-ctx.Done() // hang until the per-attempt deadline fires
			return ctx.Err()
		}
		return nil
	})
	if err != nil || attempts != 2 {
		t.Fatalf("err = %v, attempts = %d (per-attempt timeout must retry)", err, attempts)
	}
}

func TestBackoffFullJitterBoundsAndDeterminism(t *testing.T) {
	mk := func() *Policy {
		rng := rand.New(rand.NewSource(7))
		return &Policy{BaseDelay: 100 * time.Millisecond, MaxDelay: time.Second, Jitter: rng.Float64}
	}
	a, b := mk(), mk()
	for attempt := 1; attempt <= 10; attempt++ {
		da := a.Backoff(attempt)
		if db := b.Backoff(attempt); da != db {
			t.Fatalf("seeded backoff not reproducible: %v vs %v", da, db)
		}
		ceiling := min(time.Second, 100*time.Millisecond<<(attempt-1))
		if da < 0 || da >= ceiling {
			t.Errorf("attempt %d: backoff %v outside [0, %v)", attempt, da, ceiling)
		}
	}
}

func TestNilPolicyDefaults(t *testing.T) {
	var p *Policy
	if p.attempts() != 4 {
		t.Errorf("nil policy attempts = %d", p.attempts())
	}
	attempts := 0
	err := (&Policy{BaseDelay: time.Microsecond}).Do(nil, func(context.Context) error { //nolint:staticcheck // nil ctx tolerated by design
		attempts++
		return Transient(errors.New("x"))
	})
	if attempts != 4 || !errors.Is(err, ErrTransient) {
		t.Errorf("attempts = %d, err = %v", attempts, err)
	}
}
