package library_test

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"discsec/internal/disc"
	"discsec/internal/experiments"
	"discsec/internal/library"
	"discsec/internal/obs"
	"discsec/internal/player"
)

// TestStressSharedLibrary is the -race stress gate of the issue: eight
// engines share one library across two discs, mixing hits, misses, and
// byte-budget evictions, while a trust goroutine bumps epochs
// mid-flight (global and per-signer). The invariants: no data race
// (detector), every successful load is verified, and every failure is
// the typed trust-changed fail-closed error — never a stale or
// unverified session.
func TestStressSharedLibrary(t *testing.T) {
	_, creator := experiments.PKIFixture()
	imA := buildImage(t, 20)
	imB := buildImage(t, 21)
	rawA := indexBytes(t, imA)
	rawB := indexBytes(t, imB)

	rec := obs.NewRecorder()
	// Budget below two resident documents: the discs evict each other
	// continually, so the run exercises refill under contention too.
	lib := newLib(rec,
		library.WithShards(1),
		library.WithByteBudget(int64(len(rawA))+int64(len(rawB))/2),
	)
	if err := lib.Mount(context.Background(), "disc-a", imA); err != nil {
		t.Fatal(err)
	}
	if err := lib.Mount(context.Background(), "disc-b", imB); err != nil {
		t.Fatal(err)
	}

	const engines = 8
	const iters = 20
	var wg sync.WaitGroup
	var loads, trackOpens atomic.Int64

	for g := 0; g < engines; g++ {
		g := g
		e := &player.Engine{
			Library: lib,
			Policy:  experiments.PlatformPolicy(),
			Storage: disc.NewLocalStorage(0),
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				im, name := imA, "disc-a"
				if (g+i)%2 == 1 {
					im, name = imB, "disc-b"
				}
				sess, err := e.Load(context.Background(), im)
				if err != nil {
					if errors.Is(err, library.ErrTrustChanged) {
						continue // fail-closed under a racing bump: allowed
					}
					t.Errorf("engine %d load %d: %v", g, i, err)
					return
				}
				if !sess.Verified() {
					t.Errorf("engine %d load %d: unverified session served", g, i)
					return
				}
				loads.Add(1)
				if _, err := sess.RunApplication("t-app-1"); err != nil {
					t.Errorf("engine %d run %d: %v", g, i, err)
					return
				}
				if _, _, _, err := lib.OpenTrack(context.Background(), name, "t-av-1"); err != nil &&
					!errors.Is(err, library.ErrTrustChanged) {
					t.Errorf("engine %d OpenTrack %d: %v", g, i, err)
					return
				}
				trackOpens.Add(1)
			}
		}()
	}

	// Trust churn racing the loads: global epoch bumps and per-signer
	// invalidations for the (still valid) signer, forcing invalidation,
	// refill, and the fill-retry path concurrently with every engine.
	stop := make(chan struct{})
	var churn sync.WaitGroup
	churn.Add(1)
	go func() {
		defer churn.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if i%3 == 0 {
				lib.InvalidateAll()
			} else {
				lib.InvalidateSignerName(creator.Name)
			}
		}
	}()

	wg.Wait()
	close(stop)
	churn.Wait()

	if loads.Load() == 0 || trackOpens.Load() == 0 {
		t.Fatalf("stress made no progress: %d loads, %d track opens", loads.Load(), trackOpens.Load())
	}
	// With constant epoch churn the cache cannot have served stale
	// verdicts silently: every invalidation that hit a resident entry
	// must show up as invalidated+refill (misses), and the byte budget
	// must have evicted under two-disc pressure.
	if rec.Counter("library.miss") == 0 {
		t.Error("no misses recorded despite epoch churn")
	}
	if rec.Counter("library.evict") == 0 {
		t.Error("no evictions recorded despite an under-sized budget")
	}
	summary := fmt.Sprintf("hits=%d misses=%d evicts=%d invalidated=%d waits=%d retries=%d",
		rec.Counter("library.hit"), rec.Counter("library.miss"),
		rec.Counter("library.evict"), rec.Counter("library.invalidated"),
		rec.Counter("library.singleflight_wait"), rec.Counter("library.fill_retry"))
	t.Log(summary)
}
