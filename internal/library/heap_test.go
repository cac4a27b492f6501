//go:build !race

package library_test

import (
	"context"
	"runtime"
	"testing"

	"discsec/internal/library"
)

// TestVerdictHeapWithinCharge enforces the verdict cache's memory
// bound: the heap a resident verdict keeps alive is no more than the
// bytes it is charged against the byte budget (len of the source
// document). The process-wide memos are warmed first, so the measured
// growth is the verdicts alone. Excluded from -race builds, whose
// shadow memory inflates the heap.
func TestVerdictHeapWithinCharge(t *testing.T) {
	const n = 120
	ctx := context.Background()
	docs := make([][]byte, n)
	var charged int64
	for i := range docs {
		docs[i] = indexBytes(t, buildImage(t, uint64(1000+i)))
		charged += int64(len(docs[i]))
	}
	// A throwaway library fills each document once; it is garbage
	// before the first measurement.
	for _, raw := range docs {
		if _, _, err := newLib(nil).OpenDocument(ctx, raw); err != nil {
			t.Fatal(err)
		}
	}

	before := liveHeap()
	lib := newLib(nil, library.WithByteBudget(64*charged))
	for i, raw := range docs {
		if _, st, err := lib.OpenDocument(ctx, raw); err != nil || st != library.StatusMiss {
			t.Fatalf("doc %d: status=%q err=%v", i, st, err)
		}
	}
	after := liveHeap()
	if lib.Len() != n {
		t.Fatalf("resident entries = %d, want %d", lib.Len(), n)
	}
	runtime.KeepAlive(lib)
	runtime.KeepAlive(docs) // the documents were live at the first measurement too

	ratio := float64(int64(after)-int64(before)) / float64(charged)
	t.Logf("%d verdicts: retained %d B for %d B charged (%.2fx)", n, int64(after)-int64(before), charged, ratio)
	if ratio > 1.0 {
		t.Errorf("resident verdicts retain %.2fx the bytes they are charged, want <= 1.0x", ratio)
	}
}

// liveHeap returns HeapAlloc after two collections, so objects
// freed by the first (finalizers, pool victims) are gone too.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
