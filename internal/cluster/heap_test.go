//go:build !race

package cluster

import (
	"fmt"
	"runtime"
	"testing"
)

// TestRecordHeapWithinCharge holds recordOverhead to what a record
// really costs: the heap that resident records keep alive is no more
// than the bytes they are charged against recordBudget. Each record has
// its own key and signer strings, as decoded pushes do. Excluded from
// -race builds, whose shadow memory inflates the heap.
func TestRecordHeapWithinCharge(t *testing.T) {
	const n = 20000
	signer := fmt.Sprintf("%064x", 1)
	e := NewEdge("edge-0", "http://self.invalid", "http://origin.invalid")
	before := liveHeap()
	var charged int64
	for i := 0; i < n; i++ {
		rd := Record{Key: fmt.Sprintf("%064x", i), Signer: string([]byte(signer)), Signatures: 1}
		charged += recordCharge(rd)
		if !e.storeRecord(nil, rd) {
			t.Fatalf("record %d refused", i)
		}
	}
	after := liveHeap()
	runtime.KeepAlive(e)
	ratio := float64(int64(after)-int64(before)) / float64(charged)
	t.Logf("%d records: retained %d B for %d B charged (%.2fx)", n, int64(after)-int64(before), charged, ratio)
	if ratio > 1.0 {
		t.Errorf("resident records retain %.2fx the bytes they are charged, want <= 1.0x", ratio)
	}
}

func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
