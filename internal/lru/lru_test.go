package lru

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"
	"strconv"
	"sync"
	"testing"
)

// newQuiet returns a cache whose sketch has room for 4 096 entries, so
// the few keys of a policy test never share all four counters and each
// estimate is the key's own count, whatever the seed.
func newQuiet(budget int64) *Cache[string, int] {
	c := New[string, int](budget)
	c.sketch.resize(1 << 12)
	return c
}

// TestWindowKeepsRecencyOrder pins the window: a small value enters it
// at the most recent end, Get moves it back there, and the least recent
// value is the one shed to main when the window overflows.
func TestWindowKeepsRecencyOrder(t *testing.T) {
	c := newQuiet(1000) // window share: 10 bytes
	for i, k := range []string{"a", "b", "c", "d", "e"} {
		c.Put(k, i, 2)
	}
	if _, ok := c.Get("a"); !ok { // a is now the window's most recent
		t.Fatal("a missing before any overflow")
	}
	if n, ok := c.Put("f", 5, 2); n != 0 || !ok {
		t.Fatalf("Put into a cache with room = %d, %v; want 0 evictions, admitted", n, ok)
	}
	// The window (10 bytes) sheds b, its least recent value, to main,
	// which has room.
	if got, want := c.Values(), []int{5, 0, 4, 3, 2, 1}; !slices.Equal(got, want) {
		t.Errorf("Values = %v, want %v (window most recent first, then main)", got, want)
	}
	if c.Len() != 6 || c.Bytes() != 12 {
		t.Errorf("Len, Bytes = %d, %d; want 6, 12", c.Len(), c.Bytes())
	}
}

// TestAdmissionByFrequency pins the admission rule: into a full main, a
// candidate is admitted only if its frequency is strictly above every
// victim's, and a refused candidate counts as one eviction.
func TestAdmissionByFrequency(t *testing.T) {
	c := newQuiet(100) // window 1 byte, main 99
	for i, k := range []string{"a", "b", "c"} {
		if n, ok := c.Put(k, i, 33); n != 0 || !ok {
			t.Fatalf("Put %s = %d, %v; want 0 evictions, admitted", k, n, ok)
		}
	}
	for _, k := range []string{"a", "b", "c"} { // main order: c b a
		c.Get(k)
	}
	// d was never read: frequency 0 against a's 1.
	if n, ok := c.Put("d", 3, 33); n != 1 || ok {
		t.Errorf("Put of an unread value into a full main = %d, %v; want 1 eviction (itself), refused", n, ok)
	}
	c.Get("d") // a miss, but it counts: d ties a at 1
	if n, ok := c.Put("d", 3, 33); n != 1 || ok {
		t.Errorf("Put of a value as frequent as the victim = %d, %v; want refused", n, ok)
	}
	c.Get("d")
	if n, ok := c.Put("d", 3, 33); n != 1 || !ok {
		t.Errorf("Put of a value more frequent than the victim = %d, %v; want 1 eviction, admitted", n, ok)
	}
	if _, ok := c.Peek("a"); ok {
		t.Error("a survived; it was main's least recent value and the least frequent")
	}
	if got, want := c.Values(), []int{3, 2, 1}; !slices.Equal(got, want) {
		t.Errorf("Values = %v, want %v", got, want)
	}
}

func TestReplaceRecharges(t *testing.T) {
	c := New[string, int](100)
	c.Put("a", 1, 40)
	c.Put("a", 2, 25)
	if v, _ := c.Get("a"); v != 2 {
		t.Errorf("Get = %d after replace, want 2", v)
	}
	if c.Len() != 1 || c.Bytes() != 25 {
		t.Errorf("Len, Bytes = %d, %d; want 1, 25", c.Len(), c.Bytes())
	}
}

// TestOversizeValueAdmittedAlone pins the oversize rule: a value larger
// than main's share enters an empty cache, and a non-empty one only if
// it is read more often than every resident value; it then displaces
// them all and is resident alone.
func TestOversizeValueAdmittedAlone(t *testing.T) {
	if n, ok := newQuiet(10).Put("big", 1, 50); n != 0 || !ok {
		t.Errorf("oversize Put into an empty cache = %d, %v; want admitted", n, ok)
	}
	c := newQuiet(10)
	c.Put("a", 1, 5)
	if n, ok := c.Put("big", 2, 50); n != 1 || ok {
		t.Errorf("oversize Put no more frequent than the resident = %d, %v; want refused", n, ok)
	}
	c.Get("big")
	if n, ok := c.Put("big", 2, 50); n != 1 || !ok {
		t.Errorf("oversize Put more frequent than the resident = %d, %v; want 1 eviction, admitted", n, ok)
	}
	if v, ok := c.Peek("big"); !ok || v != 2 || c.Len() != 1 || c.Bytes() != 50 {
		t.Errorf("oversize value: %d, %v; Len %d, Bytes %d; want it resident alone", v, ok, c.Len(), c.Bytes())
	}
	// While it is resident, a less frequent value cannot join it.
	if n, ok := c.Put("x", 3, 1); n != 1 || ok || c.Len() != 1 {
		t.Errorf("Put beside an oversize value = %d, %v, Len %d; want refused", n, ok, c.Len())
	}
}

func TestCompareAndDelete(t *testing.T) {
	c := New[string, int](100)
	c.Put("a", 1, 1)
	c.Put("a", 2, 1) // a newer value replaced the one a reader holds
	if c.CompareAndDelete("a", 1) {
		t.Error("deleted a value that had been replaced")
	}
	if !c.CompareAndDelete("a", 2) {
		t.Error("did not delete the resident value")
	}
	if c.Len() != 0 || c.Bytes() != 0 {
		t.Errorf("Len, Bytes = %d, %d after delete; want 0, 0", c.Len(), c.Bytes())
	}
	if c.CompareAndDelete("missing", 0) {
		t.Error("deleted a missing key")
	}
}

// TestBoundHoldsUnderDistinctKeys is the memory bound: any number of
// distinct keys leaves the cache within its budget.
func TestBoundHoldsUnderDistinctKeys(t *testing.T) {
	const budget, size = 1000, 7
	c := New[string, int](budget)
	evicted := 0
	for i := 0; i < 10_000; i++ {
		n, _ := c.Put(fmt.Sprint(i), i, size)
		evicted += n
		if c.Bytes() > budget {
			t.Fatalf("after %d puts: %d bytes resident, budget %d", i+1, c.Bytes(), budget)
		}
	}
	if want := budget / size; c.Len() != want || evicted != 10_000-want {
		t.Errorf("Len = %d, evicted %d; want %d resident", c.Len(), evicted, want)
	}
}

// TestScanKeepsHotSet: a hot set of half the budget, each key re-read
// once per cycle, stays resident through ten budgets' worth of distinct
// cold keys. Every key is used cache-aside: read, and stored after a
// miss. The hot keys have been read twice before the scan starts, the
// cold keys once when they are stored, so only the sketch's collisions
// (its seed is random) can cost a hot read; least-recently-used
// eviction loses the whole hot set to every cycle's scan.
func TestScanKeepsHotSet(t *testing.T) {
	const budget, cycles = 1000, 10
	c := New[string, int](budget)
	hot := make([]string, budget/2)
	open := func(k string, v int) bool {
		if got, ok := c.Get(k); ok {
			if got != v {
				t.Fatalf("Get(%s) = %d, want %d", k, got, v)
			}
			return true
		}
		c.Put(k, v, 1)
		return false
	}
	for i := range hot {
		hot[i] = fmt.Sprintf("hot-%d", i)
		open(hot[i], i)
	}
	for i := range hot {
		open(hot[i], i)
	}
	cold, hits, lastHits := 0, 0, 0
	for cycle := 0; cycle < cycles; cycle++ {
		lastHits = 0
		for i := 0; i < budget; i++ {
			cold++
			open(fmt.Sprintf("cold-%d", cold), -cold)
			if i%2 == 0 && open(hot[i/2], i/2) {
				lastHits++
			}
		}
		hits += lastHits
		if c.Bytes() > budget {
			t.Fatalf("cycle %d: %d bytes resident, budget %d", cycle, c.Bytes(), budget)
		}
	}
	// Measured over 40 seeds: at most 5 % of hot reads missed, and at
	// most 3 of 500 in the last cycle.
	if reads := cycles * len(hot); hits < reads*9/10 || lastHits < len(hot)*95/100 {
		t.Errorf("hot reads hit %d of %d, %d of %d in the last cycle, under a scan of %d cold keys", hits, reads, lastHits, len(hot), cold)
	}
}

// TestGetPeekAllocateNothing: a lookup, hit or miss, allocates nothing.
func TestGetPeekAllocateNothing(t *testing.T) {
	c := New[string, int](100)
	c.Put("resident", 1, 1)
	for _, k := range []string{"resident", "absent"} {
		if n := testing.AllocsPerRun(100, func() { c.Get(k) }); n != 0 {
			t.Errorf("Get(%q) allocated %v times per call", k, n)
		}
		if n := testing.AllocsPerRun(100, func() { c.Peek(k) }); n != 0 {
			t.Errorf("Peek(%q) allocated %v times per call", k, n)
		}
	}
}

// TestConcurrentUse drives every method from several goroutines at
// once; run it under -race.
func TestConcurrentUse(t *testing.T) {
	c := New[string, int](64)
	keys := make([]string, 100)
	for i := range keys {
		keys[i] = strconv.Itoa(i)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				j := (i * (g + 1)) % 100
				k := keys[j]
				if v, ok := c.Get(k); ok && v != j {
					t.Errorf("Get(%s) = %d", k, v)
				}
				c.Peek(k)
				c.Put(k, j, int64(j%7))
				if i%10 == 0 {
					c.CompareAndDelete(k, j)
				}
				if c.Bytes() > 64 && c.Len() != 1 {
					t.Errorf("%d values hold %d bytes", c.Len(), c.Bytes())
				}
			}
		}(g)
	}
	wg.Wait()
	if vals := c.Values(); len(vals) != c.Len() {
		t.Errorf("Values has %d values, Len %d", len(vals), c.Len())
	}
}

// fuzzVal is a fuzzed value: its key, its charge and which Put stored
// it, so a hit can be traced to the last Put of its key.
type fuzzVal struct {
	key  byte
	size int64
	seq  int
}

// FuzzCacheOps runs random Get, Peek, Put and CompareAndDelete
// sequences against a reference map of the last value put per key, and
// checks the cache's contract after every operation.
func FuzzCacheOps(f *testing.F) {
	f.Add([]byte{64, 2, 1, 10, 2, 2, 10, 0, 1, 0, 2, 3, 90, 3, 1, 0})
	f.Add([]byte{200, 2, 0, 150, 0, 0, 0, 2, 1, 5, 0, 0, 0, 2, 1, 5, 1, 1, 0})
	f.Add(binary.LittleEndian.AppendUint64([]byte{16}, 0x0203040506070809))
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) == 0 {
			return
		}
		budget := int64(ops[0]) + 1
		c := New[string, fuzzVal](budget)
		ref := map[byte]fuzzVal{} // the last value put under each key
		peak := 0
		for i, seq := 1, 0; i+2 < len(ops); i, seq = i+3, seq+1 {
			op, k, arg := ops[i]%4, ops[i+1]%32, ops[i+2]
			key := string([]byte{k})
			switch op {
			case 0, 1:
				get := c.Get
				if op == 1 {
					get = c.Peek
				}
				if v, ok := get(key); ok && v != ref[k] {
					t.Fatalf("op %d: hit on %d returned %+v, last put %+v", seq, k, v, ref[k])
				}
			case 2:
				v := fuzzVal{key: k, size: int64(arg) * budget / 128, seq: seq}
				ref[k] = v
				if _, ok := c.Put(key, v, v.size); ok {
					if got, hit := c.Peek(key); !hit || got != v {
						t.Fatalf("op %d: Put reported %d admitted, Peek = %+v, %v", seq, k, got, hit)
					}
				} else if _, hit := c.Peek(key); hit {
					t.Fatalf("op %d: Put reported %d refused, but it is resident", seq, k)
				}
			case 3:
				old := ref[k]
				if arg%2 == 1 {
					old.seq = -1 // a value never put
				}
				had, resident := c.Peek(key)
				if c.CompareAndDelete(key, old) != (resident && had == old) {
					t.Fatalf("op %d: CompareAndDelete(%d, %+v) disagrees with the resident %+v, %v", seq, k, old, had, resident)
				}
			}
			peak = max(peak, c.Len())
			checkInvariants(t, c, ref, budget, peak)
		}
	})
}

// checkInvariants holds Len, Bytes and Values to one another and to the
// reference, Bytes to the budget unless one value is resident, and the
// sketch to 2 bytes per entry, rounded up to a power of two, of the
// most entries ever resident, or its 512-byte floor.
func checkInvariants(t *testing.T, c *Cache[string, fuzzVal], ref map[byte]fuzzVal, budget int64, peak int) {
	t.Helper()
	vals := c.Values()
	var sum int64
	seen := map[byte]bool{}
	for _, v := range vals {
		if seen[v.key] || v != ref[v.key] {
			t.Fatalf("Values holds %+v; duplicate %v, last put %+v", v, seen[v.key], ref[v.key])
		}
		seen[v.key] = true
		sum += v.size
	}
	if len(vals) != c.Len() || sum != c.Bytes() {
		t.Fatalf("Values has %d values of %d bytes; Len %d, Bytes %d", len(vals), sum, c.Len(), c.Bytes())
	}
	if c.Bytes() > budget && c.Len() != 1 {
		t.Fatalf("%d values hold %d bytes over a %d-byte budget", c.Len(), c.Bytes(), budget)
	}
	c.mu.Lock()
	sk := c.sketch.bytes()
	c.mu.Unlock()
	if bound := max(8*minWords, 1<<bits.Len(uint(2*max(peak, 1)-1))); sk > bound {
		t.Fatalf("sketch holds %d bytes for at most %d entries, bound %d", sk, peak, bound)
	}
}
