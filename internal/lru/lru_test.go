package lru

import (
	"fmt"
	"slices"
	"testing"
)

func TestEvictsLeastRecentlyUsed(t *testing.T) {
	c := New[string, int](30)
	c.Put("a", 1, 10)
	c.Put("b", 2, 10)
	c.Put("c", 3, 10)
	if _, ok := c.Get("a"); !ok { // a is now the most recent
		t.Fatal("a missing before any eviction")
	}
	if n := c.Put("d", 4, 10); n != 1 {
		t.Fatalf("Put over budget evicted %d values, want 1", n)
	}
	if _, ok := c.Get("b"); ok {
		t.Error("b survived; it was the least recently used")
	}
	if got, want := c.Values(), []int{4, 1, 3}; !slices.Equal(got, want) {
		t.Errorf("Values = %v, want %v (most recent first)", got, want)
	}
	if c.Len() != 3 || c.Bytes() != 30 {
		t.Errorf("Len, Bytes = %d, %d; want 3, 30", c.Len(), c.Bytes())
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

// TestOversizeValueAdmittedAlone: a value larger than the budget
// evicts everything else but is itself kept.
func TestOversizeValueAdmittedAlone(t *testing.T) {
	c := New[string, int](10)
	c.Put("a", 1, 5)
	if n := c.Put("big", 2, 50); n != 1 {
		t.Errorf("oversize Put evicted %d values, want 1", n)
	}
	if v, ok := c.Get("big"); !ok || v != 2 {
		t.Errorf("oversize value not resident: %d, %v", v, ok)
	}
	if c.Len() != 1 {
		t.Errorf("Len = %d, want 1", c.Len())
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
		evicted += c.Put(fmt.Sprint(i), i, size)
		if c.Bytes() > budget {
			t.Fatalf("after %d puts: %d bytes resident, budget %d", i+1, c.Bytes(), budget)
		}
	}
	if want := budget / size; c.Len() != want || evicted != 10_000-want {
		t.Errorf("Len = %d, evicted %d; want %d resident", c.Len(), evicted, want)
	}
}
