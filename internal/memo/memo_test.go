package memo

import (
	"sync"
	"testing"
)

func TestGetPut(t *testing.T) {
	m := New[string, int](4)
	if _, ok := m.Get("a"); ok {
		t.Fatal("empty map reported a hit")
	}
	m.Put("a", 1)
	m.Put("a", 2)
	if v, ok := m.Get("a"); !ok || v != 2 {
		t.Fatalf("Get(a) = %d, %v; want 2, true", v, ok)
	}
	if n := m.Len(); n != 1 {
		t.Fatalf("Len = %d, want 1", n)
	}
	m.Reset()
	if n := m.Len(); n != 0 {
		t.Fatalf("Len after Reset = %d, want 0", n)
	}
}

func TestClearedAtLimit(t *testing.T) {
	const limit = 8
	m := New[int, int](limit)
	for i := 0; i < limit; i++ {
		m.Put(i, i)
	}
	if n := m.Len(); n != limit {
		t.Fatalf("Len = %d, want %d", n, limit)
	}
	// Overwriting a present key never clears.
	m.Put(3, 30)
	if n := m.Len(); n != limit {
		t.Fatalf("Len after overwrite = %d, want %d", n, limit)
	}
	m.Put(limit, limit)
	if n := m.Len(); n != 1 {
		t.Fatalf("Len after the limit+1st key = %d, want 1", n)
	}
	if v, ok := m.Get(limit); !ok || v != limit {
		t.Fatalf("Get(%d) = %d, %v after clearing", limit, v, ok)
	}
	for i := 0; i < 10*limit; i++ {
		m.Put(i, i)
		if n := m.Len(); n > limit {
			t.Fatalf("Len = %d, limit %d", n, limit)
		}
	}
}

func TestConcurrent(t *testing.T) {
	m := New[int, int](16)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				k := (g*7 + i) % 40
				if v, ok := m.Get(k); ok && v != k*k {
					t.Errorf("Get(%d) = %d, want %d", k, v, k*k)
					return
				}
				m.Put(k, k*k)
			}
		}()
	}
	wg.Wait()
	if n := m.Len(); n > 16 {
		t.Fatalf("Len = %d, limit 16", n)
	}
}
