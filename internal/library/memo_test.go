package library_test

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"testing"

	"discsec/internal/library"
	"discsec/internal/obs"
	"discsec/internal/xmldom"
)

// domKey is the cache key through the tree: parse, then CanonicalKey.
func domKey(t testing.TB, raw []byte) string {
	t.Helper()
	doc, err := xmldom.ParseBytes(raw)
	if err != nil {
		t.Fatal(err)
	}
	key, err := library.CanonicalKey(doc, nil)
	if err != nil {
		t.Fatal(err)
	}
	return key
}

// corpusNames lists sampleDocs' names in a fixed order.
func corpusNames(docs map[string][]byte) []string {
	names := make([]string, 0, len(docs))
	for name := range docs {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// TestKeyMemoAgreesWithCanonicalKey: for every corpus document the key
// from a cold memo, the key from a warm memo and the key over the DOM
// are one string, and the warm call is a counted memo hit.
func TestKeyMemoAgreesWithCanonicalKey(t *testing.T) {
	docs := sampleDocs(t)
	for _, name := range corpusNames(docs) {
		raw := docs[name]
		library.ResetKeyMemo()
		rec := obs.NewRecorder()
		cold, err := library.KeyBytes(rec, raw)
		if err != nil {
			t.Fatalf("%s: cold: %v", name, err)
		}
		if got := library.KeyMemoLen(); got != 1 {
			t.Fatalf("%s: memo holds %d keys after one document, want 1", name, got)
		}
		warm, err := library.KeyBytes(rec, raw)
		if err != nil {
			t.Fatalf("%s: warm: %v", name, err)
		}
		if got := rec.Counter("library.key_memo_hit"); got != 1 {
			t.Errorf("%s: key_memo_hit = %d after one repeat, want 1", name, got)
		}
		f, err := library.ReadFront(rec, bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("%s: front: %v", name, err)
		}
		front := f.Key
		f.Release()
		want := domKey(t, raw)
		if cold != want || warm != want || front != want {
			t.Errorf("%s: cold %s, warm %s, front %s; CanonicalKey %s", name, cold, warm, front, want)
		}
	}
}

// signedCorpusDoc returns the small corpus document, which carries an
// enveloped ds:Signature as the root's last child.
func signedCorpusDoc(t testing.TB) []byte {
	t.Helper()
	raw := sampleDocs(t)["cluster-small"]
	if !bytes.Contains(raw, []byte("<ds:Signature ")) {
		t.Fatal("corpus document carries no ds:Signature")
	}
	return raw
}

// TestKeyMemoMissesWrappingMutations: with the original's key
// memoized, neither a one-digit change to a signed attribute nor a
// relocated ds:Signature is keyed like the original, cold or warm.
func TestKeyMemoMissesWrappingMutations(t *testing.T) {
	raw := signedCorpusDoc(t)

	digit := bytes.Clone(raw)
	at := bytes.Index(digit, []byte(` left="`))
	if at < 0 {
		t.Fatal("no left attribute to mutate")
	}
	at += len(` left="`)
	if digit[at] == '9' {
		digit[at] = '8'
	} else {
		digit[at]++
	}

	start := bytes.Index(raw, []byte("<ds:Signature "))
	end := bytes.Index(raw, []byte("</ds:Signature>")) + len("</ds:Signature>")
	sig := raw[start:end]
	rest := append(bytes.Clone(raw[:start]), raw[end:]...)
	open := bytes.Index(rest, []byte("<manifest "))
	if open < 0 {
		t.Fatal("no manifest element to move the signature into")
	}
	open += bytes.IndexByte(rest[open:], '>') + 1
	moved := append(append(bytes.Clone(rest[:open]), sig...), rest[open:]...)

	library.ResetKeyMemo()
	orig, err := library.KeyBytes(nil, raw)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		raw  []byte
	}{{"signed-attribute-digit", digit}, {"relocated-signature", moved}} {
		for _, phase := range []string{"cold", "warm"} {
			key, err := library.KeyBytes(nil, c.raw)
			if err != nil {
				t.Fatalf("%s %s: %v", c.name, phase, err)
			}
			if key == orig {
				t.Errorf("%s %s: keyed like the original", c.name, phase)
			}
			if want := domKey(t, c.raw); key != want {
				t.Errorf("%s %s: key %s, CanonicalKey %s", c.name, phase, key, want)
			}
		}
	}
}

// TestKeyMemoSerializationsShareKey: two serializations of one infoset,
// differing in attribute order and in-tag whitespace, are distinct
// memo entries that map to the same canonical key, cold and warm.
func TestKeyMemoSerializationsShareKey(t *testing.T) {
	a := []byte(`<m:app xmlns:m="urn:discsec:manifest" Id="app-1" kind="script"><m:code n="1">var x = 1;</m:code></m:app>`)
	b := []byte("<m:app   kind=\"script\"\n\tId=\"app-1\" xmlns:m=\"urn:discsec:manifest\" ><m:code n='1' >var x = 1;</m:code ></m:app>")
	library.ResetKeyMemo()
	var keys []string
	for _, phase := range []string{"cold", "warm"} {
		for _, raw := range [][]byte{a, b} {
			key, err := library.KeyBytes(nil, raw)
			if err != nil {
				t.Fatalf("%s: %v", phase, err)
			}
			keys = append(keys, key)
		}
	}
	for i, k := range keys {
		if k != keys[0] {
			t.Errorf("key %d = %s, want %s", i, k, keys[0])
		}
	}
	if got := library.KeyMemoLen(); got != 2 {
		t.Errorf("memo holds %d keys for two byte sequences, want 2", got)
	}
}

// TestKeyMemoStoresNoFailure: malformed bytes fail on every call and
// never enter the memo.
func TestKeyMemoStoresNoFailure(t *testing.T) {
	library.ResetKeyMemo()
	for _, raw := range [][]byte{[]byte("<a><b></a>"), []byte("<!DOCTYPE a><a/>"), nil} {
		for call := 1; call <= 2; call++ {
			if _, err := library.KeyBytes(nil, raw); err == nil {
				t.Errorf("%q call %d: accepted", raw, call)
			}
			if _, err := library.ReadFront(nil, bytes.NewReader(raw)); !errors.Is(err, library.ErrBadDocument) {
				t.Errorf("%q call %d: ReadFront err = %v, want ErrBadDocument", raw, call, err)
			}
		}
	}
	if got := library.KeyMemoLen(); got != 0 {
		t.Fatalf("memo holds %d keys after only failures, want 0", got)
	}
}

// TestKeyMemoBounded: however many distinct documents are keyed, the
// memo stays within its cap.
func TestKeyMemoBounded(t *testing.T) {
	library.ResetKeyMemo()
	for i := 0; i < library.KeyMemoCap+1000; i++ {
		if _, err := library.KeyBytes(nil, []byte(fmt.Sprintf(`<doc n="%d"/>`, i))); err != nil {
			t.Fatal(err)
		}
		if got := library.KeyMemoLen(); got > library.KeyMemoCap {
			t.Fatalf("document %d: memo holds %d keys, cap %d", i, got, library.KeyMemoCap)
		}
	}
}

// TestKeyMemoHitAllocatesNothing: a memo hit with a nil recorder
// returns the stored key without allocating.
func TestKeyMemoHitAllocatesNothing(t *testing.T) {
	raw := signedCorpusDoc(t)
	library.ResetKeyMemo()
	want, err := library.KeyBytes(nil, raw)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if key, err := library.KeyBytes(nil, raw); err != nil || key != want {
			t.Fatalf("hit: key %s, err %v; want %s", key, err, want)
		}
	})
	if allocs != 0 {
		t.Fatalf("memo hit allocates %.1f times, want 0", allocs)
	}
}

// TestKeyMemoConcurrent: goroutines keying a mixed set — corpus
// documents, small documents and malformed bytes — while the memo is
// reset underneath them all see the DOM's keys and the same failures.
func TestKeyMemoConcurrent(t *testing.T) {
	type item struct {
		raw []byte
		key string // "" marks malformed bytes
	}
	var items []item
	docs := sampleDocs(t)
	for _, name := range corpusNames(docs) {
		items = append(items, item{docs[name], domKey(t, docs[name])})
	}
	for i := 0; i < 4; i++ {
		raw := []byte(fmt.Sprintf(`<doc n="%d"><x/></doc>`, i))
		items = append(items, item{raw, domKey(t, raw)})
	}
	items = append(items, item{[]byte("<doc><x></doc>"), ""})

	library.ResetKeyMemo()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if g == 0 && i%10 == 9 {
					library.ResetKeyMemo()
				}
				it := items[(g+i)%len(items)]
				key, err := library.KeyBytes(nil, it.raw)
				switch {
				case it.key == "" && err == nil:
					t.Errorf("goroutine %d: malformed bytes accepted", g)
					return
				case it.key != "" && (err != nil || key != it.key):
					t.Errorf("goroutine %d: key %s, err %v; want %s", g, key, err, it.key)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestReadFrontLimit: a document of exactly the limit, or under the
// largest limit, is keyed; one byte more than the limit fails with
// ErrTooLarge, not ErrBadDocument, before keying.
func TestReadFrontLimit(t *testing.T) {
	raw := signedCorpusDoc(t)
	want := domKey(t, raw)
	limit := int64(len(raw))
	for _, lim := range []int64{limit, math.MaxInt64} {
		library.ResetKeyMemo()
		f, err := library.ReadFrontLimit(nil, bytes.NewReader(raw), lim)
		if err != nil {
			t.Fatalf("limit %d: %v", lim, err)
		}
		if f.Key != want || !bytes.Equal(f.Raw, raw) {
			t.Errorf("limit %d: key %s, %d bytes; want %s, %d bytes", lim, f.Key, len(f.Raw), want, len(raw))
		}
		f.Release()
	}

	library.ResetKeyMemo()
	over := append(bytes.Clone(raw), '\n')
	_, err := library.ReadFrontLimit(nil, bytes.NewReader(over), limit)
	if !errors.Is(err, library.ErrTooLarge) || errors.Is(err, library.ErrBadDocument) {
		t.Fatalf("one byte over the limit: err = %v, want ErrTooLarge and not ErrBadDocument", err)
	}
	if got := library.KeyMemoLen(); got != 0 {
		t.Errorf("an oversized document entered the memo (%d keys)", got)
	}
}
