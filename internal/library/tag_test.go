package library

import (
	"bytes"
	"crypto/rand"
	"fmt"
	"reflect"
	"testing"
)

// tagBase is a 96-byte (six-block) input with no two equal blocks.
func tagBase() []byte {
	b := make([]byte, 96)
	for i := range b {
		b[i] = byte(i*7 + 3)
	}
	return b
}

// flipBit returns a copy of b with bit 0 of b[i] flipped.
func flipBit(b []byte, i int) []byte {
	c := bytes.Clone(b)
	c[i] ^= 1
	return c
}

// TestMemoTagSeparatesMutations: every input of the mutation families
// a memo key must tell apart gets a distinct tag — one-bit flips in the
// first, a middle and the last block, a trailing zero byte appended or
// one byte truncated, two equal-length blocks swapped, the empty input,
// zero padding up to a block boundary, and a difference only past a
// 16-byte boundary — while equal bytes in different buffers get equal
// tags. Two independently keyed taggers disagree on the same input, so
// the key is not a constant.
func TestMemoTagSeparatesMutations(t *testing.T) {
	base := tagBase()
	swapped := bytes.Clone(base)
	copy(swapped[16:32], base[32:48])
	copy(swapped[32:48], base[16:32])
	short := []byte("0123456789")
	padded := append(bytes.Clone(short), make([]byte, 16-len(short))...)
	past := bytes.Clone(base[:40])
	past[35] ^= 0x80

	inputs := []struct {
		name string
		raw  []byte
	}{
		{"base", base},
		{"flip-first-block", flipBit(base, 0)},
		{"flip-middle-block", flipBit(base, 50)},
		{"flip-last-block", flipBit(base, len(base)-1)},
		{"zero-appended", append(bytes.Clone(base), 0)},
		{"truncated", base[:len(base)-1]},
		{"blocks-swapped", swapped},
		{"empty", nil},
		{"one-zero-byte", []byte{0}},
		{"short", short},
		{"short-zero-padded", padded},
		{"prefix-40", base[:40]},
		{"prefix-40-differs-past-block-2", past},
		{"prefix-32", base[:32]},
	}
	tg := newTagger()
	seen := make(map[rawTag]string, len(inputs))
	for _, in := range inputs {
		tag := tg.memoTag(in.raw)
		if prev, dup := seen[tag]; dup {
			t.Errorf("%s and %s share a tag", prev, in.name)
		}
		seen[tag] = in.name
		if again := tg.memoTag(bytes.Clone(in.raw)); again != tag {
			t.Errorf("%s: equal bytes in another buffer tag differently", in.name)
		}
	}

	other := newTagger()
	for _, in := range inputs {
		if tg.memoTag(in.raw) == other.memoTag(in.raw) {
			t.Errorf("%s: two independently keyed taggers give one tag", in.name)
		}
	}
}

// TestRawTagHasNoMethods: a tag of known bytes gives away part of the
// GHASH key, so the tag type offers no String, Format or MarshalText
// through which fmt, a logger or an encoder could print it.
func TestRawTagHasNoMethods(t *testing.T) {
	for _, typ := range []reflect.Type{reflect.TypeOf(rawTag{}), reflect.TypeOf(&rawTag{})} {
		if n := typ.NumMethod(); n != 0 {
			t.Errorf("%v has %d methods, want none", typ, n)
		}
	}
}

// FuzzMemoTagDifferential: two inputs get equal tags exactly when their
// bytes are equal, and a copy of an input tags like the original.
func FuzzMemoTagDifferential(f *testing.F) {
	base := tagBase()
	f.Add(base, flipBit(base, 50))
	f.Add(base, base[:len(base)-1])
	f.Add(base, append(bytes.Clone(base), 0))
	f.Add([]byte{}, []byte{0})
	f.Add([]byte("0123456789"), []byte("0123456789\x00\x00\x00\x00\x00\x00"))
	f.Add([]byte(`<r/>`), []byte(`<r/>`))
	f.Fuzz(func(t *testing.T, a, b []byte) {
		ta, tb := keyTagger.memoTag(a), keyTagger.memoTag(b)
		if (ta == tb) != bytes.Equal(a, b) {
			t.Fatalf("tag equality %v, byte equality %v: %q vs %q", ta == tb, bytes.Equal(a, b), a, b)
		}
		if keyTagger.memoTag(bytes.Clone(a)) != ta {
			t.Fatalf("a copy of %q tags differently", a)
		}
	})
}

// tagLengths are the input lengths the differential tag tests cover:
// every length up to 1 KiB, each 16- and 256-byte boundary ±1 up to
// 8 KiB, and 1 MiB + 15.
func tagLengths() []int {
	var ns []int
	for n := 0; n <= 1024; n++ {
		ns = append(ns, n)
	}
	for b := 1040; b <= 8<<10; b += 16 {
		ns = append(ns, b-1, b, b+1)
	}
	return append(ns, 1<<20+15)
}

// tagPaths are memoTag's two computations of one tag.
var tagPaths = []struct {
	name   string
	kernel bool
}{{"kernel", true}, {"seal", false}}

const noTagKernel = "this CPU lacks the GHASH kernel's instructions (AVX-512 F/BW/VL, VPCLMULQDQ, BMI2)"

// useTagPath runs the rest of the test with memoTag on the kernel or
// on Seal, and skips a kernel run on a CPU without the kernel.
func useTagPath(t testing.TB, kernel bool) {
	if kernel && !tagKernelCPU {
		t.Skip(noTagKernel)
	}
	prev := tagKernel
	tagKernel = kernel
	t.Cleanup(func() { tagKernel = prev })
}

// checkTagsMatchGCM: under 16 random keys, memoTag of every tagLengths
// prefix of random bytes equals the tag cipher.NewGCM's Seal gives.
func checkTagsMatchGCM(t *testing.T, kernel bool) {
	useTagPath(t, kernel)
	data := make([]byte, 1<<20+15)
	rand.Read(data)
	for k := 0; k < 16; k++ {
		tg := newTagger()
		var nonce [12]byte
		for _, n := range tagLengths() {
			if got, want := tg.memoTag(data[:n]), tg.aead.Seal(nil, nonce[:], nil, data[:n]); !bytes.Equal(got[:], want) {
				t.Fatalf("key %d, %d bytes: memoTag differs from Seal", k, n)
			}
		}
	}
}

// TestTagKernelMatchesGCM holds both of memoTag's paths to GCM's tag.
func TestTagKernelMatchesGCM(t *testing.T) {
	for _, path := range tagPaths {
		t.Run(path.name, func(t *testing.T) { checkTagsMatchGCM(t, path.kernel) })
	}
}

var tagSink rawTag

// BenchmarkMemoTag times one tag of random bytes on each of memoTag's
// paths, from a 256-byte document to 1 MiB; 20 KiB is lib-warm's mean
// document.
func BenchmarkMemoTag(b *testing.B) {
	for _, path := range tagPaths {
		for _, n := range []int{256, 4 << 10, 20 << 10, 64 << 10, 1 << 20} {
			b.Run(fmt.Sprintf("%s/%dB", path.name, n), func(b *testing.B) {
				useTagPath(b, path.kernel)
				raw := make([]byte, n)
				rand.Read(raw)
				b.SetBytes(int64(n))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					tagSink = keyTagger.memoTag(raw)
				}
			})
		}
	}
}

// FuzzTagKernelMatchesGCM: the GHASH kernel's tag of any input equals
// the tag cipher.NewGCM's Seal gives.
func FuzzTagKernelMatchesGCM(f *testing.F) {
	if !tagKernelCPU {
		f.Skip(noTagKernel)
	}
	f.Add([]byte{})
	f.Add(tagBase())
	f.Add(bytes.Repeat([]byte{0xa5}, 512+256+15))
	f.Fuzz(func(t *testing.T, raw []byte) {
		var got rawTag
		ghashTag(&keyTagger.key, raw, &got)
		var nonce [12]byte
		if want := keyTagger.aead.Seal(nil, nonce[:], nil, raw); !bytes.Equal(got[:], want) {
			t.Fatalf("%d bytes: the kernel's tag differs from Seal's", len(raw))
		}
	})
}
