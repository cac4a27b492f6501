package lru

import "math/bits"

// sketch is a count-min sketch of 4-bit counters, sixteen to a word and
// four per key, so 2 bytes per entry it is sized for. A key's counters
// are picked by double hashing from the two halves of its 64-bit hash.
type sketch struct {
	table    []uint64
	accesses int
	period   int
}

// minWords is the smallest table, 512 bytes: a small cache's few keys
// would otherwise share most of its counters, and a key read once would
// often look as frequent as one read every time.
const minWords = 64

// grows reports whether a table for n entries is larger than this one.
func (s *sketch) grows(n int) bool { return 4*len(s.table) < n }

// resize makes an empty table for n entries: the next power of two of
// n/4 words, and at least minWords.
func (s *sketch) resize(n int) {
	words := max(minWords, 1<<bits.Len(uint((n+3)/4-1)))
	s.table = make([]uint64, words)
	s.accesses, s.period = 0, agingFactor*4*words
}

// raise lifts the key's counters to at least f.
func (s *sketch) raise(h, f uint64) {
	for i := 0; i < 4; i++ {
		w, sh := s.counter(h, i)
		if (s.table[w]>>sh)&0xf < f {
			s.table[w] = s.table[w]&^(0xf<<sh) | f<<sh
		}
	}
}

// counter returns the word index and bit shift of the i-th counter of
// the key hashed to h.
func (s *sketch) counter(h uint64, i int) (int, uint) {
	lo, hi := uint32(h), uint32(h>>32)|1
	idx := int(lo+uint32(i)*hi) & (16*len(s.table) - 1)
	return idx >> 4, uint(idx&15) << 2
}

// increment counts one access of the key hashed to h; saturated
// counters stay at 15. Every period accesses it halves the table.
func (s *sketch) increment(h uint64) {
	f := s.estimate(h)
	if f < 0xf {
		for i := 0; i < 4; i++ {
			if w, sh := s.counter(h, i); (s.table[w]>>sh)&0xf == f {
				s.table[w] += 1 << sh
			}
		}
	}
	if s.accesses++; s.accesses >= s.period {
		s.accesses = 0
		for i, w := range s.table {
			s.table[i] = (w >> 1) & 0x7777777777777777
		}
	}
}

// estimate returns the key's least counter: never below its accesses
// since the table was last cleared or halved, in as many halvings.
func (s *sketch) estimate(h uint64) uint64 {
	f := uint64(0xf)
	for i := 0; i < 4; i++ {
		w, sh := s.counter(h, i)
		f = min(f, (s.table[w]>>sh)&0xf)
	}
	return f
}

// bytes reports the table's size.
func (s *sketch) bytes() int { return 8 * len(s.table) }
