package main

import (
	"math"
	"math/bits"
	"time"
)

// hist is a latency histogram of fixed size: one bucket per nanosecond
// below 256 ns, then 128 buckets per power of two, so a bucket spans
// less than 0.8 % of its values. Recording allocates nothing, so the
// benchmark's own memory does not grow with the number of opens it
// measures, however fast they are.
type hist struct {
	n      uint64
	counts [histBuckets]uint64
}

const (
	histSubBits = 7
	// histBits caps a recorded duration at 2^40 ns, about 18 minutes.
	histBits    = 40
	histMax     = 1<<histBits - 1
	histBuckets = (histBits - histSubBits + 1) << histSubBits
)

// bucket is d's bucket: its top eight bits, shifted by its magnitude.
func bucket(d time.Duration) int {
	v := uint64(max(0, min(d, time.Duration(histMax))))
	shift := max(0, bits.Len64(v)-histSubBits-1)
	return shift<<histSubBits + int(v>>shift)
}

// bucketRange is the first duration of bucket i and the bucket's width.
func bucketRange(i int) (lo, width float64) {
	if i < 2<<histSubBits {
		return float64(i), 1
	}
	shift := i>>histSubBits - 1
	m := i - shift<<histSubBits
	return float64(uint64(m) << shift), float64(uint64(1) << shift)
}

func (h *hist) add(d time.Duration) {
	h.counts[bucket(d)]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile is the nearest-rank quantile, placed within its bucket by its
// rank among the bucket's samples.
func (h *hist) quantile(q float64) time.Duration {
	if h.n == 0 {
		return 0
	}
	rank := max(1, min(uint64(math.Ceil(q*float64(h.n))), h.n))
	var seen uint64
	for i, c := range h.counts {
		if seen+c >= rank {
			lo, width := bucketRange(i)
			return time.Duration(lo + width*(float64(rank-seen)-0.5)/float64(c))
		}
		seen += c
	}
	return histMax
}
