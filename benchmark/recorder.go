package main

import (
	"math/bits"
	"time"
)

// hist is the benchmark's own latency recorder. obs.Histogram's pure
// log2 buckets make every quantile a power of two, so a change under
// 2x is invisible; this one splits each octave into 128 linear
// sub-buckets, which bounds the relative error of any reported
// quantile by 1/256 (a bucket is at most 1/128 of its lower edge wide
// and quantiles report the bucket midpoint). Values below 256 ns are
// exact. A hist belongs to one goroutine; goroutines merge theirs
// into a shared one under the owner's lock.
type hist struct {
	counts [histBuckets]uint64
	n      uint64
	sum    uint64 // nanoseconds
	max    int64
}

const (
	histSubBits = 7
	histSub     = 1 << histSubBits
	// histMaxBits caps the tracked range at 2^40 ns (about 18 minutes);
	// anything longer lands in the last bucket and still updates max.
	histMaxBits = 40
	histBuckets = (histMaxBits - histSubBits + 1) * histSub
)

// bucketIndex maps a nanosecond value to its bucket.
func bucketIndex(v int64) int {
	if v < 0 {
		v = 0
	}
	if v >= 1<<histMaxBits {
		return histBuckets - 1
	}
	e := bits.Len64(uint64(v)) - (histSubBits + 1)
	if e <= 0 {
		return int(v)
	}
	return e*histSub + int(v>>uint(e))
}

// bucketMid returns the midpoint of bucket i, the value quantiles
// report for samples in it.
func bucketMid(i int) int64 {
	e := i>>histSubBits - 1
	if e <= 0 {
		return int64(i)
	}
	lo := int64(i-e*histSub) << uint(e)
	return lo + int64(1)<<uint(e-1)
}

func (h *hist) record(d time.Duration) {
	v := int64(d)
	h.counts[bucketIndex(v)]++
	h.n++
	if v > 0 {
		h.sum += uint64(v)
	}
	if v > h.max {
		h.max = v
	}
}

func (h *hist) merge(o *hist) {
	if o.n == 0 {
		return
	}
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	h.sum += o.sum
	if o.max > h.max {
		h.max = o.max
	}
}

func (h *hist) reset() { *h = hist{} }

// quantile returns the q-th quantile (0 < q <= 1) by nearest rank, in
// nanoseconds; zero when empty. The result never exceeds the recorded
// maximum.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := uint64(q*float64(h.n) + 0.5)
	if rank < 1 {
		rank = 1
	}
	if rank > h.n {
		rank = h.n
	}
	var cum uint64
	for i, c := range h.counts {
		cum += c
		if cum >= rank {
			return float64(min(bucketMid(i), h.max))
		}
	}
	return float64(h.max)
}

func (h *hist) mean() float64 {
	if h.n == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.n)
}
