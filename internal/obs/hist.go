package obs

import (
	"encoding/json"
	"math/bits"
	"sync/atomic"
	"time"
)

// HistBuckets is the number of octave buckets: the resolution of the
// Prometheus exposition. Octave 0 holds zero samples; octave i holds
// [2^(i-1), 2^i) nanoseconds; the last is the overflow (anything from
// 2^37 ns, about 2.3 virtual minutes, up).
const HistBuckets = 39

// Each octave is split into histSub linear sub-buckets, so a bucket is
// at most 1/histSub of its lower edge wide. Values below 2*histSub ns
// have a bucket each.
const (
	histSubBits = 5
	histSub     = 1 << histSubBits
	histFine    = (HistBuckets-1-histSubBits)*histSub + 1
)

// bucketOf maps a duration to its sub-bucket index.
func bucketOf(d time.Duration) int {
	if d <= 0 {
		return 0
	}
	n := bits.Len64(uint64(d))
	if n >= HistBuckets-1 {
		return histFine - 1
	}
	e := n - (histSubBits + 1)
	if e <= 0 {
		return int(d)
	}
	return e*histSub + int(d>>uint(e))
}

// octaveOf maps a sub-bucket index to the octave bucket it is part of.
func octaveOf(i int) int {
	switch {
	case i == histFine-1:
		return HistBuckets - 1
	case i < 2*histSub:
		return bits.Len64(uint64(i))
	}
	return i>>histSubBits + histSubBits
}

// bucketMid returns the midpoint of sub-bucket i, the value quantiles
// report for the samples in it.
func bucketMid(i int) time.Duration {
	e := i>>histSubBits - 1
	if e <= 0 {
		return time.Duration(i)
	}
	return time.Duration(i-e*histSub)<<uint(e) + time.Duration(1)<<uint(e-1)
}

// BucketUpper returns the exclusive upper bound of octave bucket i (the
// Prometheus le boundary). The last bucket has no finite bound.
func BucketUpper(i int) time.Duration { return time.Duration(int64(1) << uint(i)) }

// Histogram is an HDR-style log-linear latency histogram: histSub
// linear sub-buckets per octave, which bounds the relative error of a
// reported quantile by 1/(2*histSub) = 1.5625 % (the midpoint of a
// bucket at most 1/32 of its lower edge wide); values below 64 ns,
// Sum, Count and Max are exact. Record is lock-free (three atomic adds
// plus a CAS loop for the max) and allocation-free
// (TestHistogramRecordDoesNotAllocate), so hot paths
// record unconditionally; memory is fixed (about 8.3 KiB) however many
// samples arrive. Quantiles are computed from snapshots on the cold
// path. The zero value is ready to use.
type Histogram struct {
	counts [histFine]atomic.Int64
	sum    atomic.Int64 // nanoseconds
	count  atomic.Int64
	max    atomic.Int64
}

// Record adds one latency sample.
func (h *Histogram) Record(d time.Duration) {
	if h == nil {
		return
	}
	h.counts[bucketOf(d)].Add(1)
	h.sum.Add(int64(d))
	h.count.Add(1)
	for {
		cur := h.max.Load()
		if int64(d) <= cur || h.max.CompareAndSwap(cur, int64(d)) {
			return
		}
	}
}

// Snapshot copies the histogram into an immutable value. Buckets are
// read without a global lock, so a snapshot taken concurrently with
// recording is approximate (each counter individually consistent) —
// exact once recording has quiesced.
func (h *Histogram) Snapshot() HistSnapshot {
	var s HistSnapshot
	if h == nil {
		return s
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	s.Sum = time.Duration(h.sum.Load())
	s.Count = h.count.Load()
	s.Max = time.Duration(h.max.Load())
	return s
}

// HistSnapshot is a point-in-time copy of a Histogram: a plain value
// (fixed bucket array) that can ride inside stats structs without
// allocation.
type HistSnapshot struct {
	Counts [histFine]int64
	Sum    time.Duration
	Count  int64
	Max    time.Duration
}

// Merge folds other into s (for service-wide aggregation).
func (s *HistSnapshot) Merge(other HistSnapshot) {
	for i := range s.Counts {
		s.Counts[i] += other.Counts[i]
	}
	s.Sum += other.Sum
	s.Count += other.Count
	if other.Max > s.Max {
		s.Max = other.Max
	}
}

// Quantile returns the q-th quantile (0 < q <= 1) as the midpoint of
// the sub-bucket holding the nearest-rank sample, never above the
// recorded maximum: within 1.5625 % of the exact nearest-rank answer.
// When the nearest rank is the last sample the answer is exact: that
// sample is the recorded maximum. The overflow bucket also reports the
// maximum. Returns zero on an empty snapshot.
func (s HistSnapshot) Quantile(q float64) time.Duration {
	if s.Count == 0 {
		return 0
	}
	rank := int64(q*float64(s.Count) + 0.5)
	if rank >= s.Count {
		return s.Max
	}
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i := 0; i < histFine-1; i++ {
		cum += s.Counts[i]
		if cum >= rank {
			return min(bucketMid(i), s.Max)
		}
	}
	return s.Max
}

// P50 returns the median estimate.
func (s HistSnapshot) P50() time.Duration { return s.Quantile(0.50) }

// P99 returns the 99th percentile estimate.
func (s HistSnapshot) P99() time.Duration { return s.Quantile(0.99) }

// P999 returns the 99.9th percentile estimate.
func (s HistSnapshot) P999() time.Duration { return s.Quantile(0.999) }

// Mean returns the average sample.
func (s HistSnapshot) Mean() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / time.Duration(s.Count)
}

// MarshalJSON renders the snapshot compactly — count, sum, max and four
// quantiles in nanoseconds — so a stats struct carrying snapshots stays
// small in JSON; the bucket array is not emitted.
func (s HistSnapshot) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		Count int64         `json:"count"`
		Sum   time.Duration `json:"sum_nanos"`
		Max   time.Duration `json:"max_nanos"`
		P50   time.Duration `json:"p50_nanos"`
		P90   time.Duration `json:"p90_nanos"`
		P99   time.Duration `json:"p99_nanos"`
		P999  time.Duration `json:"p999_nanos"`
	}{s.Count, s.Sum, s.Max, s.P50(), s.Quantile(0.90), s.P99(), s.P999()})
}
