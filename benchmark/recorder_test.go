package main

import (
	"math"
	"sort"
	"sync"
	"testing"
	"time"

	"memsnap/internal/sim"
)

// logUniform draws durations spread evenly over the octaves from 50 ns
// to 2 s, so every bucket width is exercised.
func logUniform(rng *sim.RNG, n int) []time.Duration {
	out := make([]time.Duration, n)
	lo, hi := math.Log(50), math.Log(2e9)
	for i := range out {
		out[i] = time.Duration(math.Exp(lo + rng.Float64()*(hi-lo)))
	}
	return out
}

// TestHistQuantileError pins the reason obs.Histogram is not used: any
// quantile of the recorder is within 1% of the exact nearest-rank one.
func TestHistQuantileError(t *testing.T) {
	samples := logUniform(sim.NewRNG(7), 200000)
	var h hist
	for _, d := range samples {
		h.record(d)
	}
	sorted := append([]time.Duration(nil), samples...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	for _, q := range []float64{0.01, 0.25, 0.50, 0.90, 0.99, 0.999, 1} {
		rank := int(q*float64(len(sorted))+0.5) - 1
		exact := float64(sorted[max(rank, 0)])
		got := h.quantile(q)
		if rel := math.Abs(got-exact) / exact; rel > 0.01 {
			t.Errorf("q=%v: got %.0f ns, exact %.0f ns, relative error %.4f > 0.01", q, got, exact, rel)
		}
	}
	if got, want := h.max, int64(sorted[len(sorted)-1]); got != want {
		t.Errorf("max %d, want %d", got, want)
	}
}

// TestHistBuckets walks the bucket edges: indices never decrease, and
// the value a bucket reports is within 1/256 of anything recorded in
// it.
func TestHistBuckets(t *testing.T) {
	prev := 0
	for v := int64(0); v < 1<<histMaxBits; v += 1 + v/97 {
		i := bucketIndex(v)
		if i < prev || i >= histBuckets {
			t.Fatalf("value %d: bucket %d after %d", v, i, prev)
		}
		prev = i
		if v > 0 {
			if rel := math.Abs(float64(bucketMid(i)-v)) / float64(v); rel > 1.0/256 {
				t.Fatalf("value %d reports as %d: relative error %.5f", v, bucketMid(i), rel)
			}
		}
	}
	if i := bucketIndex(1 << 50); i != histBuckets-1 {
		t.Fatalf("out-of-range value lands in bucket %d, want the last", i)
	}
}

// TestHistMerge records from several goroutines into private
// recorders, merges them the way lanes do, and expects exactly the
// recorder a single goroutine would have produced.
func TestHistMerge(t *testing.T) {
	samples := logUniform(sim.NewRNG(11), 40000)
	var want hist
	for _, d := range samples {
		want.record(d)
	}
	var got hist
	var mu sync.Mutex
	var wg sync.WaitGroup
	const parts = 4
	for p := 0; p < parts; p++ {
		wg.Add(1)
		go func(mine []time.Duration) {
			defer wg.Done()
			var h hist
			for _, d := range mine {
				h.record(d)
			}
			mu.Lock()
			got.merge(&h)
			mu.Unlock()
		}(samples[p*len(samples)/parts : (p+1)*len(samples)/parts])
	}
	wg.Wait()
	if got != want {
		t.Fatalf("merged recorder differs: n %d vs %d, sum %d vs %d, max %d vs %d", got.n, want.n, got.sum, want.sum, got.max, want.max)
	}
}
