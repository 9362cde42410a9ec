package obs

import (
	"sync"
	"testing"
	"time"
)

// Edge cases of the latency histogram pinned separately from the happy
// path: empty snapshots, degenerate single-bucket distributions, the
// overflow bucket's quantile behavior, and concurrent record/merge.

func TestHistogramEmptySnapshotQuantiles(t *testing.T) {
	var s HistSnapshot
	for _, q := range []float64{0.0001, 0.5, 0.99, 0.999, 1} {
		if got := s.Quantile(q); got != 0 {
			t.Errorf("empty Quantile(%v) = %v, want 0", q, got)
		}
	}
	if s.P50() != 0 || s.P99() != 0 || s.P999() != 0 {
		t.Errorf("empty quantile helpers = %v/%v/%v, want zeros", s.P50(), s.P99(), s.P999())
	}
	if s.Mean() != 0 {
		t.Errorf("empty Mean = %v, want 0", s.Mean())
	}
}

func TestHistogramSingleBucket(t *testing.T) {
	var h Histogram
	const sample = 700 * time.Nanosecond // sub-bucket [688, 704) ns
	for i := 0; i < 1000; i++ {
		h.Record(sample)
	}
	s := h.Snapshot()
	if s.Count != 1000 {
		t.Fatalf("Count = %d, want 1000", s.Count)
	}
	// Every quantile short of the last rank must land on the one
	// populated bucket's midpoint — no quantile may wander into a
	// neighboring bucket.
	want := bucketMid(bucketOf(sample))
	if want != 696*time.Nanosecond {
		t.Fatalf("bucketMid = %v, want 696ns", want)
	}
	for _, q := range []float64{0.001, 0.5, 0.99, 0.999} {
		if got := s.Quantile(q); got != want {
			t.Errorf("single-bucket Quantile(%v) = %v, want %v", q, got, want)
		}
	}
	// The last rank is the recorded maximum, known exactly.
	if got := s.Quantile(1); got != sample {
		t.Errorf("single-bucket Quantile(1) = %v, want the exact maximum %v", got, sample)
	}
	if s.Mean() != sample {
		t.Errorf("Mean = %v, want exact %v", s.Mean(), sample)
	}
	if s.Max != sample {
		t.Errorf("Max = %v, want %v", s.Max, sample)
	}

	// Two samples in the bucket: the first rank reports the midpoint,
	// and every quantile whose nearest rank is the second reports the
	// exact maximum.
	var two Histogram
	two.Record(690 * time.Nanosecond)
	two.Record(sample)
	s = two.Snapshot()
	for _, c := range []struct {
		q    float64
		want time.Duration
	}{
		{0.001, want}, {0.5, want}, {0.74, want},
		{0.75, sample}, {0.99, sample}, {1, sample},
	} {
		if got := s.Quantile(c.q); got != c.want {
			t.Errorf("two-sample Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}

func TestHistogramOverflowBucketP999(t *testing.T) {
	var h Histogram
	// One fast sample, the tail deep in the overflow bucket: p999's
	// nearest rank lands in overflow, which must report the true
	// recorded maximum rather than a fake finite bucket bound.
	h.Record(time.Microsecond)
	worst := 9 * time.Hour
	for i := 0; i < 999; i++ {
		h.Record(worst - time.Duration(i)*time.Minute)
	}
	s := h.Snapshot()
	if got := s.P999(); got != worst {
		t.Errorf("overflow P999 = %v, want recorded max %v", got, worst)
	}
	if got := s.Quantile(1); got != worst {
		t.Errorf("overflow Quantile(1) = %v, want %v", got, worst)
	}
	// p50 still resolves to a finite bucket... unless the majority is
	// overflow, which it is here — it must also report Max, never a
	// bound beyond the last finite bucket.
	if got := s.P50(); got != worst {
		t.Errorf("overflow-majority P50 = %v, want %v", got, worst)
	}
}

// TestHistogramConcurrentRecordMerge exercises lock-free recording
// from many goroutines plus per-worker snapshot merging, the
// service-wide aggregation pattern — meaningful under -race. Both must
// equal one goroutine recording the same samples.
func TestHistogramConcurrentRecordMerge(t *testing.T) {
	const workers, perWorker = 8, 2000
	shared := &Histogram{}
	locals := make([]Histogram, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				d := time.Duration(w*perWorker+i+1) * time.Microsecond
				shared.Record(d)
				locals[w].Record(d)
			}
		}(w)
	}
	wg.Wait()

	var merged HistSnapshot
	for w := range locals {
		merged.Merge(locals[w].Snapshot())
	}
	got := shared.Snapshot()
	if merged.Count != got.Count || merged.Count != workers*perWorker {
		t.Fatalf("counts: merged %d, shared %d, want %d", merged.Count, got.Count, workers*perWorker)
	}
	if merged.Sum != got.Sum {
		t.Errorf("sums: merged %v != shared %v", merged.Sum, got.Sum)
	}
	if merged.Max != got.Max {
		t.Errorf("max: merged %v != shared %v", merged.Max, got.Max)
	}
	if merged.Counts != got.Counts {
		t.Errorf("bucket counts diverge between merged locals and the shared histogram")
	}
	var serial Histogram
	for i := 1; i <= workers*perWorker; i++ {
		serial.Record(time.Duration(i) * time.Microsecond)
	}
	if got != serial.Snapshot() {
		t.Errorf("concurrent recording diverges from one goroutine recording the same samples")
	}
}
