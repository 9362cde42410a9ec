package sim

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// LatencyRecorder keeps every latency sample and reports exact summary
// statistics: the recorder of the offline paper-table experiments, and
// the reference obs.Histogram is tested against. Its memory grows with
// every sample, so a serving path records into an obs.Histogram
// instead. It is safe for concurrent use.
type LatencyRecorder struct {
	mu      sync.Mutex
	samples []time.Duration
	sum     time.Duration
	max     time.Duration
}

// NewLatencyRecorder returns an empty recorder.
func NewLatencyRecorder() *LatencyRecorder { return &LatencyRecorder{} }

// Record adds one sample.
func (r *LatencyRecorder) Record(d time.Duration) {
	r.mu.Lock()
	r.samples = append(r.samples, d)
	r.sum += d
	if d > r.max {
		r.max = d
	}
	r.mu.Unlock()
}

// Count returns the number of samples.
func (r *LatencyRecorder) Count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.samples)
}

// Mean returns the average sample, or zero if empty.
func (r *LatencyRecorder) Mean() time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.samples) == 0 {
		return 0
	}
	return r.sum / time.Duration(len(r.samples))
}

// Max returns the largest sample.
func (r *LatencyRecorder) Max() time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.max
}

// Total returns the sum of all samples.
func (r *LatencyRecorder) Total() time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.sum
}

// Percentile returns the p-th percentile (0 < p <= 100) using
// nearest-rank on a sorted copy. Returns zero if empty.
func (r *LatencyRecorder) Percentile(p float64) time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := len(r.samples)
	if n == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), r.samples...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := int(p/100*float64(n)+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= n {
		idx = n - 1
	}
	return sorted[idx]
}

// Summary is a snapshot of a recorder's statistics.
type Summary struct {
	Count int
	Mean  time.Duration
	P50   time.Duration
	P99   time.Duration
	Max   time.Duration
	Total time.Duration
}

// Summarize computes all statistics in one pass over a single sorted
// copy. Only the copy is taken under the recorder's lock; the sort runs
// after it is released, so summarizing a long history does not stall
// Record.
func (r *LatencyRecorder) Summarize() Summary {
	r.mu.Lock()
	sorted := append([]time.Duration(nil), r.samples...)
	sum, longest := r.sum, r.max
	r.mu.Unlock()
	n := len(sorted)
	if n == 0 {
		return Summary{}
	}
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	rank := func(p float64) time.Duration {
		idx := int(p/100*float64(n)+0.5) - 1
		if idx < 0 {
			idx = 0
		}
		if idx >= n {
			idx = n - 1
		}
		return sorted[idx]
	}
	return Summary{
		Count: n,
		Mean:  sum / time.Duration(n),
		P50:   rank(50),
		P99:   rank(99),
		Max:   longest,
		Total: sum,
	}
}

// String renders the summary compactly.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%v p50=%v p99=%v max=%v", s.Count, s.Mean, s.P50, s.P99, s.Max)
}

// Counter is a concurrency-safe monotonically increasing counter used
// for operation and byte accounting throughout the simulation.
type Counter struct {
	mu sync.Mutex
	n  int64
}

// Add increments the counter by delta.
func (c *Counter) Add(delta int64) {
	c.mu.Lock()
	c.n += delta
	c.mu.Unlock()
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}

// TimeBuckets accumulates virtual CPU time into named buckets — the
// mechanism behind the paper's CPU-breakdown tables (Tables 1 and 8).
type TimeBuckets struct {
	mu      sync.Mutex
	buckets map[string]time.Duration
}

// NewTimeBuckets returns an empty accumulator.
func NewTimeBuckets() *TimeBuckets {
	return &TimeBuckets{buckets: make(map[string]time.Duration)}
}

// Add charges d to the named bucket.
func (t *TimeBuckets) Add(name string, d time.Duration) {
	t.mu.Lock()
	t.buckets[name] += d
	t.mu.Unlock()
}

// Get returns the accumulated time for name.
func (t *TimeBuckets) Get(name string) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.buckets[name]
}

// Total returns the sum across all buckets.
func (t *TimeBuckets) Total() time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var sum time.Duration
	for _, d := range t.buckets {
		sum += d
	}
	return sum
}

// Names returns the bucket names sorted alphabetically.
func (t *TimeBuckets) Names() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	names := make([]string, 0, len(t.buckets))
	for name := range t.buckets {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Fraction returns the share of the total time spent in name, in
// [0, 1]. Returns zero when the accumulator is empty.
func (t *TimeBuckets) Fraction(name string) float64 {
	total := t.Total()
	if total == 0 {
		return 0
	}
	return float64(t.Get(name)) / float64(total)
}
