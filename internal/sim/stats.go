package sim

import (
	"sync"
	"time"
)

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
//
//lint:allow unreachable rockskv's flush and compaction test reads its counters
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
