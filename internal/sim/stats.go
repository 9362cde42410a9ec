package sim

import (
	"sync"
	"time"
)

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
