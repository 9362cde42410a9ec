// Package sim provides the simulation substrate shared by every other
// package in this repository: virtual clocks, a calibrated cost model,
// deterministic random number generation, and latency statistics.
//
// MemSnap is a kernel system whose evaluation reports CPU time and IO
// latency measured on specific hardware. This reproduction replaces
// wall-clock time with virtual time: every simulated component charges
// its cost (a Duration from the CostModel) to the Clock of the thread
// performing the operation. Virtual time makes every experiment
// deterministic and machine independent while preserving the relative
// costs the paper's tables report.
package sim

import (
	"fmt"
	"sync/atomic"
	"time"
)

// Clock is a virtual clock owned by one simulated thread. It only moves
// forward. Clocks are cheap; create one per worker. A Clock must not be
// shared between goroutines without external synchronization — the one
// exception is Now/AdvanceTo via the atomic value, which supports the
// device-arbitration pattern used by disk queues.
type Clock struct {
	now atomic.Int64 // virtual nanoseconds since simulation start
}

// NewClock returns a clock positioned at virtual time zero.
func NewClock() *Clock { return &Clock{} }

// Now returns the current virtual time.
func (c *Clock) Now() time.Duration { return time.Duration(c.now.Load()) }

// Advance moves the clock forward by d and returns the new time.
// Negative durations are ignored so call sites can pass computed deltas
// without guarding.
func (c *Clock) Advance(d time.Duration) time.Duration {
	if d < 0 {
		d = 0
	}
	return time.Duration(c.now.Add(int64(d)))
}

// AdvanceTo moves the clock forward to t if t is later than the current
// time. It returns the resulting time. Used when an operation completes
// at an absolute simulated instant (e.g. an IO completion computed by a
// device queue).
func (c *Clock) AdvanceTo(t time.Duration) time.Duration {
	for {
		cur := c.now.Load()
		if int64(t) <= cur {
			return time.Duration(cur)
		}
		if c.now.CompareAndSwap(cur, int64(t)) {
			return t
		}
	}
}

// String implements fmt.Stringer.
func (c *Clock) String() string {
	return fmt.Sprintf("vclock(%v)", c.Now())
}
