package sim

import (
	"sync"
	"testing"
	"time"
)

func TestVLockSerializesVirtualTime(t *testing.T) {
	var l VLock
	a, b := NewClock(), NewClock()

	l.Lock(a)
	a.Advance(100 * time.Microsecond) // holder does work
	l.Unlock(a)

	l.Lock(b) // b arrives at virtual time 0
	if b.Now() < 100*time.Microsecond {
		t.Fatalf("waiter not advanced past holder's release: %v", b.Now())
	}
	l.Unlock(b)
}

func TestVLockNoBackwardsTime(t *testing.T) {
	var l VLock
	late := NewClock()
	late.AdvanceTo(time.Millisecond)
	l.Lock(late)
	l.Unlock(late)
	early := NewClock()
	early.AdvanceTo(2 * time.Millisecond)
	l.Lock(early)
	if early.Now() != 2*time.Millisecond {
		t.Fatalf("late arriver moved backwards: %v", early.Now())
	}
	l.Unlock(early)
	// freeAt must now reflect the later time.
	next := NewClock()
	l.Lock(next)
	if next.Now() != 2*time.Millisecond {
		t.Fatalf("freeAt = %v", next.Now())
	}
	l.Unlock(next)
}

func TestVLockNilClock(t *testing.T) {
	var l VLock
	l.Lock(nil)
	l.Unlock(nil)
}

func TestVLockConcurrent(t *testing.T) {
	var l VLock
	var wg sync.WaitGroup
	clocks := make([]*Clock, 8)
	for i := range clocks {
		clocks[i] = NewClock()
		wg.Add(1)
		go func(c *Clock) {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				l.Lock(c)
				c.Advance(time.Microsecond)
				l.Unlock(c)
			}
		}(clocks[i])
	}
	wg.Wait()
	// Total virtual work was 800 us serialized; the max clock must be
	// at least that.
	var max time.Duration
	for _, c := range clocks {
		if c.Now() > max {
			max = c.Now()
		}
	}
	if max < 800*time.Microsecond {
		t.Fatalf("serialized virtual time %v < 800us", max)
	}
}
