// Package objstore implements MemSnap's copy-on-write object store
// (§3, "Persisting MemSnap Regions"): a key-value store of named
// objects whose block contents are indexed by COW radix trees. Every
// uCheckpoint commit writes data to freshly allocated space, rewrites
// the affected tree path below the top level bottom-up, and finally
// persists a checksummed commit record that carries the top level; the
// commit record write is ordered after the data write, so an
// interrupted commit is invisible after recovery.
//
// The store deliberately has no file API, no buffer cache and no
// POSIX semantics — it does direct IO against the disk array and
// optimizes for random 4 KiB writes, which it lays out sequentially.
package objstore

import (
	"fmt"
	"sort"
	"time"
)

// BlockSize is the store's allocation and IO unit.
const BlockSize = 4096

// allocator hands out 4 KiB blocks from the data area. Freed blocks
// enter a quarantine keyed by the virtual time at which the commit
// that freed them becomes durable; they are only reused by
// allocations that happen after that time. This preserves the
// previous epoch's blocks until the new epoch's commit record is
// durable, which is what makes torn commits recoverable.
type allocator struct {
	next  int64 // bump pointer (byte offset)
	limit int64 // end of the data area

	free       []int64 // reusable block offsets
	quarantine []quarantinedBlock
}

type quarantinedBlock struct {
	offset  int64
	release time.Duration
}

func newAllocator(start, limit int64) *allocator {
	return &allocator{next: start, limit: limit}
}

// alloc returns one block offset. It does not look at the quarantine:
// callers run releaseQuarantine once with the virtual time of the
// operation, then allocate all of its blocks.
func (a *allocator) alloc() (int64, error) {
	if a.freeBlocks() == 0 {
		return 0, fmt.Errorf("objstore: out of space (limit %d)", a.limit)
	}
	return a.take(), nil
}

// take is alloc for a caller that has checked the space with canAlloc.
func (a *allocator) take() int64 {
	if n := len(a.free); n > 0 {
		off := a.free[n-1]
		a.free = a.free[:n-1]
		return off
	}
	off := a.next
	a.next += BlockSize
	return off
}

// canAlloc reports whether n blocks can be allocated at virtual time
// at — from the free list, the bump space, or quarantine entries that
// have matured by at — without changing anything.
func (a *allocator) canAlloc(n int64, at time.Duration) bool {
	avail := a.freeBlocks()
	for _, q := range a.quarantine {
		if avail >= n {
			break
		}
		if q.release <= at {
			avail++
		}
	}
	return avail >= n
}

// freeAt queues blocks for reuse once the commit that freed them is
// durable at the given virtual time.
func (a *allocator) freeAt(offsets []int64, release time.Duration) {
	for _, off := range offsets {
		a.quarantine = append(a.quarantine, quarantinedBlock{offset: off, release: release})
	}
}

// releaseQuarantine moves blocks whose freeing commit is durable by
// virtual time at to the free list, in the order they were freed.
func (a *allocator) releaseQuarantine(at time.Duration) {
	kept := a.quarantine[:0]
	for _, q := range a.quarantine {
		if q.release <= at {
			a.free = append(a.free, q.offset)
		} else {
			kept = append(kept, q)
		}
	}
	a.quarantine = kept
}

// markUsed removes specific blocks from availability during recovery:
// the allocator is rebuilt by scanning live trees, so everything not
// marked is free.
type usedSet map[int64]bool

// rebuild resets the allocator from a used-block set: the bump pointer
// moves past the highest used block and every hole below it becomes
// free.
func (a *allocator) rebuild(start int64, used usedSet) {
	a.free = nil
	a.quarantine = nil
	high := start
	for off := range used {
		if off+BlockSize > high {
			high = off + BlockSize
		}
	}
	a.next = high
	var holes []int64
	for off := start; off < high; off += BlockSize {
		if !used[off] {
			holes = append(holes, off)
		}
	}
	sort.Slice(holes, func(i, j int) bool { return holes[i] > holes[j] })
	a.free = holes
}

// freeBlocks reports how many blocks are currently allocatable.
func (a *allocator) freeBlocks() int64 {
	return int64(len(a.free)) + (a.limit-a.next)/BlockSize
}
