// Package tlb simulates per-CPU translation lookaside buffers and the
// inter-processor shootdown protocol MemSnap uses when resetting page
// protections after a uCheckpoint.
//
// MemSnap issues per-page shootdowns for small dirty sets and a full
// TLB invalidation for large ones; the crossover threshold lives in
// the cost model (TLBFlushThreshold).
package tlb

import (
	"math/bits"
	"sync"
	"sync/atomic"
	"time"

	"memsnap/internal/mem"
	"memsnap/internal/sim"
)

// Entry is one cached translation: the physical page (which carries
// its frame's bytes) and whether the translation permits writes.
type Entry struct {
	Page     *mem.Page
	Writable bool
}

// slot is one TLB way. Slots are numbered from 1; 0 means "none" in
// every link, and slots[0] is the sentinel of the FIFO ring
// (slots[0].next is the oldest entry, slots[0].prev the newest).
type slot struct {
	vpn   uint64
	entry Entry
	// prev and next thread the live slots in insertion order; on a
	// free slot next is the next free slot.
	prev, next int32
	// hnext chains the slots whose vpn hashes to the same bucket.
	hnext int32
}

// TLB is one CPU's translation cache, FIFO-replaced. It is safe for
// concurrent use (threads migrate between simulated CPUs and remote
// CPUs invalidate entries during shootdowns).
//
// The cache is a fixed array of slots threaded as a doubly linked
// FIFO list, plus a chained hash index from vpn to slot, so Lookup,
// Insert and InvalidatePage are O(1) and never allocate, and
// InvalidateAll costs the live entries, not the capacity.
type TLB struct {
	mu      sync.Mutex
	slots   []slot
	buckets []int32
	shift   uint
	free    int32

	// live is the number of cached translations. It changes under mu
	// and is read without it: a shootdown skips a TLB that holds
	// nothing.
	live atomic.Int32

	hits   int64
	misses int64
}

// DefaultCapacity is the number of 4 KiB translations a simulated
// CPU's TLB holds (1536 matches Skylake-SP's L2 STLB).
const DefaultCapacity = 1536

// New returns an empty TLB with the given capacity (DefaultCapacity if
// capacity <= 0).
func New(capacity int) *TLB {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	// At least two buckets per slot keeps the hash chains short.
	logBuckets := uint(bits.Len(uint(2*capacity - 1)))
	t := &TLB{
		slots:   make([]slot, capacity+1),
		buckets: make([]int32, 1<<logBuckets),
		shift:   64 - logBuckets,
	}
	for i := 1; i < capacity; i++ {
		t.slots[i].next = int32(i + 1)
	}
	t.free = 1
	return t
}

// bucket returns the hash bucket of vpn (Fibonacci hashing: region
// addresses differ mostly in their low bits).
func (t *TLB) bucket(vpn uint64) *int32 {
	return &t.buckets[(vpn*0x9E3779B97F4A7C15)>>t.shift]
}

// find returns the slot caching vpn, or 0.
func (t *TLB) find(vpn uint64) int32 {
	for i := *t.bucket(vpn); i != 0; i = t.slots[i].hnext {
		if t.slots[i].vpn == vpn {
			return i
		}
	}
	return 0
}

// Lookup returns the cached translation for vpn.
//
//memsnap:hotpath
func (t *TLB) Lookup(vpn uint64) (Entry, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if i := t.find(vpn); i != 0 {
		t.hits++
		return t.slots[i].entry, true
	}
	t.misses++
	return Entry{}, false
}

// Insert caches a translation, evicting FIFO if full. Re-inserting a
// cached vpn updates it in place and keeps its age.
//
//memsnap:hotpath
func (t *TLB) Insert(vpn uint64, e Entry) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if i := t.find(vpn); i != 0 {
		t.slots[i].entry = e
		return
	}
	i := t.free
	if i != 0 {
		t.free = t.slots[i].next
		t.live.Add(1)
	} else {
		i = t.slots[0].next // full: the oldest entry makes room
		t.unlink(i)
	}
	s := &t.slots[i]
	s.vpn, s.entry = vpn, e
	newest := t.slots[0].prev
	s.prev, s.next = newest, 0
	t.slots[newest].next = i
	t.slots[0].prev = i
	b := t.bucket(vpn)
	s.hnext = *b
	*b = i
}

// unlink takes live slot i out of the FIFO list and the hash index.
func (t *TLB) unlink(i int32) {
	s := &t.slots[i]
	t.slots[s.prev].next = s.next
	t.slots[s.next].prev = s.prev
	link := t.bucket(s.vpn)
	for *link != i {
		link = &t.slots[*link].hnext
	}
	*link = s.hnext
}

// InvalidatePage drops the translation for vpn, if cached.
//
//memsnap:hotpath
func (t *TLB) InvalidatePage(vpn uint64) {
	if t.live.Load() == 0 {
		return
	}
	t.mu.Lock()
	t.invalidateLocked(vpn)
	t.mu.Unlock()
}

// invalidateLocked is InvalidatePage with mu held.
func (t *TLB) invalidateLocked(vpn uint64) {
	i := t.find(vpn)
	if i == 0 {
		return
	}
	t.unlink(i)
	t.release(i)
	t.live.Add(-1)
}

// release puts an unlinked slot on the free list, dropping its page
// pointer so a retired page is not kept reachable from here.
func (t *TLB) release(i int32) {
	s := &t.slots[i]
	s.entry = Entry{}
	s.next = t.free
	t.free = i
}

// InvalidateAll empties the TLB.
func (t *TLB) InvalidateAll() {
	if t.live.Load() == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := t.slots[0].next; i != 0; {
		next := t.slots[i].next
		*t.bucket(t.slots[i].vpn) = 0
		t.release(i)
		i = next
	}
	t.slots[0].prev, t.slots[0].next = 0, 0
	t.live.Store(0)
}

// System models the TLBs of all CPUs in the machine plus the shootdown
// protocol between them.
type System struct {
	costs *sim.CostModel
	cpus  []*TLB
}

// NewSystem creates a system with ncpus TLBs.
func NewSystem(costs *sim.CostModel, ncpus int) *System {
	if costs == nil {
		costs = sim.DefaultCosts()
	}
	if ncpus <= 0 {
		ncpus = 1
	}
	s := &System{costs: costs}
	for i := 0; i < ncpus; i++ {
		s.cpus = append(s.cpus, New(0))
	}
	return s
}

// CPU returns the TLB of the given CPU.
func (s *System) CPU(i int) *TLB { return s.cpus[i%len(s.cpus)] }

// ShootdownPages invalidates the given pages on every CPU, charging
// the per-page IPI cost to clk. The initiating thread pays the cost;
// remote CPUs are interrupted for free in virtual time (their stall is
// folded into the per-page constant, as in the paper's model where the
// initiator waits for acknowledgements).
func (s *System) ShootdownPages(clk *sim.Clock, vpns []uint64) {
	if clk != nil {
		clk.Advance(s.costs.TLBShootdownPerPage * time.Duration(len(vpns)))
	}
	for _, t := range s.cpus {
		// A CPU that caches nothing cannot hold any of the pages:
		// skip it without taking its lock.
		if t.live.Load() == 0 {
			continue
		}
		t.mu.Lock()
		for _, vpn := range vpns {
			t.invalidateLocked(vpn)
		}
		t.mu.Unlock()
	}
}

// ShootdownPage is the single-page ShootdownPages: same IPI cost,
// no vpns slice — the allocation-free variant for per-page callers on
// the persist path.
func (s *System) ShootdownPage(clk *sim.Clock, vpn uint64) {
	if clk != nil {
		clk.Advance(s.costs.TLBShootdownPerPage)
	}
	for _, t := range s.cpus {
		t.InvalidatePage(vpn)
	}
}

// FullFlush invalidates every TLB in the system for a fixed cost.
func (s *System) FullFlush(clk *sim.Clock) {
	if clk != nil {
		clk.Advance(s.costs.TLBFullFlush)
	}
	for _, t := range s.cpus {
		t.InvalidateAll()
	}
}

// Invalidate picks the cheaper strategy for the given dirty set, the
// policy MemSnap applies after a uCheckpoint: per-page shootdowns
// below the threshold, a full flush at or above it.
func (s *System) Invalidate(clk *sim.Clock, vpns []uint64) {
	if len(vpns) < s.costs.TLBFlushThreshold {
		s.ShootdownPages(clk, vpns)
		return
	}
	s.FullFlush(clk)
}
