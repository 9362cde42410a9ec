package vm

import (
	"testing"

	"memsnap/internal/mem"
	"memsnap/internal/sim"
	"memsnap/internal/tlb"
)

// The three things a region access can cost the host: a translation
// the TLB holds, the first write to a clean tracked page, and a write
// to a page whose uCheckpoint is still in flight. Each runs over a
// resident working set on an 8-CPU machine with one thread, the shape
// of a shard worker. The hit and the tracking fault allocate nothing
// in steady state; the AllocsPerRun tests beside them gate that.

const (
	benchBase  = 0x7000_0000_0000
	benchPages = 1024
)

// benchSpace maps one tracked region and faults every page in through
// a thread on CPU 0, leaving the dirty set empty and every page
// write-protected.
type benchSpace struct {
	as   *AddressSpace
	th   *Thread
	recs []DirtyRecord
	vpns []uint64
	hold []*mem.Page
	next uint64
}

func newBenchSpace() *benchSpace {
	costs := sim.DefaultCosts()
	s := &benchSpace{as: NewAddressSpace(costs, mem.New(costs), tlb.NewSystem(costs, 8))}
	if err := s.as.Map(&Mapping{Name: "bench", Start: benchBase, Pages: benchPages, Tracked: true}); err != nil {
		panic(err)
	}
	s.th = s.as.NewThread(nil, 0)
	s.dirtyAll()
	s.reset(false)
	return s
}

// addr returns the next page address, cycling through the region.
func (s *benchSpace) addr() uint64 {
	s.next = (s.next + 1) % benchPages
	return benchBase + s.next*PageSize
}

func (s *benchSpace) dirtyAll() {
	for p := uint64(0); p < benchPages; p++ {
		s.th.PageForWrite(benchBase + p*PageSize)[0]++
	}
}

// reset does what Persist does to the dirty set: take it, write-protect
// it through the trace buffer and shoot the translations down. With
// inFlight the pages are marked checkpoint-in-progress first and stay
// so until retire.
func (s *benchSpace) reset(inFlight bool) {
	s.recs = s.th.TakeDirtyInto(nil, s.recs[:0])
	if inFlight {
		s.hold = s.as.MarkCheckpointPages(s.recs, s.hold[:0])
	}
	s.vpns = s.as.ResetProtectionsTraceInto(s.th.Clock(), s.recs, s.vpns[:0])
	s.as.tlbs.Invalidate(s.th.Clock(), s.vpns)
}

func (s *benchSpace) retire() {
	s.as.RetireCheckpointPages(s.hold)
	s.hold = s.hold[:0]
}

var benchSink *mem.Page

// translateHit returns a closure resolving one cached read translation
// per call.
func translateHit() func() {
	s := newBenchSpace()
	for p := uint64(0); p < benchPages; p++ {
		s.th.PageForRead(benchBase + p*PageSize)
	}
	return func() { benchSink = s.th.translate(s.addr(), false) }
}

func BenchmarkTranslateHit(b *testing.B) {
	op := translateHit()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}

func TestTranslateHitSteadyStateZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	if n := testing.AllocsPerRun(5000, translateHit()); n != 0 {
		t.Fatalf("a TLB hit allocates %v times per op, want 0", n)
	}
}

// BenchmarkWriteFault times the tracking fault alone: the first write
// to a clean, resident, tracked page. The protection reset that makes
// the pages clean again runs once per pass over the region with the
// timer stopped.
func BenchmarkWriteFault(b *testing.B) {
	s := newBenchSpace()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%benchPages == 0 && i > 0 {
			b.StopTimer()
			s.reset(false)
			b.StartTimer()
		}
		benchSink = s.th.translate(s.addr(), true)
	}
}

func TestWriteFaultSteadyStateZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	s := newBenchSpace()
	s.dirtyAll() // grow the trace buffer to its steady size
	s.reset(false)
	faults := 0
	n := testing.AllocsPerRun(4*benchPages, func() {
		if faults++; faults%benchPages == 0 {
			s.reset(false)
		}
		benchSink = s.th.translate(s.addr(), true)
	})
	if n != 0 {
		t.Fatalf("a tracking fault with its share of the reset allocates %v times per op, want 0", n)
	}
}

// BenchmarkCOWFault times the in-flight COW fault: a write to a page
// whose uCheckpoint has not retired. Once per pass over the region,
// with the timer stopped, the previous pass's checkpoint retires
// (returning the frames the pass displaced) and a new one is put in
// flight over every page.
func BenchmarkCOWFault(b *testing.B) {
	s := newBenchSpace()
	s.dirtyAll()
	s.reset(true)
	s.dirtyAll() // one untimed pass of COW faults: physical memory reaches its steady size
	warm := s.as.Stats().COWFaults
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%benchPages == 0 {
			b.StopTimer()
			s.retire()
			s.reset(true)
			b.StartTimer()
		}
		benchSink = s.th.translate(s.addr(), true)
	}
	b.StopTimer()
	if got := s.as.Stats().COWFaults - warm; got != int64(b.N) {
		b.Fatalf("%d COW faults in %d writes", got, b.N)
	}
}
