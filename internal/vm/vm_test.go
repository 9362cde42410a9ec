package vm

import (
	"bytes"
	"testing"
	"testing/quick"

	"memsnap/internal/mem"
	"memsnap/internal/sim"
	"memsnap/internal/tlb"
)

func newAS() *AddressSpace {
	costs := sim.DefaultCosts()
	return NewAddressSpace(costs, mem.New(costs), tlb.NewSystem(costs, 2))
}

func mapRegion(t *testing.T, as *AddressSpace, name string, start, pages uint64, tracked bool) *Mapping {
	t.Helper()
	m := &Mapping{Name: name, Start: start, Pages: pages, Tracked: tracked}
	if err := as.Map(m); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestMapRejectsOverlapAndMisalignment(t *testing.T) {
	as := newAS()
	mapRegion(t, as, "a", 0x10000, 16, true)
	if err := as.Map(&Mapping{Name: "b", Start: 0x10000 + 8*PageSize, Pages: 16}); err == nil {
		t.Fatal("overlap accepted")
	}
	if err := as.Map(&Mapping{Name: "c", Start: 123, Pages: 1}); err == nil {
		t.Fatal("misaligned mapping accepted")
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	as := newAS()
	mapRegion(t, as, "r", 0x100000, 64, true)
	th := as.NewThread(nil, 0)
	data := []byte("hello fearless persistence")
	th.Write(0x100000+100, data)
	buf := make([]byte, len(data))
	th.Read(0x100000+100, buf)
	if !bytes.Equal(buf, data) {
		t.Fatalf("read back %q", buf)
	}
}

func TestWriteSpanningPages(t *testing.T) {
	as := newAS()
	mapRegion(t, as, "r", 0x100000, 4, true)
	th := as.NewThread(nil, 0)
	data := bytes.Repeat([]byte{0xCD}, 3*PageSize)
	th.Write(0x100000+PageSize/2, data)
	buf := make([]byte, len(data))
	th.Read(0x100000+PageSize/2, buf)
	if !bytes.Equal(buf, data) {
		t.Fatal("cross-page write corrupted")
	}
	if th.DirtyLen() != 4 {
		t.Fatalf("dirty pages = %d, want 4", th.DirtyLen())
	}
}

func TestTrackingFaultOncePerPage(t *testing.T) {
	as := newAS()
	mapRegion(t, as, "r", 0x100000, 8, true)
	th := as.NewThread(nil, 0)
	for i := 0; i < 100; i++ {
		th.Write(0x100000, []byte{byte(i)})
	}
	if got := as.Stats().TrackingFaults; got != 1 {
		t.Fatalf("tracking faults = %d, want 1", got)
	}
	if th.DirtyLen() != 1 {
		t.Fatalf("dirty len = %d", th.DirtyLen())
	}
}

func TestReadDoesNotTrack(t *testing.T) {
	as := newAS()
	mapRegion(t, as, "r", 0x100000, 8, true)
	th := as.NewThread(nil, 0)
	buf := make([]byte, 64)
	th.Read(0x100000, buf)
	th.Read(0x100000+PageSize, buf)
	if th.DirtyLen() != 0 {
		t.Fatalf("reads produced dirty pages: %d", th.DirtyLen())
	}
	if as.Stats().TrackingFaults != 0 {
		t.Fatal("reads caused tracking faults")
	}
}

func TestPerThreadDirtySets(t *testing.T) {
	as := newAS()
	mapRegion(t, as, "r", 0x100000, 16, true)
	t1 := as.NewThread(nil, 0)
	t2 := as.NewThread(nil, 1)
	t1.Write(0x100000, []byte{1})
	t1.Write(0x100000+PageSize, []byte{1})
	t2.Write(0x100000+2*PageSize, []byte{2})
	if t1.DirtyLen() != 2 || t2.DirtyLen() != 1 {
		t.Fatalf("dirty sets: t1=%d t2=%d", t1.DirtyLen(), t2.DirtyLen())
	}
	recs := t1.TakeDirty(nil)
	if len(recs) != 2 {
		t.Fatalf("TakeDirty = %d records", len(recs))
	}
	if t1.DirtyLen() != 0 || t2.DirtyLen() != 1 {
		t.Fatal("TakeDirty disturbed the other thread's set")
	}
}

func TestTakeDirtyFiltersByMapping(t *testing.T) {
	as := newAS()
	ma := mapRegion(t, as, "a", 0x100000, 8, true)
	mb := mapRegion(t, as, "b", 0x200000, 8, true)
	th := as.NewThread(nil, 0)
	th.Write(0x100000, []byte{1})
	th.Write(0x200000, []byte{2})
	got := th.TakeDirty(ma)
	if len(got) != 1 || got[0].Mapping != ma {
		t.Fatalf("filtered TakeDirty = %+v", got)
	}
	if th.DirtyLen() != 1 {
		t.Fatal("record for b lost")
	}
	rest := th.TakeDirty(mb)
	if len(rest) != 1 || rest[0].Mapping != mb {
		t.Fatalf("remaining records = %+v", rest)
	}
}

func TestProtectionResetRestartsTracking(t *testing.T) {
	as := newAS()
	mapRegion(t, as, "r", 0x100000, 8, true)
	th := as.NewThread(nil, 0)
	th.Write(0x100000, []byte{1})
	recs := th.TakeDirty(nil)
	vpns := as.ResetProtectionsTrace(th.Clock(), recs)
	as.tlbs.Invalidate(th.Clock(), vpns)
	// Next write to the same page must fault and re-track.
	th.Write(0x100000, []byte{2})
	if th.DirtyLen() != 1 {
		t.Fatalf("retracking failed: dirty=%d", th.DirtyLen())
	}
	if as.Stats().TrackingFaults != 2 {
		t.Fatalf("tracking faults = %d, want 2", as.Stats().TrackingFaults)
	}
}

func TestInFlightCOW(t *testing.T) {
	as := newAS()
	mapRegion(t, as, "r", 0x100000, 8, true)
	th := as.NewThread(nil, 0)
	th.Write(0x100000, []byte("original"))
	recs := th.TakeDirty(nil)

	hold := as.MarkCheckpointPages(recs, nil)
	vpns := as.ResetProtectionsTrace(th.Clock(), recs)
	as.tlbs.Invalidate(th.Clock(), vpns)
	snaps := as.SnapshotPagesInto(recs, nil)

	// A concurrent write during the in-flight window must not disturb
	// the snapshot.
	th.Write(0x100000, []byte("MUTATED!"))
	if as.Stats().COWFaults != 1 {
		t.Fatalf("COW faults = %d, want 1", as.Stats().COWFaults)
	}
	if string(snaps[0][:8]) != "original" {
		t.Fatalf("snapshot disturbed: %q", snaps[0][:8])
	}
	// The writer sees its own update.
	buf := make([]byte, 8)
	th.Read(0x100000, buf)
	if string(buf) != "MUTATED!" {
		t.Fatalf("writer lost its update: %q", buf)
	}
	as.RetireCheckpointPages(hold)

	// After release, writes to the (new) frame go down the cheap
	// tracking path again.
	recs2 := th.TakeDirty(nil)
	if len(recs2) != 1 {
		t.Fatalf("COW write not retracked: %d records", len(recs2))
	}
	if recs2[0].Page == recs[0].Page {
		t.Fatal("COW did not duplicate the frame")
	}
}

func TestWriteWithoutCheckpointNoCOW(t *testing.T) {
	as := newAS()
	mapRegion(t, as, "r", 0x100000, 8, true)
	th := as.NewThread(nil, 0)
	th.Write(0x100000, []byte{1})
	th.Write(0x100000+PageSize, []byte{1})
	if as.Stats().COWFaults != 0 {
		t.Fatal("COW fault without checkpoint in progress")
	}
}

func TestUntrackedMappingWritesFreely(t *testing.T) {
	as := newAS()
	mapRegion(t, as, "plain", 0x100000, 8, false)
	th := as.NewThread(nil, 0)
	th.Write(0x100000, []byte{1})
	if th.DirtyLen() != 0 {
		t.Fatal("untracked mapping produced dirty records")
	}
	if as.Stats().TrackingFaults != 0 {
		t.Fatal("untracked mapping took tracking fault")
	}
}

func TestSegfaultPanics(t *testing.T) {
	as := newAS()
	th := as.NewThread(nil, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("unmapped access did not panic")
		}
	}()
	th.Write(0xdead000, []byte{1})
}

func TestFaultCostsCharged(t *testing.T) {
	costs := sim.DefaultCosts()
	as := NewAddressSpace(costs, nil, nil)
	mapRegion(t, as, "r", 0x100000, 8, true)
	clk := sim.NewClock()
	th := as.NewThread(clk, 0)
	before := clk.Now()
	th.Write(0x100000, []byte{1})
	// page-in fault + tracking fault + alloc + memcpy must all be
	// charged.
	if clk.Now()-before < 2*costs.MinorFault {
		t.Fatalf("write charged only %v", clk.Now()-before)
	}
}

func TestBucketsAccounting(t *testing.T) {
	as := newAS()
	mapRegion(t, as, "r", 0x100000, 8, true)
	th := as.NewThread(nil, 0)
	th.Buckets = sim.NewTimeBuckets()
	th.Write(0x100000, []byte{1})
	if th.Buckets.Get("page faults") == 0 {
		t.Fatal("fault time not bucketed")
	}
}

// unmap removes a mapping and clears its PTEs and reverse mappings.
func unmap(as *AddressSpace, m *Mapping) {
	for i, other := range as.mappings {
		if other == m {
			as.mappings = append(as.mappings[:i], as.mappings[i+1:]...)
			break
		}
	}
	for vpn := m.Start / PageSize; vpn < m.Start/PageSize+m.Pages; vpn++ {
		if pte := as.table.Lookup(vpn); pte != nil && pte.Present {
			as.phys.Page(pte.Frame).RemoveMapping(as, vpn)
			pte.Present, pte.Writable, pte.Frame = false, false, mem.NoFrame
		}
	}
}

func TestUnmapClearsTranslations(t *testing.T) {
	as := newAS()
	m := mapRegion(t, as, "r", 0x100000, 4, true)
	th := as.NewThread(nil, 0)
	th.Write(0x100000, []byte{1})
	rec := th.TakeDirty(nil)[0]
	unmap(as, m)
	if as.findMappingLocked(0x100000) != nil {
		t.Fatal("mapping still found")
	}
	if rec.Page.RefCount() != 0 {
		t.Fatalf("refcount after unmap = %d", rec.Page.RefCount())
	}
}

func TestSharedMappingMultiprocess(t *testing.T) {
	// Two address spaces sharing a region's pages: the PostgreSQL
	// configuration. A persist by one process must reset protections
	// in both page tables (via reverse mappings).
	costs := sim.DefaultCosts()
	phys := mem.New(costs)
	tlbs := tlb.NewSystem(costs, 2)
	as1 := NewAddressSpace(costs, phys, tlbs)
	as2 := NewAddressSpace(costs, phys, tlbs)

	shared := make([]*mem.Page, 8)
	m1 := &Mapping{Name: "shm", Start: 0x100000, Pages: 8, Tracked: true, SharedPages: shared}
	m2 := &Mapping{Name: "shm", Start: 0x100000, Pages: 8, Tracked: true, SharedPages: shared}
	if err := as1.Map(m1); err != nil {
		t.Fatal(err)
	}
	if err := as2.Map(m2); err != nil {
		t.Fatal(err)
	}

	t1 := as1.NewThread(nil, 0)
	t2 := as2.NewThread(nil, 1)

	t1.Write(0x100000, []byte("from p1"))
	buf := make([]byte, 7)
	t2.Read(0x100000, buf)
	if string(buf) != "from p1" {
		t.Fatalf("shared memory not shared: %q", buf)
	}

	// Dirty the page from p2 as well so both page tables have
	// writable PTEs.
	t2.Write(0x100000, []byte("from p2"))

	recs := t1.TakeDirty(nil)
	vpns := as1.ResetProtectionsTrace(t1.Clock(), recs)
	as1.tlbs.Invalidate(t1.Clock(), vpns)

	// Both address spaces' PTEs must now be read-only.
	if as1.table.Lookup(0x100000 / PageSize).Writable {
		t.Fatal("as1 PTE still writable")
	}
	if as2.table.Lookup(0x100000 / PageSize).Writable {
		t.Fatal("as2 PTE still writable (reverse mapping not honored)")
	}
}

func TestResetStrategiesEquivalentProperty(t *testing.T) {
	// All three strategies must leave the same final PTE state.
	f := func(pageSel []uint8) bool {
		if len(pageSel) == 0 {
			return true
		}
		run := func(strategy int) []bool {
			as := newAS()
			m := &Mapping{Name: "r", Start: 0x100000, Pages: 256, Tracked: true}
			if err := as.Map(m); err != nil {
				return nil
			}
			th := as.NewThread(nil, 0)
			for _, s := range pageSel {
				th.Write(0x100000+uint64(s)*PageSize, []byte{s})
			}
			recs := th.TakeDirty(nil)
			switch strategy {
			case 0:
				as.ResetProtectionsTrace(th.Clock(), recs)
			case 1:
				as.ResetProtectionsWalk(th.Clock(), recs)
			case 2:
				as.ResetProtectionsScan(th.Clock(), m)
			}
			state := make([]bool, 256)
			for i := uint64(0); i < 256; i++ {
				pte := as.table.Lookup(0x100000/PageSize + i)
				state[i] = pte != nil && pte.Present && pte.Writable
			}
			return state
		}
		a, b, c := run(0), run(1), run(2)
		for i := range a {
			if a[i] != b[i] || b[i] != c[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestFigure1StrategyCosts(t *testing.T) {
	// For a small dirty set in a large mapping: trace < walk < scan.
	as := newAS()
	m := mapRegion(t, as, "big", 0x10000000, 1<<18, true) // 1 GiB
	th := as.NewThread(nil, 0)
	for i := 0; i < 16; i++ {
		th.Write(0x10000000+uint64(i*997*PageSize), []byte{1})
	}
	recs := th.TakeDirty(nil)

	traceClk, walkClk, scanClk := sim.NewClock(), sim.NewClock(), sim.NewClock()
	as.ResetProtectionsTrace(traceClk, recs)
	as.ResetProtectionsWalk(walkClk, recs)
	as.ResetProtectionsScan(scanClk, m)

	if !(traceClk.Now() < walkClk.Now() && walkClk.Now() < scanClk.Now()) {
		t.Fatalf("figure 1 ordering violated: trace=%v walk=%v scan=%v",
			traceClk.Now(), walkClk.Now(), scanClk.Now())
	}
}

func TestPageForWriteTracksAndAliases(t *testing.T) {
	as := newAS()
	mapRegion(t, as, "r", 0x100000, 4, true)
	th := as.NewThread(nil, 0)
	pg := th.PageForWrite(0x100000 + PageSize)
	pg[0] = 0x42
	if th.DirtyLen() != 1 {
		t.Fatal("PageForWrite did not track")
	}
	buf := make([]byte, 1)
	th.Read(0x100000+PageSize, buf)
	if buf[0] != 0x42 {
		t.Fatal("PageForWrite slice does not alias the frame")
	}
}

// TestCOWInvalidatesRemoteTLB pins the in-flight COW's shootdown: a
// second thread of the same address space, on another CPU, that cached
// the page's translation before the writer's COW must read the
// duplicate afterwards — not the displaced frame, which the writer no
// longer updates and which returns to the allocator when the
// checkpoint retires.
func TestCOWInvalidatesRemoteTLB(t *testing.T) {
	as := newAS()
	mapRegion(t, as, "r", 0x100000, 8, true)
	writer := as.NewThread(nil, 0)
	reader := as.NewThread(nil, 1)
	buf := make([]byte, 8)

	writer.Write(0x100000, []byte("original"))
	recs := writer.TakeDirty(nil)
	hold := as.MarkCheckpointPages(recs, nil)
	vpns := as.ResetProtectionsTrace(writer.Clock(), recs)
	as.tlbs.Invalidate(writer.Clock(), vpns)

	// The reader caches the read-only translation of the frame under
	// checkpoint on its own CPU.
	reader.Read(0x100000, buf)
	if string(buf) != "original" {
		t.Fatalf("reader sees %q before the COW", buf)
	}
	if _, cached := as.tlbs.CPU(1).Lookup(0x100000 / PageSize); !cached {
		t.Fatal("reader's CPU did not cache the translation")
	}

	writer.Write(0x100000, []byte("MUTATED!"))
	if as.Stats().COWFaults != 1 {
		t.Fatalf("COW faults = %d, want 1", as.Stats().COWFaults)
	}
	reader.Read(0x100000, buf)
	if string(buf) != "MUTATED!" {
		t.Fatalf("reader on another CPU still reads the displaced frame: %q", buf)
	}

	// Retiring the checkpoint frees the displaced frame; whoever gets
	// it next must not show through the reader's translation.
	as.RetireCheckpointPages(hold)
	if free := as.phys.Stats().FreeFrames; free != 1 {
		t.Fatalf("free frames after retire = %d, want 1", free)
	}
	writer.Write(0x100000+PageSize, []byte("neighbor")) // pages in on the freed frame
	reader.Read(0x100000, buf)
	if string(buf) != "MUTATED!" {
		t.Fatalf("reader reads a recycled frame: %q", buf)
	}
}

// TestCOWFrameReturnedPrivateMapping is the frame-return check for a
// mapping without SharedPages: a checkpoint, a write that COWs under
// it and a retire, over and over, must leave physical memory the size
// it reached after the first round.
func TestCOWFrameReturnedPrivateMapping(t *testing.T) {
	as := newAS()
	mapRegion(t, as, "r", 0x100000, 4, true)
	th := as.NewThread(nil, 0)
	th.Write(0x100000, []byte{0})
	var after1 int
	for round := 1; round <= 2000; round++ {
		recs := th.TakeDirty(nil)
		hold := as.MarkCheckpointPages(recs, nil)
		as.tlbs.Invalidate(nil, as.ResetProtectionsTrace(nil, recs))
		th.Write(0x100000, []byte{byte(round)})
		as.RetireCheckpointPages(hold)
		st := as.phys.Stats()
		if round == 1 {
			after1 = st.TotalFrames
		} else if st.TotalFrames != after1 {
			t.Fatalf("round %d: %d frames, %d after the first round", round, st.TotalFrames, after1)
		}
		if live := st.TotalFrames - st.FreeFrames; live != 1 {
			t.Fatalf("round %d: %d live frames for one mapped page", round, live)
		}
	}
	if got := as.Stats().COWFaults; got != 2000 {
		t.Fatalf("COW faults = %d, want 2000", got)
	}
	buf := make([]byte, 1)
	th.Read(0x100000, buf)
	if buf[0] != byte(2000%256) {
		t.Fatalf("contents lost: %d", buf[0])
	}
}
