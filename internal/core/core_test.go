package core

import (
	"bytes"
	"testing"
	"time"

	"memsnap/internal/sim"
)

func newSys(t *testing.T) *System {
	t.Helper()
	sys, err := NewSystem(Options{})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestOpenPersistRecover(t *testing.T) {
	sys := newSys(t)
	p := sys.NewProcess()
	ctx := p.NewContext(0)
	r, err := p.Open(ctx, "data", 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	ctx.WriteAt(r, 0, []byte("hello"))
	ctx.WriteAt(r, 123456, []byte("world"))
	epoch, err := ctx.Persist(r, MSSync)
	if err != nil {
		t.Fatal(err)
	}
	if epoch == 0 {
		t.Fatal("persist returned zero epoch for non-empty dirty set")
	}

	// Crash: power cut strictly after durability, then reboot.
	sys.Array().CutPower(ctx.Clock().Now(), sim.NewRNG(1))
	sys2, at, err := Recover(Options{}, sys.Array(), ctx.Clock().Now())
	if err != nil {
		t.Fatal(err)
	}
	p2 := sys2.NewProcess()
	ctx2 := p2.NewContext(0)
	ctx2.Clock().AdvanceTo(at)
	r2, err := p2.Open(ctx2, "data", 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Addr() != r.Addr() {
		t.Fatalf("region address changed across reboot: %#x vs %#x", r2.Addr(), r.Addr())
	}
	buf := make([]byte, 5)
	ctx2.ReadAt(r2, 0, buf)
	if string(buf) != "hello" {
		t.Fatalf("block 0 = %q", buf)
	}
	ctx2.ReadAt(r2, 123456, buf)
	if string(buf) != "world" {
		t.Fatalf("offset 123456 = %q", buf)
	}
}

func TestUnpersistedChangesLostOnCrash(t *testing.T) {
	sys := newSys(t)
	p := sys.NewProcess()
	ctx := p.NewContext(0)
	r, _ := p.Open(ctx, "data", 1<<20)
	ctx.WriteAt(r, 0, []byte("durable"))
	ctx.Persist(r, MSSync)
	ctx.WriteAt(r, 0, []byte("LOSTLOS"))
	// no persist — crash
	sys.Array().CutPower(ctx.Clock().Now(), sim.NewRNG(2))
	sys2, at, _ := Recover(Options{}, sys.Array(), ctx.Clock().Now())
	p2 := sys2.NewProcess()
	ctx2 := p2.NewContext(0)
	ctx2.Clock().AdvanceTo(at)
	r2, _ := p2.Open(ctx2, "data", 1<<20)
	buf := make([]byte, 7)
	ctx2.ReadAt(r2, 0, buf)
	if string(buf) != "durable" {
		t.Fatalf("recovered %q, want pre-crash committed state", buf)
	}
}

func TestPerThreadDirtySetIsolation(t *testing.T) {
	sys := newSys(t)
	p := sys.NewProcess()
	ctxA := p.NewContext(0)
	ctxB := p.NewContext(1)
	r, _ := p.Open(ctxA, "data", 1<<20)

	ctxA.WriteAt(r, 0, []byte("AAAA"))
	ctxB.WriteAt(r, 8192, []byte("BBBB"))

	// A persists: only A's page is included; B's stays dirty.
	if _, err := ctxA.Persist(r, MSSync); err != nil {
		t.Fatal(err)
	}
	if ctxB.DirtyPages() != 1 {
		t.Fatalf("B's dirty set disturbed: %d", ctxB.DirtyPages())
	}

	// Crash now: A's data durable, B's lost.
	sys.Array().CutPower(ctxA.Clock().Now(), sim.NewRNG(3))
	sys2, at, _ := Recover(Options{}, sys.Array(), ctxA.Clock().Now())
	p2 := sys2.NewProcess()
	ctx2 := p2.NewContext(0)
	ctx2.Clock().AdvanceTo(at)
	r2, _ := p2.Open(ctx2, "data", 1<<20)
	buf := make([]byte, 4)
	ctx2.ReadAt(r2, 0, buf)
	if string(buf) != "AAAA" {
		t.Fatalf("A's committed data lost: %q", buf)
	}
	ctx2.ReadAt(r2, 8192, buf)
	if string(buf) == "BBBB" {
		t.Fatal("B's uncommitted data persisted by A's uCheckpoint")
	}
}

func TestMSGlobalPersistsAllThreads(t *testing.T) {
	sys := newSys(t)
	p := sys.NewProcess()
	ctxA := p.NewContext(0)
	ctxB := p.NewContext(1)
	r, _ := p.Open(ctxA, "data", 1<<20)
	ctxA.WriteAt(r, 0, []byte("AAAA"))
	ctxB.WriteAt(r, 8192, []byte("BBBB"))
	if _, err := ctxA.Persist(r, MSSync|MSGlobal); err != nil {
		t.Fatal(err)
	}
	if ctxB.DirtyPages() != 0 {
		t.Fatal("MSGlobal did not drain other thread's dirty set")
	}
	if ctxA.LastBreakdown.Pages != 2 {
		t.Fatalf("global checkpoint pages = %d", ctxA.LastBreakdown.Pages)
	}
}

func TestAsyncPersistAndWait(t *testing.T) {
	sys := newSys(t)
	p := sys.NewProcess()
	ctx := p.NewContext(0)
	r, _ := p.Open(ctx, "data", 1<<20)
	ctx.WriteAt(r, 0, bytes.Repeat([]byte{1}, 64<<10))

	epoch, err := ctx.Persist(r, MSAsync)
	if err != nil {
		t.Fatal(err)
	}
	asyncLat := ctx.LastBreakdown.Total
	if ctx.OutstandingCheckpoints() == 0 {
		t.Fatal("async persist left nothing outstanding")
	}
	before := ctx.Clock().Now()
	ctx.Wait(r, epoch)
	if ctx.Clock().Now() <= before {
		t.Fatal("Wait did not advance to IO completion")
	}
	if ctx.OutstandingCheckpoints() != 0 {
		t.Fatal("Wait left checkpoints outstanding")
	}

	// Async return latency must be far below sync latency (Table 6:
	// 6 us vs 50 us at 64 KiB).
	ctx.WriteAt(r, 0, bytes.Repeat([]byte{2}, 64<<10))
	ctx.Persist(r, MSSync)
	syncLat := ctx.LastBreakdown.Total
	if asyncLat*3 > syncLat {
		t.Fatalf("async %v not clearly cheaper than sync %v", asyncLat, syncLat)
	}
}

func TestSyncAsyncConflict(t *testing.T) {
	sys := newSys(t)
	p := sys.NewProcess()
	ctx := p.NewContext(0)
	if _, err := ctx.Persist(nil, MSSync|MSAsync); err == nil {
		t.Fatal("conflicting flags accepted")
	}
}

func TestEmptyPersist(t *testing.T) {
	sys := newSys(t)
	p := sys.NewProcess()
	ctx := p.NewContext(0)
	r, _ := p.Open(ctx, "data", 1<<20)
	epoch, err := ctx.Persist(r, MSSync)
	if err != nil || epoch != 0 {
		t.Fatalf("empty persist: epoch=%d err=%v", epoch, err)
	}
}

func TestPersistAllRegions(t *testing.T) {
	sys := newSys(t)
	p := sys.NewProcess()
	ctx := p.NewContext(0)
	ra, _ := p.Open(ctx, "a", 1<<20)
	rb, _ := p.Open(ctx, "b", 1<<20)
	ctx.WriteAt(ra, 0, []byte("aa"))
	ctx.WriteAt(rb, 0, []byte("bb"))
	if _, err := ctx.Persist(nil, MSSync); err != nil {
		t.Fatal(err)
	}
	if ctx.DirtyPages() != 0 {
		t.Fatal("persist(nil) left dirty pages")
	}
	if ra.Epoch() != 1 || rb.Epoch() != 1 {
		t.Fatalf("epochs: a=%d b=%d", ra.Epoch(), rb.Epoch())
	}
}

func TestPersistRegionFilter(t *testing.T) {
	sys := newSys(t)
	p := sys.NewProcess()
	ctx := p.NewContext(0)
	ra, _ := p.Open(ctx, "a", 1<<20)
	rb, _ := p.Open(ctx, "b", 1<<20)
	ctx.WriteAt(ra, 0, []byte("aa"))
	ctx.WriteAt(rb, 0, []byte("bb"))
	ctx.Persist(ra, MSSync)
	if ctx.DirtyPages() != 1 {
		t.Fatalf("region filter broke: %d dirty left", ctx.DirtyPages())
	}
	if rb.Epoch() != 0 {
		t.Fatal("persist(a) committed b")
	}
}

func TestPersistBreakdownTable5Shape(t *testing.T) {
	// 64 KiB dirty set: reset tracking a few us, total within ~2x of
	// direct disk IO (Table 5: 5.1 / 6.5 / 39.7 / 51.4 us).
	sys := newSys(t)
	costs := sys.Costs()
	p := sys.NewProcess()
	ctx := p.NewContext(0)
	r, _ := p.Open(ctx, "data", 1<<20)
	ctx.WriteAt(r, 0, bytes.Repeat([]byte{7}, 64<<10))
	ctx.Persist(r, MSSync)
	b := ctx.LastBreakdown
	if b.Pages != 16 {
		t.Fatalf("pages = %d", b.Pages)
	}
	if b.ResetTracking <= 0 || b.ResetTracking > 12*time.Microsecond {
		t.Fatalf("reset tracking = %v, want a few us", b.ResetTracking)
	}
	if b.WaitIO < costs.IOCost(64<<10)/2 {
		t.Fatalf("wait IO = %v implausibly small", b.WaitIO)
	}
	if b.Total > 3*costs.IOCost(64<<10) {
		t.Fatalf("total %v more than 3x direct IO %v", b.Total, costs.IOCost(64<<10))
	}
	if got := b.ResetTracking + b.InitiateWrites + b.WaitIO; got > b.Total {
		t.Fatalf("phases %v exceed total %v", got, b.Total)
	}
}

func TestRepeatedPersistRetracks(t *testing.T) {
	sys := newSys(t)
	p := sys.NewProcess()
	ctx := p.NewContext(0)
	r, _ := p.Open(ctx, "data", 1<<20)
	for i := 0; i < 10; i++ {
		ctx.WriteAt(r, 0, []byte{byte(i)})
		if ctx.DirtyPages() != 1 {
			t.Fatalf("iter %d: dirty=%d", i, ctx.DirtyPages())
		}
		if _, err := ctx.Persist(r, MSSync); err != nil {
			t.Fatal(err)
		}
	}
	if got := r.Epoch(); got != 10 {
		t.Fatalf("epoch = %d", got)
	}
}

func TestTornUCheckpointAtomicity(t *testing.T) {
	// A multi-page uCheckpoint cut mid-IO must be all-or-nothing
	// after recovery, and the region must hold a prefix of the
	// committed sequence: the last commit or the one before it. Commit
	// c fills 8 pages with byte 0x0A+c-1.
	for _, commits := range []int{2, 3, 10} {
		for seed := uint64(0); seed < 15; seed++ {
			sys, _ := NewSystem(Options{})
			p := sys.NewProcess()
			ctx := p.NewContext(0)
			r, _ := p.Open(ctx, "data", 1<<20)
			var start time.Duration
			for c := 1; c <= commits; c++ {
				start = ctx.Clock().Now()
				ctx.WriteAt(r, 0, bytes.Repeat([]byte{byte(0x0A + c - 1)}, 32<<10))
				ctx.Persist(r, MSSync)
			}
			end := ctx.Clock().Now()

			rng := sim.NewRNG(seed + 77)
			cut := start + time.Duration(rng.Int63n(int64(end-start)+1))
			sys.Array().CutPower(cut, rng)

			sys2, at, err := Recover(Options{}, sys.Array(), end)
			if err != nil {
				t.Fatalf("%d commits, seed %d: %v", commits, seed, err)
			}
			p2 := sys2.NewProcess()
			ctx2 := p2.NewContext(0)
			ctx2.Clock().AdvanceTo(at)
			r2, _ := p2.Open(ctx2, "data", 1<<20)
			buf := make([]byte, 32<<10)
			ctx2.ReadAt(r2, 0, buf)
			first := buf[0]
			if last := byte(0x0A + commits - 1); first != last && first != last-1 {
				t.Fatalf("%d commits, seed %d: recovered byte %#x, want %#x or %#x", commits, seed, first, last-1, last)
			}
			for i, b := range buf {
				if b != first {
					t.Fatalf("%d commits, seed %d: uCheckpoint torn at byte %d (%#x vs %#x)", commits, seed, i, b, first)
				}
			}
		}
	}
}

func TestConcurrentWriterDuringPersistIsolated(t *testing.T) {
	// Writes racing an in-flight async uCheckpoint must not leak into
	// it (unified COW).
	sys := newSys(t)
	p := sys.NewProcess()
	ctx := p.NewContext(0)
	r, _ := p.Open(ctx, "data", 1<<20)
	ctx.WriteAt(r, 0, []byte("SNAPSHOT"))
	epoch, _ := ctx.Persist(r, MSAsync)

	// Mutate while the IO is in flight.
	ctx.WriteAt(r, 0, []byte("POSTDATA"))
	if sys.NewProcess(); false {
		_ = epoch
	}
	ctx.Wait(r, epoch)

	// Cut power right at the durability point of the first
	// checkpoint: the second write was never persisted.
	sys.Array().CutPower(ctx.Clock().Now(), sim.NewRNG(5))
	sys2, at, _ := Recover(Options{}, sys.Array(), ctx.Clock().Now())
	p2 := sys2.NewProcess()
	ctx2 := p2.NewContext(0)
	ctx2.Clock().AdvanceTo(at)
	r2, _ := p2.Open(ctx2, "data", 1<<20)
	buf := make([]byte, 8)
	ctx2.ReadAt(r2, 0, buf)
	if string(buf) != "SNAPSHOT" {
		t.Fatalf("in-flight checkpoint captured racing write: %q", buf)
	}
	// And the COW fault fired.
	if p.AddressSpace().Stats().COWFaults == 0 {
		t.Fatal("no COW fault for write during in-flight checkpoint")
	}
}

func TestRegionSlotAddressesDistinct(t *testing.T) {
	sys := newSys(t)
	p := sys.NewProcess()
	ctx := p.NewContext(0)
	ra, _ := p.Open(ctx, "a", 1<<20)
	rb, _ := p.Open(ctx, "b", 1<<20)
	if ra.Addr() == rb.Addr() {
		t.Fatal("regions share an address")
	}
	if ra.Addr() < RegionBase || rb.Addr() < RegionBase {
		t.Fatal("regions below RegionBase")
	}
}

func TestOpenExistingIdempotent(t *testing.T) {
	sys := newSys(t)
	p := sys.NewProcess()
	ctx := p.NewContext(0)
	r1, _ := p.Open(ctx, "a", 1<<20)
	r2, err := p.Open(ctx, "a", 1<<20)
	if err != nil || r1 != r2 {
		t.Fatal("re-open returned a different region")
	}
}

func TestOpenBadLength(t *testing.T) {
	sys := newSys(t)
	p := sys.NewProcess()
	ctx := p.NewContext(0)
	if _, err := p.Open(ctx, "bad", 0); err == nil {
		t.Fatal("zero-length region accepted")
	}
	if _, err := p.Open(ctx, "huge", int64(RegionSlot)+1); err == nil {
		t.Fatal("oversized region accepted")
	}
}

func TestSharedRegionTwoProcesses(t *testing.T) {
	sys := newSys(t)
	p1 := sys.NewProcess()
	ctx1 := p1.NewContext(0)
	r1, _ := p1.Open(ctx1, "shm", 1<<20)

	p2 := sys.NewProcess()
	ctx2 := p2.NewContext(1)
	r2, err := p2.OpenShared(ctx2, r1)
	if err != nil {
		t.Fatal(err)
	}
	ctx1.WriteAt(r1, 0, []byte("cross"))
	buf := make([]byte, 5)
	ctx2.ReadAt(r2, 0, buf)
	if string(buf) != "cross" {
		t.Fatalf("shared region not shared: %q", buf)
	}
	// Persist from process 1, then write from process 2 must fault
	// (its PTE was reset via the reverse mapping) and be tracked.
	ctx2.ReadAt(r2, 0, buf) // ensure p2 has a PTE
	ctx2.WriteAt(r2, 0, []byte("p2own"))
	ctx1.Persist(r1, MSSync|MSGlobal)
	before := p2.AddressSpace().Stats().TrackingFaults
	ctx2.WriteAt(r2, 0, []byte("again"))
	if p2.AddressSpace().Stats().TrackingFaults == before {
		t.Fatal("write in process 2 after persist did not re-fault")
	}
}

func TestPersistLatencyRecorded(t *testing.T) {
	sys := newSys(t)
	p := sys.NewProcess()
	ctx := p.NewContext(0)
	r, _ := p.Open(ctx, "data", 1<<20)
	for i := 0; i < 5; i++ {
		ctx.WriteAt(r, int64(i)*PageSize, []byte{1})
		ctx.Persist(r, MSSync)
	}
	if lat := ctx.PersistLatency.Snapshot(); ctx.Persists != 5 || lat.Count != 5 || lat.Sum <= 0 {
		t.Fatalf("persists=%d recorded=%d sum=%v", ctx.Persists, lat.Count, lat.Sum)
	}
}
