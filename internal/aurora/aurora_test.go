package aurora

import (
	"bytes"
	"testing"
	"time"

	"memsnap/internal/disk"
	"memsnap/internal/sim"
)

func newRegion(size int64) (*Region, *disk.Array) {
	costs := sim.DefaultCosts()
	arr := disk.NewArray(costs, 2, 2<<30)
	return NewRegion(costs, arr, "r", 0, size), arr
}

func TestWriteReadRoundTrip(t *testing.T) {
	r, _ := newRegion(1 << 20)
	clk := sim.NewClock()
	data := []byte("aurora region data")
	r.Write(clk, 5000, data)
	buf := make([]byte, len(data))
	copy(buf, r.data[5000:])
	if !bytes.Equal(buf, data) {
		t.Fatalf("read back %q", buf)
	}
	if len(r.dirty) != 1 {
		t.Fatalf("dirty pages = %d", len(r.dirty))
	}
	// A write spanning a page boundary dirties both pages (page 1 is
	// already dirty, so one new page appears).
	r.Write(clk, 2*PageSize-4, make([]byte, 8))
	if len(r.dirty) != 2 {
		t.Fatalf("dirty pages after spanning write = %d", len(r.dirty))
	}
}

func TestCheckpointPersistsToDisk(t *testing.T) {
	r, arr := newRegion(1 << 20)
	clk := sim.NewClock()
	r.Write(clk, 0, bytes.Repeat([]byte{0x5A}, PageSize))
	r.Checkpoint(clk)
	buf := make([]byte, PageSize)
	arr.Read(clk.Now(), 0, buf)
	if buf[0] != 0x5A || buf[PageSize-1] != 0x5A {
		t.Fatal("checkpoint did not reach disk")
	}
	if len(r.dirty) != 0 {
		t.Fatal("checkpoint left dirty pages")
	}
	if r.checkpoints != 1 {
		t.Fatalf("checkpoint count = %d", r.checkpoints)
	}
}

func TestBreakdownMatchesTable2Shape(t *testing.T) {
	// Table 2: waiting 26.7, shadow 79.8, IO 27.9, collapse 91.7,
	// total 208.1 us for 64 KiB dirty in a ~1 GiB region.
	r, _ := newRegion(1 << 30)
	clk := sim.NewClock()
	r.Write(clk, 0, make([]byte, 64<<10))
	b := r.Checkpoint(clk)

	within := func(got, want time.Duration) bool {
		return got > want/2 && got < want*2
	}
	if !within(b.WaitingForCalls, 26700*time.Nanosecond) {
		t.Errorf("waiting = %v", b.WaitingForCalls)
	}
	if !within(b.ApplyingCOW, 79800*time.Nanosecond) {
		t.Errorf("shadow = %v", b.ApplyingCOW)
	}
	if !within(b.FlushIO, 27900*time.Nanosecond) {
		t.Errorf("flush = %v", b.FlushIO)
	}
	if !within(b.RemovingCOW, 91700*time.Nanosecond) {
		t.Errorf("collapse = %v", b.RemovingCOW)
	}
	if !within(b.Total, 208100*time.Nanosecond) {
		t.Errorf("total = %v", b.Total)
	}
	// The headline claim: ~80% of latency is shadow management, not
	// IO.
	overhead := b.WaitingForCalls + b.ApplyingCOW + b.RemovingCOW
	if float64(overhead) < 0.6*float64(b.Total) {
		t.Errorf("shadowing overhead %v not dominant in %v", overhead, b.Total)
	}
}

func TestCheckpointCostScalesWithMappingNotDirtySet(t *testing.T) {
	small, _ := newRegion(64 << 20)
	large, _ := newRegion(1 << 30)
	clkS, clkL := sim.NewClock(), sim.NewClock()
	small.Write(clkS, 0, make([]byte, PageSize))
	large.Write(clkL, 0, make([]byte, PageSize))
	bs := small.Checkpoint(clkS)
	bl := large.Checkpoint(clkL)
	if bl.Total <= bs.Total {
		t.Fatalf("checkpoint cost did not scale with mapping: %v vs %v", bs.Total, bl.Total)
	}
}

func TestCheckpointsSerialize(t *testing.T) {
	// Two checkpoints issued at the same virtual time: the second
	// must queue behind the first's collapse.
	r, _ := newRegion(1 << 30)
	clkA, clkB := sim.NewClock(), sim.NewClock()
	r.Write(clkA, 0, make([]byte, PageSize))
	a := r.Checkpoint(clkA)
	r.Write(clkB, PageSize, make([]byte, PageSize))
	b := r.Checkpoint(clkB)
	// B started at time 0 but had to wait for A to finish.
	if clkB.Now() < clkA.Now() {
		t.Fatalf("second checkpoint (%v) did not serialize behind first (%v)", clkB.Now(), clkA.Now())
	}
	if b.Total <= a.Total {
		t.Fatalf("queued checkpoint total %v should include wait (first %v)", b.Total, a.Total)
	}
}

func TestIncrementalCheckpoints(t *testing.T) {
	r, arr := newRegion(1 << 20)
	clk := sim.NewClock()
	r.Write(clk, 0, bytes.Repeat([]byte{1}, PageSize))
	r.Checkpoint(clk)
	w1 := arr.Stats().BytesWritten
	r.Write(clk, 8*PageSize, bytes.Repeat([]byte{2}, PageSize))
	r.Checkpoint(clk)
	w2 := arr.Stats().BytesWritten - w1
	if w2 != PageSize {
		t.Fatalf("second checkpoint wrote %d bytes, want one page (incremental)", w2)
	}
}

func TestAppCheckpointSlowerThanRegion(t *testing.T) {
	costs := sim.DefaultCosts()
	arr := disk.NewArray(costs, 2, 2<<30)
	r := NewRegion(costs, arr, "r", 0, 1<<30)
	app := NewApp(costs, []*Region{r}, 2<<30)

	clkR := sim.NewClock()
	r.Write(clkR, 0, make([]byte, 64<<10))
	region := r.Checkpoint(clkR)

	clkA := sim.NewClock()
	r.Write(clkA, 0, make([]byte, 64<<10))
	full := app.Checkpoint(clkA)

	if full.Total < 5*region.Total {
		t.Fatalf("app checkpoint %v not much slower than region %v (Figure 3)", full.Total, region.Total)
	}
}

func TestOutOfRangePanics(t *testing.T) {
	r, _ := newRegion(PageSize)
	clk := sim.NewClock()
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	r.Write(clk, PageSize-1, []byte{1, 2})
}
