package disk

import (
	"bytes"
	"testing"
	"testing/quick"
	"time"

	"memsnap/internal/sim"
)

func costs() *sim.CostModel { return sim.DefaultCosts() }

func TestWriteReadRoundTrip(t *testing.T) {
	d := NewDevice(costs(), 1<<20)
	data := []byte("persistent bytes")
	d.SubmitWrite(0, 4096, data)
	buf := make([]byte, len(data))
	d.SubmitRead(time.Millisecond, 4096, buf)
	if !bytes.Equal(buf, data) {
		t.Fatalf("read back %q", buf)
	}
}

func TestIOLatencyMatchesTable6DirectColumn(t *testing.T) {
	m := costs()
	d := NewDevice(m, 1<<30)
	cases := []struct {
		bytes  int
		lo, hi time.Duration
	}{
		{4 << 10, 16 * time.Microsecond, 18 * time.Microsecond},
		{64 << 10, 42 * time.Microsecond, 47 * time.Microsecond},
	}
	var at time.Duration
	for _, tc := range cases {
		buf := make([]byte, tc.bytes)
		done := d.SubmitWrite(at, 0, buf)
		lat := done - at
		if lat < tc.lo || lat > tc.hi {
			t.Errorf("%d B write latency %v, want [%v, %v]", tc.bytes, lat, tc.lo, tc.hi)
		}
		at = done
	}
}

func TestQueueSerializes(t *testing.T) {
	d := NewDevice(costs(), 1<<20)
	buf := make([]byte, 4096)
	c1 := d.SubmitWrite(0, 0, buf)
	c2 := d.SubmitWrite(0, 4096, buf) // same submit time: must queue
	if c2 <= c1 {
		t.Fatalf("second IO (%v) did not queue behind first (%v)", c2, c1)
	}
	// An IO after the queue drains starts immediately.
	c3 := d.SubmitWrite(c2+time.Millisecond, 8192, buf)
	if got := c3 - (c2 + time.Millisecond); got != costs().IOCost(4096) {
		t.Fatalf("idle-device IO latency %v", got)
	}
}

func TestOutOfRangePanics(t *testing.T) {
	d := NewDevice(costs(), 8192)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range write did not panic")
		}
	}()
	d.SubmitWrite(0, 8000, make([]byte, 4096))
}

func TestCutPowerDurableWritesSurvive(t *testing.T) {
	d := NewDevice(costs(), 1<<20)
	data := bytes.Repeat([]byte{0xAB}, 4096)
	done := d.SubmitWrite(0, 0, data)
	// Power cut strictly after completion: write is durable.
	d.CutPower(done, sim.NewRNG(1))
	buf := make([]byte, 4096)
	d.PeekAt(0, buf)
	if !bytes.Equal(buf, data) {
		t.Fatal("completed write torn by power cut")
	}
}

func TestCutPowerTearsInflight(t *testing.T) {
	m := costs()
	d := NewDevice(m, 1<<20)
	data := bytes.Repeat([]byte{0xFF}, 64<<10)
	done := d.SubmitWrite(0, 0, data)
	// Cut in the middle of the IO.
	d.CutPower(done/2, sim.NewRNG(7))
	buf := make([]byte, len(data))
	d.PeekAt(0, buf)
	zeros, ffs, mixed := 0, 0, 0
	for s := 0; s < len(buf); s += m.DiskSectorSize {
		sector := buf[s : s+m.DiskSectorSize]
		switch {
		case bytes.Equal(sector, bytes.Repeat([]byte{0}, m.DiskSectorSize)):
			zeros++
		case bytes.Equal(sector, bytes.Repeat([]byte{0xFF}, m.DiskSectorSize)):
			ffs++
		default:
			mixed++
		}
	}
	if mixed != 0 {
		t.Fatalf("%d sectors torn mid-sector (sector atomicity violated)", mixed)
	}
	if zeros == 0 || ffs == 0 {
		t.Fatalf("tear not partial: %d old, %d new sectors", zeros, ffs)
	}
}

func TestStats(t *testing.T) {
	d := NewDevice(costs(), 1<<20)
	d.SubmitWrite(0, 0, make([]byte, 4096))
	d.SubmitRead(0, 0, make([]byte, 512))
	s := d.Stats()
	if s.Writes != 1 || s.Reads != 1 || s.BytesWritten != 4096 || s.BytesRead != 512 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestArrayRoundTrip(t *testing.T) {
	a := NewArray(costs(), 2, 1<<20)
	data := make([]byte, 200000) // spans several stripes
	for i := range data {
		data[i] = byte(i * 7)
	}
	a.Write(0, 12345, data)
	buf := make([]byte, len(data))
	a.Read(time.Second, 12345, buf)
	if !bytes.Equal(buf, data) {
		t.Fatal("array round trip mismatch")
	}
}

func TestArrayStripingParallelism(t *testing.T) {
	m := costs()
	single := NewArray(m, 1, 1<<24)
	double := NewArray(m, 2, 1<<24)
	big := make([]byte, 1<<20)
	lat1 := single.Write(0, 0, big)
	lat2 := double.Write(0, 0, big)
	if lat2 >= lat1 {
		t.Fatalf("striping did not help: 1 disk %v, 2 disks %v", lat1, lat2)
	}
	// Two disks should roughly halve transfer-dominated latency.
	if lat2 > lat1*2/3 {
		t.Fatalf("striping speedup too small: %v vs %v", lat2, lat1)
	}
}

func TestArrayWriteVSingleCommandPerDevice(t *testing.T) {
	m := costs()
	a := NewArray(m, 2, 1<<24)
	// 16 scattered 4 KiB extents within one stripe on device 0.
	var extents []Extent
	for i := 0; i < 16; i++ {
		extents = append(extents, Extent{Offset: int64(i * 4096), Data: make([]byte, 4096)})
	}
	done := a.WriteV(0, extents)
	// All on device 0, coalesced: one base latency + 64 KiB transfer.
	want := m.IOCost(64 << 10)
	if done != want {
		t.Fatalf("vectored write latency %v, want %v", done, want)
	}
	if s := a.Stats(); s.Writes != 1 {
		t.Fatalf("expected 1 device command, got %d", s.Writes)
	}
}

func TestArrayCutPower(t *testing.T) {
	a := NewArray(costs(), 2, 1<<20)
	data := bytes.Repeat([]byte{1}, 128<<10)
	done := a.Write(0, 0, data)
	a.CutPower(done/4, sim.NewRNG(3))
	buf := make([]byte, len(data))
	a.PeekAt(0, buf)
	if bytes.Equal(buf, data) {
		t.Fatal("power cut at 25% left write fully durable (suspicious)")
	}
}

func TestArrayRoundTripProperty(t *testing.T) {
	f := func(off uint16, val byte, size uint8) bool {
		a := NewArray(costs(), 2, 1<<20)
		n := int(size) + 1
		data := bytes.Repeat([]byte{val}, n)
		offset := int64(off)
		a.Write(0, offset, data)
		buf := make([]byte, n)
		a.PeekAt(offset, buf)
		return bytes.Equal(buf, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestReadLatency(t *testing.T) {
	a := NewArray(costs(), 2, 1<<20)
	buf := make([]byte, 4096)
	done := a.Read(0, 0, buf)
	if done != costs().IOCost(4096) {
		t.Fatalf("read latency %v", done)
	}
}

func TestEmptyWriteV(t *testing.T) {
	a := NewArray(costs(), 2, 1<<20)
	if done := a.WriteV(5*time.Microsecond, nil); done != 5*time.Microsecond {
		t.Fatalf("empty WriteV advanced time: %v", done)
	}
}

// TestCutPowerClampsToGCFloorAcrossArray pins the undo-reclaim clamp:
// once a device has GC'd its in-flight undo history past some horizon,
// a later CutPower cannot rewind behind it — and the whole array must
// crash at ONE clamped instant. Before the clamp, each device cut at
// its own effective time: a device whose GC horizon had advanced kept
// late writes while a sibling rolled back earlier ones, so recovery
// saw a commit record whose data blocks were gone (the flaky
// power-cut integration failure).
func TestCutPowerClampsToGCFloorAcrossArray(t *testing.T) {
	m := costs()
	a := NewArray(m, 2, 1<<30)
	stripe := int64(m.StripeSize)

	// Device 0: enough spaced-out writes that gcInflightLocked fires
	// and reclaims every prior write's undo buffer. Submissions are
	// 1s apart, far beyond per-write latency, so write i completes
	// before submit i+1 and the GC at the last write finalizes all
	// earlier ones.
	for i := 0; i < 65; i++ {
		a.devices[0].SubmitWrite(time.Duration(i)*time.Second, 0, []byte{byte(i + 1)})
	}
	if f := a.devices[0].GCFloor(); f == 0 {
		t.Fatal("GC never fired on device 0; the scenario needs a reclaimed horizon")
	}

	// Device 1: one write submitted just before the intended cut,
	// completing after it (base latency alone spans the 1µs gap) but
	// well before device 0's reclaimed horizon.
	payload := bytes.Repeat([]byte{0xAB}, 4096)
	done := a.devices[1].SubmitWrite(1500*time.Millisecond, stripe, payload)
	cut := 1500*time.Millisecond + time.Microsecond
	if done <= cut {
		t.Fatalf("scenario broken: device-1 write completes at %v, before the %v cut", done, cut)
	}
	if floor := a.devices[0].GCFloor(); done >= floor {
		t.Fatalf("scenario broken: device-1 write completes at %v, after the %v floor", done, floor)
	}

	// Cut at just past the device-1 submit. Device 0 already
	// reclaimed history up to ~63s, so its writes survive regardless;
	// a consistent single-instant crash therefore must also keep
	// device 1's earlier-completing write instead of rolling it back.
	a.CutPower(cut, sim.NewRNG(1))

	got := make([]byte, 8)
	a.devices[1].PeekAt(stripe, got)
	if got[0] != 0xAB {
		t.Fatalf("device-1 write rolled back (got %#x): devices crashed at divergent instants", got[0])
	}
	// At the clamped instant (the ~63s floor) device 0's write 63
	// straddles the cut (tears by coin flip between patterns 63 and
	// 64) and write 64, submitted after it, always rolls back — but
	// everything the GC finalized must still be on the platter.
	var d0 [1]byte
	a.devices[0].PeekAt(0, d0[:])
	if d0[0] != 63 && d0[0] != 64 {
		t.Fatalf("device-0 state %d inconsistent with a crash at the reclaim floor", d0[0])
	}
}

func TestStragglerWindowMultipliesCost(t *testing.T) {
	m := costs()
	d := NewDevice(m, 1<<20)
	buf := make([]byte, 4096)
	normal := m.IOCost(4096)

	// Pre-install a future window — fault schedules install faults
	// before virtual time reaches them.
	from, to := 10*time.Millisecond, 20*time.Millisecond
	d.SetStraggler(from, to, 8)

	if got := d.SubmitWrite(0, 0, buf) - 0; got != normal {
		t.Fatalf("pre-window write cost %v, want %v", got, normal)
	}
	at := from + time.Millisecond
	if got := d.SubmitWrite(at, 0, buf) - at; got != 8*normal {
		t.Fatalf("in-window write cost %v, want %v", got, 8*normal)
	}
	at = from + 2*time.Millisecond
	if got := d.SubmitRead(at, 0, buf) - at; got != 8*normal {
		t.Fatalf("in-window read cost %v, want %v", got, 8*normal)
	}
	at = to + time.Millisecond
	if got := d.SubmitWrite(at, 0, buf) - at; got != normal {
		t.Fatalf("post-window write cost %v, want %v", got, normal)
	}

	// The window keys off service start, not submit time: an IO queued
	// from before the window whose service begins inside it straggles.
	d2 := NewDevice(m, 1<<20)
	d2.SetStraggler(normal, time.Minute, 8)
	c1 := d2.SubmitWrite(0, 0, buf)    // services at 0, normal cost
	c2 := d2.SubmitWrite(0, 4096, buf) // queues; services at c1, inside window
	if c1 != normal {
		t.Fatalf("first write cost %v, want %v", c1, normal)
	}
	if got := c2 - c1; got != 8*normal {
		t.Fatalf("queued in-window write cost %v, want %v", got, 8*normal)
	}

	// factor <= 1 clears the window.
	d3 := NewDevice(m, 1<<20)
	d3.SetStraggler(0, time.Minute, 8)
	d3.SetStraggler(0, time.Minute, 1)
	if got := d3.SubmitWrite(0, 0, buf); got != normal {
		t.Fatalf("cleared-window write cost %v, want %v", got, normal)
	}
}

func TestArrayStragglerThrottlesWholeArray(t *testing.T) {
	m := costs()
	a := NewArray(m, 2, 1<<20)
	// One logical IO spanning both devices completes at the max across
	// devices, so one straggling device throttles the array.
	big := make([]byte, 2*m.StripeSize)
	base := a.Write(0, 0, big)
	a.SetStraggler(0, 0, time.Minute, 8)
	at := base + time.Millisecond
	slow := a.Write(at, 0, big) - at
	if slow <= (base-0)*2 {
		t.Fatalf("straggling device did not throttle array: %v vs healthy %v", slow, base)
	}
}
