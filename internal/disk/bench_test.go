package disk

import (
	"testing"
	"time"
)

// The two shapes the object store issues per commit: one vectored
// command of 16 scattered blocks, then one lone sector (the commit
// record). Both overwrite a fixed working set with the clock stepping
// past each completion, so undo images recycle and the steady state
// allocates nothing; the AllocsPerRun tests beside them gate that.

// writeV16 returns a warmed-up closure issuing one 16 x 4 KiB vectored write per
// call over a 1024-block working set on a two-device array. With adopt
// set, each call first copies the data into the spares the previous
// call got back, as objstore does, and the devices adopt them; the
// same bytes are copied either way, only not under the device lock.
func writeV16(adopt bool) func() {
	a := NewArray(costs(), 2, 64<<20)
	srcs := make([][]byte, 16)
	extents := make([]Extent, 16)
	for i := range extents {
		srcs[i] = make([]byte, blockSize)
		if adopt {
			extents[i].Block = new(Block)
		} else {
			extents[i].Data = srcs[i]
		}
	}
	var at time.Duration
	next := int64(0)
	op := func() {
		for i := range extents {
			next = (next*5 + 1) % 1024 // full-period LCG: scattered, every block visited
			extents[i].Offset = next * blockSize
			if adopt {
				copy(extents[i].Block[:], srcs[i])
			}
		}
		at = a.WriteV(at, extents)
	}
	warm(op)
	return op
}

// warm runs op until the working set is touched and the in-flight
// list has been reclaimed a few times over.
func warm(op func()) {
	for i := 0; i < 256; i++ {
		op()
	}
}

func benchWriteV16(b *testing.B, adopt bool) {
	op := writeV16(adopt)
	b.ReportAllocs()
	b.SetBytes(16 * blockSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}

func BenchmarkWriteV16x4K(b *testing.B)      { benchWriteV16(b, false) }
func BenchmarkWriteV16x4KAdopt(b *testing.B) { benchWriteV16(b, true) }

func testWriteV16ZeroAlloc(t *testing.T, adopt bool) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	op := writeV16(adopt)
	if n := testing.AllocsPerRun(500, op); n != 0 {
		t.Fatalf("steady-state 16 x 4 KiB WriteV (adopt=%v) allocates %v times per op, want 0", adopt, n)
	}
}

func TestWriteVSteadyStateZeroAlloc(t *testing.T)      { testWriteV16ZeroAlloc(t, false) }
func TestWriteVAdoptSteadyStateZeroAlloc(t *testing.T) { testWriteV16ZeroAlloc(t, true) }

// writeSector returns a warmed-up closure overwriting one of 8 ring sectors per
// call, as the commit-record write does.
func writeSector() func() {
	d := NewDevice(costs(), 64<<20)
	sector := make([]byte, 512)
	var at time.Duration
	slot := int64(0)
	op := func() {
		slot = (slot + 1) % 8
		at = d.SubmitWrite(at, slot*512, sector)
	}
	warm(op)
	return op
}

func BenchmarkSubmitWriteSector(b *testing.B) {
	op := writeSector()
	b.ReportAllocs()
	b.SetBytes(512)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}

func TestSubmitWriteSectorSteadyStateZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	op := writeSector()
	if n := testing.AllocsPerRun(500, op); n != 0 {
		t.Fatalf("steady-state sector write allocates %v times per op, want 0", n)
	}
}
