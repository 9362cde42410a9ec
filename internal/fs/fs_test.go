package fs

import (
	"bytes"
	"testing"
	"time"

	"memsnap/internal/disk"
	"memsnap/internal/sim"
)

func newFS(kind Kind) *FS {
	costs := sim.DefaultCosts()
	return New(costs, disk.NewArray(costs, 2, 512<<20), kind)
}

func TestWriteReadRoundTrip(t *testing.T) {
	f := newFS(FFS)
	clk := sim.NewClock()
	file := f.Create(clk, "db")
	data := []byte("some database contents spanning bytes")
	file.Write(clk, 100, data)
	buf := make([]byte, len(data))
	file.Read(clk, 100, buf)
	if !bytes.Equal(buf, data) {
		t.Fatalf("read back %q", buf)
	}
	if file.size != 100+int64(len(data)) {
		t.Fatalf("size = %d", file.size)
	}
}

func TestOpenMissing(t *testing.T) {
	f := newFS(FFS)
	clk := sim.NewClock()
	if f.files["nope"] != nil {
		t.Fatal("found a missing file")
	}
	f.Create(clk, "yes")
	if f.files["yes"] == nil {
		t.Fatal("created file not found")
	}
	f.Remove(clk, "yes")
	if f.files["yes"] != nil {
		t.Fatal("found a removed file")
	}
}

func TestWriteIsWriteBack(t *testing.T) {
	f := newFS(FFS)
	clk := sim.NewClock()
	file := f.Create(clk, "db")
	file.Write(clk, 0, bytes.Repeat([]byte{1}, 64<<10))
	if got := f.arr.Stats().BytesWritten; got != 0 {
		t.Fatalf("write hit the disk before fsync: %d bytes", got)
	}
	if n := dirtyBlocks(file); n != 16 {
		t.Fatalf("dirty blocks = %d", n)
	}
	file.Fsync(clk)
	if got := f.arr.Stats().BytesWritten; got < 64<<10 {
		t.Fatalf("fsync wrote only %d bytes", got)
	}
	if dirtyBlocks(file) != 0 {
		t.Fatal("fsync left dirty blocks")
	}
}

// dirtyBlocks counts fl's dirty cached blocks.
func dirtyBlocks(fl *File) int {
	n := 0
	for _, b := range fl.cache {
		if b.dirty {
			n++
		}
	}
	return n
}

func TestFsyncNoDirtyCheap(t *testing.T) {
	f := newFS(FFS)
	clk := sim.NewClock()
	file := f.Create(clk, "db")
	start := clk.Now()
	file.Fsync(clk)
	if clk.Now()-start > 10*time.Microsecond {
		t.Fatalf("no-op fsync cost %v", clk.Now()-start)
	}
}

// prepFile writes and syncs `blocks` sequential blocks so that later
// dirty blocks are overwrites of established on-disk locations.
func prepFile(f *FS, clk *sim.Clock, name string, blocks int) *File {
	file := f.Create(clk, name)
	buf := make([]byte, 64*BlockSize)
	for i := 0; i < blocks; i += 64 {
		n := blocks - i
		if n > 64 {
			n = 64
		}
		file.Write(clk, int64(i)*BlockSize, buf[:n*BlockSize])
	}
	file.Fsync(clk)
	return file
}

// fsyncLatency measures one flush. The sequential pattern appends to
// a fresh log file (write-ahead-logging style); the random pattern
// overwrites random blocks of an established database file — the two
// access patterns of the paper's Table 6.
func fsyncLatency(kind Kind, blocks int, random bool) time.Duration {
	f := newFS(kind)
	clk := sim.NewClock()
	var file *File
	rng := sim.NewRNG(42)
	data := make([]byte, BlockSize)
	if random {
		file = prepFile(f, clk, "db", 4096)
		for i := 0; i < blocks; i++ {
			file.Write(clk, rng.Int63n(4096)*BlockSize, data)
		}
	} else {
		file = f.Create(clk, "log")
		for i := 0; i < blocks; i++ {
			file.Write(clk, int64(i)*BlockSize, data)
		}
	}
	start := clk.Now()
	file.Fsync(clk)
	return clk.Now() - start
}

func TestFsyncTable6Calibration(t *testing.T) {
	// Spot-check the paper's Table 6 shape with generous tolerances:
	// the *shape* must hold (random >> sequential, ZFS random worse
	// than FFS early, both far above MemSnap).
	cases := []struct {
		kind   Kind
		blocks int
		random bool
		lo, hi time.Duration
	}{
		{FFS, 1, false, 40 * time.Microsecond, 110 * time.Microsecond},        // paper 70
		{FFS, 16, false, 70 * time.Microsecond, 210 * time.Microsecond},       // paper 134
		{FFS, 1, true, 100 * time.Microsecond, 240 * time.Microsecond},        // paper 156
		{FFS, 16, true, 1200 * time.Microsecond, 2900 * time.Microsecond},     // paper 1.9K
		{FFS, 1024, true, 20000 * time.Microsecond, 50000 * time.Microsecond}, // paper 33.7K
		{CoWFS, 1, true, 150 * time.Microsecond, 350 * time.Microsecond},      // paper 232
		{CoWFS, 16, true, 2000 * time.Microsecond, 4400 * time.Microsecond},   // paper 2.9K
	}
	for _, tc := range cases {
		got := fsyncLatency(tc.kind, tc.blocks, tc.random)
		if got < tc.lo || got > tc.hi {
			t.Errorf("%v fsync %d blocks random=%v: %v, want [%v, %v]",
				tc.kind, tc.blocks, tc.random, got, tc.lo, tc.hi)
		}
	}
}

func TestRandomFsyncMuchSlowerThanSequential(t *testing.T) {
	for _, kind := range []Kind{FFS, CoWFS} {
		seq := fsyncLatency(kind, 64, false)
		rnd := fsyncLatency(kind, 64, true)
		if rnd < 5*seq {
			t.Errorf("%v: random fsync %v not >> sequential %v", kind, rnd, seq)
		}
	}
}

func TestMsyncScalesWithResidentSet(t *testing.T) {
	// Figure 5's mechanism: the mapped-file flush cost grows with the
	// resident size of the file even for a single dirty page.
	measure := func(resident int) time.Duration {
		f := newFS(FFS)
		clk := sim.NewClock()
		file := prepFile(f, clk, "db", resident)
		file.Write(clk, 0, make([]byte, BlockSize))
		start := clk.Now()
		file.Msync(clk)
		return clk.Now() - start
	}
	small, large := measure(64), measure(65536)
	if large <= small+100*time.Microsecond {
		t.Fatalf("msync did not scale with resident set: %v vs %v", small, large)
	}
}

func TestPartialBlockOverwriteRMW(t *testing.T) {
	f := newFS(FFS)
	clk := sim.NewClock()
	file := prepFile(f, clk, "db", 4)
	// Drop the cache by truncating and recreating cache state: emulate
	// by opening fresh FS? Simpler: write partial to an uncached
	// on-disk block after clearing cache via Truncate+rewrite.
	full := bytes.Repeat([]byte{0xEE}, BlockSize)
	file.Write(clk, 0, full)
	file.Fsync(clk)
	// Evict by hand: no eviction API, so verify read-back correctness
	// of partial overwrite instead.
	file.Write(clk, 10, []byte("partial"))
	buf := make([]byte, BlockSize)
	file.Read(clk, 0, buf)
	if string(buf[10:17]) != "partial" || buf[0] != 0xEE {
		t.Fatal("partial overwrite corrupted block")
	}
}

func TestTruncate(t *testing.T) {
	f := newFS(FFS)
	clk := sim.NewClock()
	file := f.Create(clk, "wal")
	file.Write(clk, 0, make([]byte, 10*BlockSize))
	file.Fsync(clk)
	file.Truncate(clk, BlockSize)
	if file.size != BlockSize {
		t.Fatalf("size after truncate = %d", file.size)
	}
	if len(file.cache) != 1 {
		t.Fatalf("resident after truncate = %d", len(file.cache))
	}
	// Growing again reads zeros past the old end.
	buf := make([]byte, 8)
	file.Read(clk, 5*BlockSize, buf)
	for _, b := range buf {
		if b != 0 {
			t.Fatal("stale data after truncate")
		}
	}
}

func TestSyscallStats(t *testing.T) {
	f := newFS(FFS)
	clk := sim.NewClock()
	file := f.Create(clk, "db")
	file.Write(clk, 0, []byte("x"))
	file.Write(clk, 4096, []byte("y"))
	file.Read(clk, 0, make([]byte, 1))
	file.Fsync(clk)
	w, r, fs := f.WriteStats.Snapshot(), f.ReadStats.Snapshot(), f.FsyncStats.Snapshot()
	if w.Count != 2 || r.Count != 1 || fs.Count != 1 {
		t.Fatalf("stats: w=%d r=%d f=%d", w.Count, r.Count, fs.Count)
	}
	if fs.Mean() <= w.Mean() {
		t.Fatal("fsync not slower than write")
	}
}

func TestSequentialFsyncLinearInSize(t *testing.T) {
	l16 := fsyncLatency(FFS, 16, false)
	l1024 := fsyncLatency(FFS, 1024, false)
	if l1024 < 10*l16 {
		t.Fatalf("sequential fsync not scaling: 16=%v 1024=%v", l16, l1024)
	}
	if l1024 > 100*l16 {
		t.Fatalf("sequential fsync superlinear: 16=%v 1024=%v", l16, l1024)
	}
}
