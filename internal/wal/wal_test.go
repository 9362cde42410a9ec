package wal

import (
	"encoding/binary"
	"testing"

	"memsnap/internal/disk"
	"memsnap/internal/fs"
	"memsnap/internal/sim"
)

func newFS() *fs.FS {
	costs := sim.DefaultCosts()
	return fs.New(costs, disk.NewArray(costs, 2, 128<<20), fs.FFS)
}

// reopen returns a second handle on w's file, positioned after its
// valid prefix, and the records of that prefix: the recovery reader
// that checks what Append, Sync and Reset leave in the file, read up
// to w's append offset and stopping at a truncated or torn record.
func reopen(clk *sim.Clock, w *WAL) (*WAL, []string) {
	r := &WAL{file: w.file}
	var recs []string
	for r.offset+headerSize <= w.offset {
		hdr := make([]byte, headerSize)
		w.file.Read(clk, r.offset, hdr)
		n := int64(binary.LittleEndian.Uint32(hdr))
		if n == 0 || r.offset+headerSize+n > w.offset {
			break
		}
		rec := make([]byte, n)
		w.file.Read(clk, r.offset+headerSize, rec)
		if checksum(rec) != binary.LittleEndian.Uint64(hdr[4:]) {
			break
		}
		recs = append(recs, string(rec))
		r.offset += headerSize + n
	}
	return r, recs
}

func TestAppendReplay(t *testing.T) {
	fsys := newFS()
	clk := sim.NewClock()
	w := Create(fsys, clk, "wal")
	recs := []string{"one", "twotwo", "three33"}
	for _, r := range recs {
		w.Append(clk, []byte(r))
	}
	w.Sync(clk)
	_, got := reopen(clk, w)
	if len(got) != 3 {
		t.Fatalf("replayed %d records", len(got))
	}
	for i := range recs {
		if got[i] != recs[i] {
			t.Fatalf("record %d = %q", i, got[i])
		}
	}
}

func TestAppendAfterOpenContinues(t *testing.T) {
	fsys := newFS()
	clk := sim.NewClock()
	w := Create(fsys, clk, "wal")
	w.Append(clk, []byte("first"))
	w.Sync(clk)
	w2, _ := reopen(clk, w)
	w2.Append(clk, []byte("second"))
	if _, got := reopen(clk, w2); len(got) != 2 || got[1] != "second" {
		t.Fatalf("records after reopen-append: %v", got)
	}
}

func TestReplayStopsAtTornRecord(t *testing.T) {
	fsys := newFS()
	clk := sim.NewClock()
	w := Create(fsys, clk, "wal")
	w.Append(clk, []byte("durable-record"))
	w.Sync(clk)
	// A record written but never synced, then "crashed": simulate the
	// torn tail by writing garbage where the checksum would be.
	off := w.Append(clk, []byte("torn-record!"))
	w.File().Write(clk, off+4, []byte{0xDE, 0xAD, 0xBE, 0xEF, 0, 0, 0, 0})
	w.Sync(clk)

	if _, got := reopen(clk, w); len(got) != 1 || got[0] != "durable-record" {
		t.Fatalf("replay past torn record: %v", got)
	}
}

func TestReset(t *testing.T) {
	fsys := newFS()
	clk := sim.NewClock()
	w := Create(fsys, clk, "wal")
	w.Append(clk, []byte("a"))
	w.Sync(clk)
	w.Reset(clk)
	if w.Size() != 0 {
		t.Fatalf("after reset: size=%d", w.Size())
	}
	if _, got := reopen(clk, w); len(got) != 0 {
		t.Fatal("records survived reset")
	}
}

func TestSizeGrows(t *testing.T) {
	fsys := newFS()
	clk := sim.NewClock()
	w := Create(fsys, clk, "wal")
	w.Append(clk, make([]byte, 1000))
	if w.Size() != 1012 {
		t.Fatalf("size = %d", w.Size())
	}
}
