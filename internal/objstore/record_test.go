package objstore

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"memsnap/internal/disk"
	"memsnap/internal/sim"
)

// recordBlock is block idx's contents as commit c writes it: the index
// in the first 8 bytes, the commit number in the rest.
func recordBlock(idx int64, c int) []byte {
	b := block(byte(0x10 + c))
	binary.LittleEndian.PutUint64(b, uint64(idx))
	return b
}

// TestRecordRootAcrossLevelBoundaries commits to objects on both sides
// of each level boundary — 60 blocks fill the base's top level, 61
// need a leaf below it, 30,720 fill two levels, 30,721 need a third —
// writing a block under every top-level slot and the last block in
// each commit, up to the object's first flush or three commits past
// it. The last commit, the flush's base or a delta after it, has power
// cut inside its record write or just after it; Open must then bring
// back the epoch the record names or, from inside, the one before, the
// tree depth levelsFor gives, and every block as the model holds it at
// that epoch. A cut inside the record lands it or not by the seed,
// each of its sectors independently; the seeds are tried until both
// are seen.
func TestRecordRootAcrossLevelBoundaries(t *testing.T) {
	for _, tc := range []struct {
		blocks int64
		levels int
	}{{60, 1}, {61, 2}, {30720, 2}, {30721, 3}} {
		for _, inside := range []bool{true, false} {
			name := fmt.Sprintf("%d/after", tc.blocks)
			if inside {
				name = fmt.Sprintf("%d/inside", tc.blocks)
			}
			t.Run(name, func(t *testing.T) {
				for _, flushLast := range []bool{false, true} {
					if !inside {
						if back := recordRoundTrip(t, tc.blocks, tc.levels, 1, false, flushLast); back != 0 {
							t.Errorf("flush last %v: cut after the record recovered the epoch %d before it", flushLast, back)
						}
						continue
					}
					seen := map[int]bool{}
					for seed := uint64(1); seed <= 64 && !(seen[0] && seen[1]) && !t.Failed(); seed++ {
						seen[recordRoundTrip(t, tc.blocks, tc.levels, seed, true, flushLast)] = true
					}
					if !seen[0] || !seen[1] {
						t.Errorf("flush last %v: cuts inside the record recovered epochs %v back, want both 0 and 1", flushLast, seen)
					}
				}
			})
		}
	}
}

// recordRoundTrip commits up to the object's first flush (flushLast)
// or three commits past it, cuts power with rng seed, opens the store,
// checks it against the model and returns how many epochs before the
// last commit's the recovered one is.
func recordRoundTrip(t *testing.T, blocks int64, levels int, seed uint64, inside, flushLast bool) int {
	t.Helper()
	arr := disk.NewArray(nil, 2, 64<<20)
	s, at, err := Format(nil, arr, 0)
	if err != nil {
		t.Fatal(err)
	}
	o, at, err := s.CreateObject(at, "o", blocks*BlockSize)
	if err != nil {
		t.Fatal(err)
	}
	if o.tree.levels != levels {
		t.Fatalf("%d blocks: %d tree levels, want %d", blocks, o.tree.levels, levels)
	}
	span := int64(1) << o.tree.topShift
	// prev and cur are every block's commit number before and after the
	// last commit (0 = never written).
	prev, cur := make([]int, blocks), make([]int, blocks)
	var lastAt, done time.Duration
	last := 0
	for sinceFlush := -1; sinceFlush < 3 && !(flushLast && sinceFlush == 0); {
		last++
		copy(prev, cur)
		var writes []BlockWrite
		add := func(idx int64) {
			if idx < blocks && cur[idx] != last {
				cur[idx] = last
				writes = append(writes, BlockWrite{Index: idx, Data: recordBlock(idx, last)})
			}
		}
		for slot := int64(0); slot*span < blocks; slot++ {
			add(slot*span + int64(last*7)%span)
		}
		add(blocks - 1)
		lastAt = at
		if _, done, err = o.Commit(at, writes); err != nil {
			t.Fatal(err)
		}
		at = done
		switch {
		case o.logPos == 0:
			sinceFlush = 0
		case sinceFlush >= 0:
			sinceFlush++
		}
	}

	// The record is the commit's last write and takes at least a base
	// latency, so one nanosecond before durable it is still in flight.
	if done-1 <= lastAt {
		t.Fatalf("last commit took %v", done-lastAt)
	}
	cut := done
	if inside {
		cut = done - 1
	}
	arr.CutPower(cut, sim.NewRNG(seed))

	re, rat, err := Open(nil, arr, done)
	if err != nil {
		t.Fatal(err)
	}
	ro, err := re.OpenObject("o")
	if err != nil {
		t.Fatal(err)
	}
	epoch := int(ro.Epoch())
	model := cur
	switch epoch {
	case last:
	case last - 1:
		model = prev
	default:
		t.Fatalf("recovered epoch %d, want %d or %d", epoch, last-1, last)
	}
	if ro.tree.levels != levels {
		t.Fatalf("recovered %d tree levels, want %d", ro.tree.levels, levels)
	}
	buf, zero := make([]byte, BlockSize), make([]byte, BlockSize)
	for idx, c := range model {
		wantBuf := zero
		if c != 0 {
			wantBuf = recordBlock(int64(idx), c)
		}
		if _, err := ro.ReadBlock(rat, int64(idx), buf); err != nil || !bytes.Equal(buf, wantBuf) {
			t.Fatalf("epoch %d block %d reads byte %#x, want commit %d's block (0 = zeroes; err %v)",
				epoch, idx, buf[8], c, err)
		}
	}
	return last - epoch
}

// TestOpenRejectsRecordLevels rewrites an object's base and then its
// newest delta with a validly checksummed Levels one off the object's
// depth: Open must refuse either. The same record with the right
// Levels opens.
func TestOpenRejectsRecordLevels(t *testing.T) {
	arr, h, at := newRecordStore(t, 1024)
	at = h.flush(at, 0)
	at = h.commit(at, 700)
	o := h.o
	levels := o.tree.levels
	for _, rec := range []struct {
		name  string
		off   int64
		magic uint64
	}{
		{"base", o.ringOff + (o.baseSlot^1)*sectorSize, magicBase},
		{"delta", o.ringOff + baseSlots*sectorSize, magicDelta},
	} {
		img := make([]byte, sectorSize)
		at = arr.Read(at, rec.off, img)
		n, ok := validRecord(img, rec.magic)
		if !ok {
			t.Fatalf("no valid %s at %d", rec.name, rec.off)
		}
		for _, l := range []int{levels - 1, levels + 1, levels} {
			at = arr.Write(at, rec.off, sealRecord(img, rec.magic, recordEpoch(img), l, n))
			_, _, err := Open(nil, arr, at)
			switch {
			case l != levels && (err == nil || !strings.Contains(err.Error(), "tree levels")):
				t.Errorf("%s with %d levels for a %d-level object: Open err %v, want a levels error", rec.name, l, levels, err)
			case l == levels && err != nil:
				t.Errorf("%s with the right %d levels: Open err %v", rec.name, l, err)
			}
		}
	}
}

// epochBlock is block idx's contents as the commit of epoch e writes
// it: the index and the epoch in the first 16 bytes, the epoch's low
// byte in the rest.
func epochBlock(idx int64, e int) []byte {
	b := block(byte(e))
	binary.LittleEndian.PutUint64(b, uint64(idx))
	binary.LittleEndian.PutUint64(b[8:], uint64(e))
	return b
}

// history commits to an object named "o" and keeps, for every epoch,
// the epoch that last wrote each block (0 = never written).
type history struct {
	t      *testing.T
	o      *Object
	models [][]int
}

func newHistory(t *testing.T, o *Object) *history {
	return &history{t: t, o: o, models: [][]int{make([]int, o.MaxBlocks())}}
}

// commit writes idxs at virtual time at as the next epoch and returns
// when it is durable.
func (h *history) commit(at time.Duration, idxs ...int64) time.Duration {
	h.t.Helper()
	e := int(h.o.Epoch()) + 1
	for len(h.models) <= e {
		h.models = append(h.models, slices.Clone(h.models[len(h.models)-1]))
	}
	writes := make([]BlockWrite, len(idxs))
	for i, idx := range idxs {
		h.models[e][idx] = e
		writes[i] = BlockWrite{Index: idx, Data: epochBlock(idx, e)}
	}
	got, done, err := h.o.Commit(at, writes)
	if err != nil || int(got) != e {
		h.t.Fatalf("commit of epoch %d: epoch %d, err %v", e, got, err)
	}
	return done
}

// recover opens the array at virtual time at, checks that the object
// has an epoch in [lo, hi] and that every block reads as that epoch
// left it, and returns the recovered history and the time Open ends.
func (h *history) recover(arr *disk.Array, at time.Duration, lo, hi int) (*history, time.Duration) {
	h.t.Helper()
	re, rat, err := Open(nil, arr, at)
	if err != nil {
		h.t.Fatal(err)
	}
	ro, err := re.OpenObject("o")
	if err != nil {
		h.t.Fatal(err)
	}
	e := int(ro.Epoch())
	if e < lo || e > hi {
		h.t.Fatalf("recovered epoch %d, want %d to %d", e, lo, hi)
	}
	buf, zero := make([]byte, BlockSize), make([]byte, BlockSize)
	for idx, w := range h.models[e] {
		want := zero
		if w != 0 {
			want = epochBlock(int64(idx), w)
		}
		if _, err := ro.ReadBlock(rat, int64(idx), buf); err != nil || !bytes.Equal(buf, want) {
			h.t.Fatalf("epoch %d: block %d holds epoch %d's write, want epoch %d's (0 = zeroes; err %v)",
				e, idx, binary.LittleEndian.Uint64(buf[8:]), w, err)
		}
	}
	return &history{t: h.t, o: ro, models: h.models[:e+1]}, rat
}

// flush commits idxs until a commit flushes the log, and returns when
// that commit is durable.
func (h *history) flush(at time.Duration, idxs ...int64) time.Duration {
	h.t.Helper()
	for {
		at = h.commit(at, idxs...)
		if h.o.logPos == 0 {
			return at
		}
	}
}

// run returns n consecutive indices from first.
func run(first int64, n int) []int64 {
	idxs := make([]int64, n)
	for i := range idxs {
		idxs[i] = first + int64(i)
	}
	return idxs
}

// newRecordStore formats a 64 MiB two-device array with one object "o"
// of blocks blocks.
func newRecordStore(t *testing.T, blocks int64) (*disk.Array, *history, time.Duration) {
	t.Helper()
	arr := disk.NewArray(nil, 2, 32<<20)
	s, at, err := Format(nil, arr, 0)
	if err != nil {
		t.Fatal(err)
	}
	o, at, err := s.CreateObject(at, "o", blocks*BlockSize)
	if err != nil {
		t.Fatal(err)
	}
	return arr, newHistory(t, o), at
}

// checkLog fails t unless o's next delta goes to log sector pos and
// its dirty leaves are those of dirty, one index each.
func checkLog(t *testing.T, o *Object, pos int, dirty []int64) {
	t.Helper()
	if o.logPos != pos || !slices.Equal(o.dirty, dirty) {
		t.Fatalf("log at sector %d with dirty leaves %v, want %d and %v", o.logPos, o.dirty, pos, dirty)
	}
}

// TestRecoverCommitCutRecover recovers an object whose log holds three
// deltas, commits once more on the recovered store and recovers again:
// each recovery must resume the log after the last delta it replayed
// and take every leaf the deltas set as dirty again. The recovered
// object then commits through a flush and past it, and power is cut
// inside its last commit: every block must come back from the last
// durable epoch, including the blocks only the replayed deltas named,
// which the flush must have written into their leaves.
func TestRecoverCommitCutRecover(t *testing.T) {
	dirty := []int64{3, 700, 1500, 2000, 4095}
	for seed := uint64(1); seed <= 8; seed++ {
		arr, h, at := newRecordStore(t, 4096)
		at = h.commit(at, 3, 700, 2000)
		at = h.commit(at, 700, 1500)
		at = h.commit(at, 3, 4095)
		checkLog(t, h.o, 3, dirty)
		h, at = h.recover(arr, at, 3, 3)
		checkLog(t, h.o, 3, dirty)
		at = h.commit(at, 10, 1500)
		h2, _ := h.recover(arr, at, 4, 4)
		checkLog(t, h2.o, 4, dirty)
		at = h.flush(at, 11)
		at = h.commit(at, 12)
		done := h.commit(at, 13, 2001)
		e := int(h.o.Epoch())
		arr.CutPower(done-1, sim.NewRNG(seed))
		h.recover(arr, done, e-1, e)
	}
}

// TestTornRecordEnumerated makes a commit whose delta takes four log
// sectors, which still hold one-sector deltas of the log's previous
// cycle, then rolls back every subset of them to those contents by
// writing them back: Open must land on the new epoch when none is
// rolled back and on the previous one otherwise, with every block as
// that epoch left it. A rolled-back first sector is a valid delta,
// older than the base, that replay must not take.
func TestTornRecordEnumerated(t *testing.T) {
	arr, h, at := newRecordStore(t, 4096)
	at = h.flush(at, 0)
	for c := 0; c < 10; c++ {
		at = h.commit(at, int64(c))
	}
	o := h.o
	off := o.ringOff + int64(baseSlots+o.logPos)*sectorSize
	const sectors = 4
	old := make([]byte, sectors*sectorSize)
	at = arr.Read(at, off, old)
	if _, ok := validRecord(old, magicDelta); !ok {
		t.Fatal("the log sector the delta goes to holds no stale delta")
	}
	at = h.commit(at, run(0, 200)...)
	if n := recordSectors(200); n != sectors || o.logPos != 10+sectors {
		t.Fatalf("delta of 200 entries takes %d sectors and left the log at %d, want %d and %d", n, o.logPos, sectors, 10+sectors)
	}
	cur := make([]byte, sectors*sectorSize)
	at = arr.Read(at, off, cur)
	e := int(o.Epoch())
	for mask := 0; mask < 1<<sectors; mask++ {
		for s := 0; s < sectors; s++ {
			sec := old[s*sectorSize : (s+1)*sectorSize]
			if bytes.Equal(sec, cur[s*sectorSize:(s+1)*sectorSize]) {
				t.Fatalf("sector %d of the delta equals the sector's previous contents", s)
			}
			if mask&(1<<s) != 0 {
				at = arr.Write(at, off+int64(s*sectorSize), sec)
			}
		}
		want := e
		if mask != 0 {
			want = e - 1
		}
		h.recover(arr, at, want, want)
		at = arr.Write(at, off, cur)
	}
}

// TestTornBaseKeepsOldLog fills the log up to each of an object's first
// three flushes and rolls the flush's base back to the slot's old
// contents — zeroes, zeroes, then the first flush's base — by writing
// them back: Open must recover the epoch before the flush from the
// previous base and the full log behind it, and, with the base
// restored, the flush's epoch.
func TestTornBaseKeepsOldLog(t *testing.T) {
	arr, h, at := newRecordStore(t, 4096)
	for flush := 1; flush <= 3; flush++ {
		for h.o.logPos < logSectors {
			at = h.commit(at, int64(h.o.logPos))
		}
		off := h.o.ringOff + h.o.baseSlot*sectorSize
		old, cur := make([]byte, sectorSize), make([]byte, sectorSize)
		at = arr.Read(at, off, old)
		at = h.commit(at, 5, 600, 3000+int64(flush))
		if h.o.logPos != 0 {
			t.Fatalf("flush %d: commit to a full log left it at sector %d", flush, h.o.logPos)
		}
		at = arr.Read(at, off, cur)
		e := int(h.o.Epoch())
		at = arr.Write(at, off, old)
		h.recover(arr, at, e-1, e-1)
		at = arr.Write(at, off, cur)
		h.recover(arr, at, e, e)
	}
}

// TestPipelinedRecordsKeepDurableRecord issues two commits of one
// object at once — the second before the first is durable, as MSAsync
// persists do — across a flush: the first fills the log and the second
// flushes, or the first flushes and the second starts the new log at
// sector 0, over the old log's first delta. Power is cut at every
// microsecond from their issue to past the second's record, under
// several seeds. A first durable commit pads the data so the first
// pipelined commit's 16 blocks fill one stripe unit of the ring's
// device, where its record queues behind them, and the second's blocks
// go to the other device and are written first. Recovery must never
// lose the durable epoch, must keep the first pipelined commit once its
// record completed, and must bring back every block as the epoch it
// lands on left it.
func TestPipelinedRecordsKeepDurableRecord(t *testing.T) {
	const unit = 16 // blocks in a stripe unit; the array has two devices
	for _, flushFirst := range []bool{false, true} {
		for seed := uint64(1); seed <= 2; seed++ {
			var issued, done1, done2 time.Duration
			var durable int
			build := func() (*disk.Array, *history) {
				arr, h, at := newRecordStore(t, 1024)
				full := logSectors - 1
				if flushFirst {
					full = logSectors
				}
				// The pad and full-1 one-block commits fill the log up to
				// full and end where a unit of the ring's device starts.
				ringDev := h.o.ringOff / BlockSize / unit % 2
				end := h.o.store.alloc.next/BlockSize + int64(full-1)
				pad := ((ringDev*unit-end)%(2*unit) + 2*unit) % (2 * unit)
				if pad == 0 {
					pad = 2 * unit
				}
				at = h.commit(at, run(600, int(pad))...)
				for h.o.logPos < full {
					at = h.commit(at, int64(h.o.logPos))
				}
				durable, issued = int(h.o.Epoch()), at
				done1 = h.commit(at, run(512, 16)...)
				done2 = h.commit(at, 1000)
				if done2 <= done1 {
					t.Fatalf("second record done at %v, not after the first's %v", done2, done1)
				}
				return arr, h
			}
			build()
			for cut := issued; cut <= done2+time.Microsecond; cut += time.Microsecond {
				arr, h := build()
				arr.CutPower(cut, sim.NewRNG(seed))
				lo := durable
				if cut >= done1 {
					lo++
				}
				h.recover(arr, done2, lo, durable+2)
			}
		}
	}
}

// TestLogBoundaries makes a delta that exactly fills the log after 124
// one-sector ones, one more commit that overflows it, and, on a fresh
// object, a commit larger than the whole log. Each commit's bytes on
// disk must be its data blocks and its delta's sectors, or, for a
// flush, its data blocks, the leaves it rewrites and the base; power
// is cut after the last commit and inside it, and Open must land on
// its epoch or, from inside, on its epoch or the one before.
func TestLogBoundaries(t *testing.T) {
	whole := (logSectors*sectorSize - recHeader - 8) / entrySize // entries of a delta filling the log
	type step struct {
		idxs   []int64
		repeat int
		leaves int64 // leaves the commit writes; -1 = none, it appends a delta
		log    int   // the log sector after the step
	}
	fill := []step{{[]int64{0}, logSectors - 2, -1, logSectors - 2}, {run(100, 61), 1, -1, logSectors}}
	for _, tc := range []struct {
		name  string
		steps []step
	}{
		{"fills", fill},
		{"overflows", append(fill, step{[]int64{4000}, 1, 2, 0})},
		{"alone", []step{{run(500, whole+1), 1, 17, 0}}},
	} {
		for _, inside := range []bool{false, true} {
			for seed := uint64(1); seed <= 4; seed++ {
				arr, h, at := newRecordStore(t, 16384)
				var last time.Duration
				for _, st := range tc.steps {
					want := int64(len(st.idxs)) * BlockSize
					if st.leaves < 0 {
						want += int64(recordSectors(len(st.idxs)) * sectorSize)
					} else {
						want += st.leaves*BlockSize + sectorSize
					}
					for r := 0; r < st.repeat; r++ {
						before := arr.Stats().BytesWritten
						last = at
						at = h.commit(at, st.idxs...)
						if got := arr.Stats().BytesWritten - before; got != want {
							t.Fatalf("%s: commit of %d blocks wrote %d bytes, want %d", tc.name, len(st.idxs), got, want)
						}
					}
					if h.o.logPos != st.log {
						t.Fatalf("%s: log at sector %d after a step, want %d", tc.name, h.o.logPos, st.log)
					}
				}
				e := int(h.o.Epoch())
				if !inside {
					h.recover(arr, at, e, e)
					break
				}
				if at-1 <= last {
					t.Fatalf("%s: last commit took %v", tc.name, at-last)
				}
				arr.CutPower(at-1, sim.NewRNG(seed))
				h.recover(arr, at, e-1, e)
			}
		}
	}
}

// TestOpenReadsRingOnce opens a store of three objects — a one-level
// one whose log is full, a two-level one with a base and three deltas,
// and one never flushed — and counts the device reads: the superblock,
// the directory ring, the directory block, one read of each object's
// whole ring (a stripe unit, on one device) and one per tree node on
// disk, nothing more.
func TestOpenReadsRingOnce(t *testing.T) {
	arr := disk.NewArray(nil, 2, 32<<20)
	s, at, err := Format(nil, arr, 0)
	if err != nil {
		t.Fatal(err)
	}
	var nodes int64
	for _, o := range []struct {
		blocks  int64
		commits int
	}{{60, logSectors}, {4096, logSectors + 4}, {4096, 5}} {
		obj, done, err := s.CreateObject(at, fmt.Sprint("o", o.blocks, o.commits), o.blocks*BlockSize)
		if err != nil {
			t.Fatal(err)
		}
		h := newHistory(t, obj)
		at = done
		for c := 0; c < o.commits; c++ {
			at = h.commit(at, int64(c)%o.blocks, o.blocks-1-int64(c)%o.blocks)
		}
		if o.commits > logSectors {
			// Two leaves, written by the flush.
			nodes += 2
		}
	}
	before := arr.Stats()
	if _, _, err := Open(nil, arr, at); err != nil {
		t.Fatal(err)
	}
	st := arr.Stats()
	reads, bytesRead := st.Reads-before.Reads, st.BytesRead-before.BytesRead
	wantReads := 1 + dirRingSlots + 1 + 3 + nodes
	wantBytes := int64(sectorSize+dirRingSlots*sectorSize+BlockSize) + 3*ringBytes + nodes*BlockSize
	if reads != wantReads || bytesRead != wantBytes {
		t.Fatalf("Open made %d device reads of %d bytes, want %d of %d", reads, bytesRead, wantReads, wantBytes)
	}
}
