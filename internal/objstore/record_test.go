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
// of each level boundary — 60 blocks fill the record's top level, 61
// need a leaf below it, 30,720 fill two levels, 30,721 need a third —
// writing a block under every top-level slot and the last block. The
// last commit has power cut inside its record write or just after it;
// Open must then bring back the epoch the record names, the tree depth
// levelsFor gives, and every block as the model holds it at that epoch.
// A cut inside the record lands it or not by the seed, each of its
// sectors independently; the seeds are tried until both are seen.
func TestRecordRootAcrossLevelBoundaries(t *testing.T) {
	for _, tc := range []struct {
		blocks int64
		levels int
	}{{60, 1}, {61, 2}, {30720, 2}, {30721, 3}} {
		t.Run(fmt.Sprintf("%d/inside", tc.blocks), func(t *testing.T) {
			seen := map[int]bool{}
			for seed := uint64(1); seed <= 64 && !(seen[3] && seen[4]) && !t.Failed(); seed++ {
				seen[recordRoundTrip(t, tc.blocks, tc.levels, seed, true)] = true
			}
			if !seen[3] || !seen[4] {
				t.Errorf("cuts inside the record recovered epochs %v, want both 3 and 4", seen)
			}
		})
		t.Run(fmt.Sprintf("%d/after", tc.blocks), func(t *testing.T) {
			if e := recordRoundTrip(t, tc.blocks, tc.levels, 1, false); e != 4 {
				t.Errorf("cut after the record recovered epoch %d, want 4", e)
			}
		})
	}
}

// recordRoundTrip makes four commits, cuts power with rng seed, opens
// the store, checks it against the model and returns the recovered
// epoch.
func recordRoundTrip(t *testing.T, blocks int64, levels int, seed uint64, inside bool) int {
	t.Helper()
	costs := sim.DefaultCosts()
	arr := disk.NewArray(costs, 2, 64<<20)
	s, at, err := Format(costs, arr, 0)
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
	// models[e] is every block's commit number at epoch e (0 = never
	// written).
	const commits = 4
	models := make([][]int, commits+1)
	models[0] = make([]int, blocks)
	var lastAt, done time.Duration
	for c := 1; c <= commits; c++ {
		models[c] = append([]int(nil), models[c-1]...)
		var writes []BlockWrite
		add := func(idx int64) {
			if idx < blocks && models[c][idx] != c {
				models[c][idx] = c
				writes = append(writes, BlockWrite{Index: idx, Data: recordBlock(idx, c)})
			}
		}
		for slot := int64(0); slot*span < blocks; slot++ {
			add(slot*span + int64(c*7)%span)
		}
		add(blocks - 1)
		lastAt = at
		if _, done, err = o.Commit(at, writes); err != nil {
			t.Fatal(err)
		}
		at = done
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

	re, rat, err := Open(costs, arr, done)
	if err != nil {
		t.Fatal(err)
	}
	ro, err := re.OpenObject("o")
	if err != nil {
		t.Fatal(err)
	}
	epoch := int(ro.Epoch())
	if epoch < commits-1 || epoch > commits {
		t.Fatalf("recovered epoch %d, want %d or %d", epoch, commits-1, commits)
	}
	if ro.tree.levels != levels {
		t.Fatalf("recovered %d tree levels, want %d", ro.tree.levels, levels)
	}
	buf, zero := make([]byte, BlockSize), make([]byte, BlockSize)
	for idx, c := range models[epoch] {
		wantBuf := zero
		if c != 0 {
			wantBuf = recordBlock(int64(idx), c)
		}
		if _, err := ro.ReadBlock(rat, int64(idx), buf); err != nil || !bytes.Equal(buf, wantBuf) {
			t.Fatalf("epoch %d block %d reads byte %#x, want commit %d's block (0 = zeroes; err %v)",
				epoch, idx, buf[8], c, err)
		}
	}
	return epoch
}

// TestOpenRejectsRecordLevels rewrites an object's newest commit record
// with a validly checksummed Levels one off the object's depth: Open
// must refuse it. The same record with the right Levels opens.
func TestOpenRejectsRecordLevels(t *testing.T) {
	costs := sim.DefaultCosts()
	arr := disk.NewArray(costs, 2, 64<<20)
	s, at, err := Format(costs, arr, 0)
	if err != nil {
		t.Fatal(err)
	}
	o, at, err := s.CreateObject(at, "o", 1024*BlockSize)
	if err != nil {
		t.Fatal(err)
	}
	if _, at, err = o.Commit(at, []BlockWrite{{Index: 700, Data: block(7)}}); err != nil {
		t.Fatal(err)
	}
	levels := o.tree.levels
	for _, l := range []int{levels - 1, levels + 1, levels} {
		rec := sealRecord(slices.Clone(o.rec), uint64(o.epoch), l)
		at = arr.Write(at, o.ringOff+(o.slot^1)*recSlotBytes, rec)
		_, _, err := Open(costs, arr, at)
		switch {
		case l != levels && (err == nil || !strings.Contains(err.Error(), "tree levels")):
			t.Errorf("record with %d levels for a %d-level object: Open err %v, want a levels error", l, levels, err)
		case l == levels && err != nil:
			t.Errorf("record with the right %d levels: Open err %v", l, err)
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

// TestRecoverCommitCutRecover recovers an object whose newest record
// carries entries of three commits, commits once more on the recovered
// store, then recovers again after that commit is durable and after a
// cut inside the next one: every block must come back from the last
// durable epoch, including the blocks only the first record named.
func TestRecoverCommitCutRecover(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		arr, h, at := newRecordStore(t, 4096)
		at = h.commit(at, 3, 700, 2000)
		at = h.commit(at, 700, 1500)
		at = h.commit(at, 3, 4095)
		if n := entryCount(h.o.rec); n != 5 {
			t.Fatalf("%d pending entries, want 5", n)
		}
		h, at = h.recover(arr, at, 3, 3)
		if n := entryCount(h.o.rec); n != 5 {
			t.Fatalf("recovered %d pending entries, want 5", n)
		}
		at = h.commit(at, 10, 1500)
		h2, _ := h.recover(arr, at, 4, 4)
		var got []int64
		for _, e := range pendingEntries(h2.o) {
			idx, _ := unpackEntry(e)
			got = append(got, idx)
		}
		if !slices.Equal(got, []int64{3, 10, 700, 1500, 2000, 4095}) {
			t.Fatalf("pending after the second recovery %v", got)
		}
		done := h.commit(at, 11, 2000)
		arr.CutPower(done-1, sim.NewRNG(seed))
		h.recover(arr, done, 4, 5)
	}
}

// TestTornRecordEnumerated makes a commit whose record takes four
// sectors, each unlike the slot's previous contents, then rolls back
// every subset of them to those contents by writing them back: Open
// must land on the new epoch when none is rolled back and on the
// previous one otherwise, with every block as that epoch left it.
func TestTornRecordEnumerated(t *testing.T) {
	arr, h, at := newRecordStore(t, 4096)
	// Each commit rewrites the blocks before it, so no entry keeps its
	// address from one record to the next.
	for c := 1; c <= 3; c++ {
		at = h.commit(at, run(0, 40*c)...)
	}
	o := h.o
	slotOff := o.ringOff + o.slot*recSlotBytes
	old := make([]byte, recSlotBytes)
	at = arr.Read(at, slotOff, old)
	at = h.commit(at, run(0, 160)...)
	const sectors = 4
	if n := recordSize(entryCount(o.rec)); n != sectors*sectorSize {
		t.Fatalf("record of %d entries takes %d bytes, want %d sectors", entryCount(o.rec), n, sectors)
	}
	cur := make([]byte, recSlotBytes)
	at = arr.Read(at, slotOff, cur)
	for mask := 0; mask < 1<<sectors; mask++ {
		for s := 0; s < sectors; s++ {
			sec := old[s*sectorSize : (s+1)*sectorSize]
			if bytes.Equal(sec, cur[s*sectorSize:(s+1)*sectorSize]) {
				t.Fatalf("sector %d of the record equals the slot's previous contents", s)
			}
			if mask&(1<<s) != 0 {
				at = arr.Write(at, slotOff+int64(s*sectorSize), sec)
			}
		}
		want := 4
		if mask != 0 {
			want = 3
		}
		h.recover(arr, at, want, want)
		at = arr.Write(at, slotOff, cur[:sectors*sectorSize])
	}
}

// TestPipelinedRecordsKeepDurableRecord issues two commits of one
// object at once — the second before the first is durable, as MSAsync
// persists do — after two durable ones, and cuts power at every
// microsecond from their issue to past the second's record, under
// several seeds. The durable commits fill the rest of the ring's 64 KiB
// stripe and the next one, so the first pipelined commit's 16 blocks
// queue on the ring's device and the second's one block goes to the
// idle device and is written first. Recovery must never lose the
// durable epoch, must keep the first pipelined commit once its record
// completed, and must bring back every block as the epoch it lands on
// left it.
func TestPipelinedRecordsKeepDurableRecord(t *testing.T) {
	for _, first := range []int{16, 8} {
		for seed := uint64(1); seed <= 4; seed++ {
			var done1, done2 time.Duration
			build := func() (*disk.Array, *history, time.Duration) {
				arr, h, at := newRecordStore(t, 1024)
				at = h.commit(at, run(0, 12)...)
				at = h.commit(at, run(12, 16)...)
				done1 = h.commit(at, run(100, first)...)
				done2 = h.commit(at, 1000)
				if done2 <= done1 {
					t.Fatalf("second record done at %v, not after the first's %v", done2, done1)
				}
				return arr, h, at
			}
			_, _, at := build()
			for cut := at; cut <= done2+time.Microsecond; cut += time.Microsecond {
				arr, h, _ := build()
				arr.CutPower(cut, sim.NewRNG(seed))
				lo := 2
				if cut >= done1 {
					lo = 3
				}
				h.recover(arr, done2, lo, 4)
			}
		}
	}
}

// TestRecordSlotBoundaries commits entries that exactly fill a record,
// one more that overflows it, and, on a fresh object, more than a
// record holds in one commit. Each commit's bytes on disk must be its
// data blocks, the leaves a flush writes and a record of whole sectors;
// power is cut after it and inside it, and Open must land on its epoch
// or, from inside, on its epoch or the one before.
func TestRecordSlotBoundaries(t *testing.T) {
	type step struct {
		idxs    []int64
		leaves  int64 // leaves the commit writes
		pending int   // entries the record carries
	}
	for _, tc := range []struct {
		name  string
		steps []step
	}{
		{"fills", []step{{run(0, recEntries), 0, recEntries}}},
		{"overflows", []step{{run(0, recEntries), 0, recEntries}, {[]int64{4000}, 2, 0}}},
		{"alone", []step{{run(500, recEntries+1), 2, 0}}},
	} {
		for _, inside := range []bool{false, true} {
			for seed := uint64(1); seed <= 4; seed++ {
				arr, h, at := newRecordStore(t, 4096)
				var last time.Duration
				for _, st := range tc.steps {
					before := arr.Stats().BytesWritten
					last = at
					at = h.commit(at, st.idxs...)
					want := (int64(len(st.idxs))+st.leaves)*BlockSize + int64(recordSize(st.pending))
					if got := arr.Stats().BytesWritten - before; got != want || entryCount(h.o.rec) != st.pending {
						t.Fatalf("%s: commit of %d blocks wrote %d bytes and left %d pending, want %d and %d",
							tc.name, len(st.idxs), got, entryCount(h.o.rec), want, st.pending)
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
