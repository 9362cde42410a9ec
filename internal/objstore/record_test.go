package objstore

import (
	"bytes"
	"encoding/binary"
	"fmt"
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
// A cut inside the record lands it or not by the seed; the seeds here
// see both.
func TestRecordRootAcrossLevelBoundaries(t *testing.T) {
	for _, tc := range []struct {
		blocks int64
		levels int
	}{{60, 1}, {61, 2}, {30720, 2}, {30721, 3}} {
		t.Run(fmt.Sprintf("%d/inside", tc.blocks), func(t *testing.T) {
			seen := map[int]bool{}
			for seed := uint64(1); seed <= 8 && !t.Failed(); seed++ {
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
	span := o.tree.topDiv
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
	levels := int64(o.tree.levels)
	for _, l := range []int64{levels - 1, levels + 1, levels} {
		rec := commitRecord{Magic: magicObjRec, Epoch: uint64(o.epoch), Levels: l, Root: o.tree.root.img}
		buf := make([]byte, sectorSize)
		rec.marshalInto(buf)
		at = arr.Write(at, o.ringOff+int64(uint64(o.epoch)%objRingSlots)*sectorSize, buf)
		_, _, err := Open(costs, arr, at)
		switch {
		case l != levels && (err == nil || !strings.Contains(err.Error(), "tree levels")):
			t.Errorf("record with %d levels for a %d-level object: Open err %v, want a levels error", l, levels, err)
		case l == levels && err != nil:
			t.Errorf("record with the right %d levels: Open err %v", l, err)
		}
	}
}
