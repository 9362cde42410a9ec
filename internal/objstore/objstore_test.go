package objstore

import (
	"bytes"
	"fmt"
	"testing"
	"testing/quick"
	"time"

	"memsnap/internal/disk"
	"memsnap/internal/sim"
)

func newStore(t *testing.T) (*Store, *disk.Array) {
	t.Helper()
	costs := sim.DefaultCosts()
	arr := disk.NewArray(costs, 2, 64<<20)
	s, _, err := Format(costs, arr, 0)
	if err != nil {
		t.Fatal(err)
	}
	return s, arr
}

func block(b byte) []byte { return bytes.Repeat([]byte{b}, BlockSize) }

func TestCreateOpenObject(t *testing.T) {
	s, _ := newStore(t)
	obj, _, err := s.CreateObject(0, "alpha", 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if obj.Name() != "alpha" || obj.MaxBlocks() != 256 {
		t.Fatalf("object = %q max=%d", obj.Name(), obj.MaxBlocks())
	}
	got, err := s.OpenObject("alpha")
	if err != nil || got != obj {
		t.Fatal("OpenObject mismatch")
	}
	if _, err := s.OpenObject("missing"); err == nil {
		t.Fatal("missing object opened")
	}
	if _, _, err := s.CreateObject(0, "alpha", 4096); err == nil {
		t.Fatal("duplicate create allowed")
	}
	// A record entry names a block index in a uint32.
	if _, _, err := s.CreateObject(0, "huge", (maxPackedBlocks+1)*BlockSize); err == nil {
		t.Fatal("object of 2^32+1 blocks created")
	}
	if _, _, err := s.CreateObject(0, "largest", maxPackedBlocks*BlockSize); err != nil {
		t.Fatalf("object of 2^32 blocks: %v", err)
	}
}

func TestCommitReadBack(t *testing.T) {
	s, _ := newStore(t)
	obj, _, _ := s.CreateObject(0, "o", 1<<20)
	epoch, done, err := obj.Commit(0, []BlockWrite{
		{Index: 3, Data: block(0xAA)},
		{Index: 77, Data: block(0xBB)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if epoch != 1 {
		t.Fatalf("epoch = %d", epoch)
	}
	buf := make([]byte, BlockSize)
	if _, err := obj.ReadBlock(done, 3, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, block(0xAA)) {
		t.Fatal("block 3 mismatch")
	}
	obj.ReadBlock(done, 77, buf)
	if !bytes.Equal(buf, block(0xBB)) {
		t.Fatal("block 77 mismatch")
	}
	// Unwritten block reads as zeroes.
	obj.ReadBlock(done, 5, buf)
	if !bytes.Equal(buf, make([]byte, BlockSize)) {
		t.Fatal("sparse block not zero")
	}
}

func TestCommitOverwrite(t *testing.T) {
	s, _ := newStore(t)
	obj, _, _ := s.CreateObject(0, "o", 1<<20)
	_, done, _ := obj.Commit(0, []BlockWrite{{Index: 0, Data: block(1)}})
	_, done, _ = obj.Commit(done, []BlockWrite{{Index: 0, Data: block(2)}})
	buf := make([]byte, BlockSize)
	obj.ReadBlock(done, 0, buf)
	if buf[0] != 2 {
		t.Fatalf("overwrite lost: %d", buf[0])
	}
}

func TestEpochMonotonic(t *testing.T) {
	s, _ := newStore(t)
	obj, _, _ := s.CreateObject(0, "o", 1<<20)
	var at time.Duration
	for i := 1; i <= 20; i++ {
		epoch, done, err := obj.Commit(at, []BlockWrite{{Index: int64(i % 5), Data: block(byte(i))}})
		if err != nil {
			t.Fatal(err)
		}
		if epoch != Epoch(i) {
			t.Fatalf("epoch = %d at commit %d", epoch, i)
		}
		at = done
	}
}

func TestShortWritePadded(t *testing.T) {
	s, _ := newStore(t)
	obj, _, _ := s.CreateObject(0, "o", 1<<20)
	_, done, err := obj.Commit(0, []BlockWrite{{Index: 9, Data: []byte("short")}})
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, BlockSize)
	obj.ReadBlock(done, 9, buf)
	if string(buf[:5]) != "short" || buf[5] != 0 {
		t.Fatal("short write not padded")
	}
}

func TestCommitOutOfRange(t *testing.T) {
	s, _ := newStore(t)
	obj, _, _ := s.CreateObject(0, "o", 8*BlockSize)
	if _, _, err := obj.Commit(0, []BlockWrite{{Index: 8, Data: block(1)}}); err == nil {
		t.Fatal("out-of-range commit accepted")
	}
	if _, _, err := obj.Commit(0, []BlockWrite{{Index: -1, Data: block(1)}}); err == nil {
		t.Fatal("negative index accepted")
	}
	if _, err := obj.ReadBlock(0, 99, make([]byte, BlockSize)); err == nil {
		t.Fatal("out-of-range read accepted")
	}
}

func TestRecoveryRoundTrip(t *testing.T) {
	costs := sim.DefaultCosts()
	arr := disk.NewArray(costs, 2, 64<<20)
	s, at, _ := Format(costs, arr, 0)
	objA, at, _ := s.CreateObject(at, "a", 1<<20)
	objB, at, _ := s.CreateObject(at, "b", 1<<20)
	_, at, _ = objA.Commit(at, []BlockWrite{{Index: 1, Data: block(0x11)}})
	_, at, _ = objB.Commit(at, []BlockWrite{{Index: 2, Data: block(0x22)}})
	_, at, _ = objA.Commit(at, []BlockWrite{{Index: 1, Data: block(0x33)}, {Index: 200, Data: block(0x44)}})

	// Reopen from the raw array: everything must come back.
	s2, at2, err := Open(costs, arr, at)
	if err != nil {
		t.Fatal(err)
	}
	if names := s2.Objects(); len(names) != 2 {
		t.Fatalf("objects after recovery: %v", names)
	}
	a2, _ := s2.OpenObject("a")
	if a2.Epoch() != 2 {
		t.Fatalf("a epoch = %d", a2.Epoch())
	}
	buf := make([]byte, BlockSize)
	a2.ReadBlock(at2, 1, buf)
	if buf[0] != 0x33 {
		t.Fatalf("a block1 = %#x", buf[0])
	}
	a2.ReadBlock(at2, 200, buf)
	if buf[0] != 0x44 {
		t.Fatalf("a block200 = %#x", buf[0])
	}
	b2, _ := s2.OpenObject("b")
	b2.ReadBlock(at2, 2, buf)
	if buf[0] != 0x22 {
		t.Fatalf("b block2 = %#x", buf[0])
	}
	if got := a2.WrittenBlocks(); len(got) != 2 || got[0] != 1 || got[1] != 200 {
		t.Fatalf("WrittenBlocks = %v", got)
	}
}

func TestTornCommitInvisibleAfterRecovery(t *testing.T) {
	costs := sim.DefaultCosts()
	arr := disk.NewArray(costs, 2, 64<<20)
	s, at, _ := Format(costs, arr, 0)
	obj, at, _ := s.CreateObject(at, "o", 1<<20)
	_, at, _ = obj.Commit(at, []BlockWrite{{Index: 0, Data: block(0xA0)}})

	// Submit a second commit but cut power before it is durable.
	_, done, _ := obj.Commit(at, []BlockWrite{{Index: 0, Data: block(0xB0)}})
	cut := at + (done-at)/2
	arr.CutPower(cut, sim.NewRNG(99))

	s2, at2, err := Open(costs, arr, done)
	if err != nil {
		t.Fatal(err)
	}
	o2, _ := s2.OpenObject("o")
	buf := make([]byte, BlockSize)
	o2.ReadBlock(at2, 0, buf)
	// Either the new commit fully made it (record sector survived) or
	// we are back at epoch 1 contents. Never garbage.
	switch {
	case buf[0] == 0xB0 && o2.Epoch() == 2:
	case buf[0] == 0xA0 && o2.Epoch() == 1:
	default:
		t.Fatalf("corrupt state after torn commit: byte=%#x epoch=%d", buf[0], o2.Epoch())
	}
	for _, b := range buf {
		if b != buf[0] {
			t.Fatal("torn data visible through recovered tree")
		}
	}
}

// TestCrashTortureManyCuts commits a run of durable commits, then one
// more torn at a random instant, and checks that recovery always lands
// on a complete epoch. Each commit writes block 0 or its own block,
// block 500 and 40 filler blocks, a one-sector delta; the runs grow by
// six commits a seed, up to 295, so the torn commit falls at points
// spread over two log cycles, the second flush included.
func TestCrashTortureManyCuts(t *testing.T) {
	const fillers = 40
	costs := sim.DefaultCosts()
	flushes := 0
	for seed := uint64(0); seed < 50; seed++ {
		rng := sim.NewRNG(seed + 1000)
		arr := disk.NewArray(costs, 2, 64<<20)
		s, at, _ := Format(costs, arr, 0)
		obj, at, _ := s.CreateObject(at, "o", 16<<20)
		writes := func(i int64, val byte) []BlockWrite {
			w := []BlockWrite{{Index: i, Data: block(val)}, {Index: 500, Data: block(val)}}
			for j := int64(0); j < fillers; j++ {
				w = append(w, BlockWrite{Index: 1000 + (i*fillers+j)%2000, Data: block(val)})
			}
			return w
		}

		// A run of durable commits.
		nDurable := 1 + 6*int(seed)
		for i := 0; i < nDurable; i++ {
			_, at, _ = obj.Commit(at, writes(int64(i), durableVal(i)))
		}
		// One in-flight commit, torn at a random instant.
		torn := writes(0, 0xEE)
		_, done, _ := obj.Commit(at, torn)
		if obj.logPos == 0 {
			flushes++
		}
		cut := at + time.Duration(rng.Int63n(int64(done-at)+1))
		arr.CutPower(cut, rng)

		s2, at2, err := Open(costs, arr, done)
		if err != nil {
			t.Fatalf("seed %d: recovery failed: %v", seed, err)
		}
		o2, _ := s2.OpenObject("o")
		b0, b500 := make([]byte, BlockSize), make([]byte, BlockSize)
		o2.ReadBlock(at2, 0, b0)
		o2.ReadBlock(at2, 500, b500)
		// Block 0 and block 500 were always written in the same
		// commit, so they must agree on the epoch they came from.
		if b500[0] != durableVal(nDurable-1) && b500[0] != 0xEE {
			t.Fatalf("seed %d: block 500 from unknown epoch: %#x", seed, b500[0])
		}
		if b500[0] == 0xEE && b0[0] != 0xEE {
			t.Fatalf("seed %d: atomicity violated: b0=%#x b500=%#x", seed, b0[0], b500[0])
		}
		if b0[0] == 0xEE && b500[0] != 0xEE {
			t.Fatalf("seed %d: atomicity violated: b0=%#x b500=%#x", seed, b0[0], b500[0])
		}
		for i, b := range b0 {
			if b != b0[0] {
				t.Fatalf("seed %d: torn block content at %d", seed, i)
			}
		}
		// So was every filler of the torn commit.
		buf := make([]byte, BlockSize)
		for _, w := range torn[2:] {
			o2.ReadBlock(at2, w.Index, buf)
			if (buf[0] == 0xEE) != (b500[0] == 0xEE) {
				t.Fatalf("seed %d: block %d reads %#x with block 500 at %#x", seed, w.Index, buf[0], b500[0])
			}
		}
	}
	if flushes == 0 {
		t.Fatal("no torn commit was a flush")
	}
}

// durableVal is the byte durable commit i of TestCrashTortureManyCuts
// writes: never 0xEE, the torn commit's.
func durableVal(i int) byte { return byte(0x10 + i%0xC0) }

func TestSpaceReclamation(t *testing.T) {
	// Overwriting the same block forever must not leak space.
	s, _ := newStore(t)
	obj, _, _ := s.CreateObject(0, "o", 1<<20)
	var at time.Duration
	_, at, _ = obj.Commit(at, []BlockWrite{{Index: 0, Data: block(0)}})
	baseline := s.FreeBlocks()
	for i := 0; i < 200; i++ {
		_, done, err := obj.Commit(at, []BlockWrite{{Index: 0, Data: block(byte(i))}})
		if err != nil {
			t.Fatal(err)
		}
		at = done
	}
	if got := s.FreeBlocks(); baseline-got > 8 {
		t.Fatalf("space leak: free went %d -> %d over 200 overwrites", baseline, got)
	}
}

func TestRandomCommitsSequentialOnDisk(t *testing.T) {
	// The paper: "MemSnap's COW object store translates random object
	// updates into sequential writes on disk." With a bump allocator
	// and vectored IO, a commit of N random blocks should cost far
	// less than N separate random IOs.
	costs := sim.DefaultCosts()
	s, _ := newStore(t)
	obj, _, _ := s.CreateObject(0, "o", 16<<20)
	rng := sim.NewRNG(1)
	writes := make([]BlockWrite, 16)
	for i := range writes {
		writes[i] = BlockWrite{Index: rng.Int63n(4096), Data: block(byte(i))}
	}
	_, done, err := obj.Commit(0, writes)
	if err != nil {
		t.Fatal(err)
	}
	perPageRandom := 16 * costs.IOCost(BlockSize)
	if done >= perPageRandom {
		t.Fatalf("random commit %v not faster than 16 random IOs %v", done, perPageRandom)
	}
}

func TestCommitRecordOrderedAfterData(t *testing.T) {
	// The commit record must be a second IO phase: total latency of a
	// commit is strictly greater than the data IO alone.
	costs := sim.DefaultCosts()
	s, _ := newStore(t)
	obj, _, _ := s.CreateObject(0, "o", 1<<20)
	_, done, _ := obj.Commit(0, []BlockWrite{{Index: 0, Data: block(1)}})
	if done < 2*costs.DiskBaseLatency {
		t.Fatalf("commit %v too fast for two ordered IO phases", done)
	}
}

// TestEmptyCommit takes an epoch with an empty commit, which writes
// nothing, then commits a block: recovery must replay that commit's
// delta although its epoch skips the empty one's.
func TestEmptyCommit(t *testing.T) {
	s, arr := newStore(t)
	obj, _, _ := s.CreateObject(0, "o", 1<<20)
	epoch, done, err := obj.Commit(5*time.Microsecond, nil)
	if err != nil || epoch != 1 || done != 5*time.Microsecond {
		t.Fatalf("empty commit: epoch=%d done=%v err=%v", epoch, done, err)
	}
	if _, done, err = obj.Commit(done, []BlockWrite{{Index: 7, Data: block(7)}}); err != nil {
		t.Fatal(err)
	}
	re, rat, err := Open(nil, arr, done)
	if err != nil {
		t.Fatal(err)
	}
	ro, _ := re.OpenObject("o")
	buf := make([]byte, BlockSize)
	if _, err := ro.ReadBlock(rat, 7, buf); err != nil || ro.Epoch() != 2 || !bytes.Equal(buf, block(7)) {
		t.Fatalf("recovered epoch %d, block 7 reads %d... (err %v), want epoch 2 and 7s", ro.Epoch(), buf[0], err)
	}
}

func TestManyObjectsIndependentEpochs(t *testing.T) {
	s, _ := newStore(t)
	var at time.Duration
	for i := 0; i < 10; i++ {
		obj, done, err := s.CreateObject(at, fmt.Sprintf("obj%d", i), 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		at = done
		for j := 0; j <= i; j++ {
			_, at, _ = obj.Commit(at, []BlockWrite{{Index: 0, Data: block(byte(j))}})
		}
		if obj.Epoch() != Epoch(i+1) {
			t.Fatalf("obj%d epoch = %d", i, obj.Epoch())
		}
	}
}

// TestCommitRecoverProperty commits runs of up to 300 commits of up to
// 24 blocks each — one-sector deltas, enough to fill the log and flush
// it twice — and checks that Open recovers every block exactly.
func TestCommitRecoverProperty(t *testing.T) {
	flushes := 0
	f := func(seed uint64, nCommits uint16) bool {
		costs := sim.DefaultCosts()
		rng := sim.NewRNG(seed)
		arr := disk.NewArray(costs, 2, 64<<20)
		s, at, _ := Format(costs, arr, 0)
		obj, at, _ := s.CreateObject(at, "o", 4<<20)
		want := make(map[int64]byte)
		n := int(nCommits)%300 + 1
		for c := 0; c < n; c++ {
			var writes []BlockWrite
			for w := 0; w < 1+int(rng.Uint64()%24); w++ {
				idx := rng.Int63n(1024)
				val := byte(rng.Uint64())
				writes = append(writes, BlockWrite{Index: idx, Data: block(val)})
				want[idx] = val
			}
			_, done, err := obj.Commit(at, writes)
			if err != nil {
				return false
			}
			if obj.logPos == 0 {
				flushes++
			}
			at = done
		}
		s2, at2, err := Open(costs, arr, at)
		if err != nil {
			return false
		}
		o2, _ := s2.OpenObject("o")
		buf := make([]byte, BlockSize)
		for idx, val := range want {
			o2.ReadBlock(at2, idx, buf)
			if buf[0] != val || buf[BlockSize-1] != val {
				return false
			}
		}
		return true
	}
	// Fixed runs of 300 commits, long enough to flush twice and start
	// a third log cycle, then arbitrary ones.
	for seed := uint64(1); seed <= 4; seed++ {
		if !f(seed, 299) {
			t.Fatalf("seed %d: 300 commits not recovered exactly", seed)
		}
	}
	if flushes != 8 {
		t.Fatalf("%d flushes in four runs of 300 commits, want 8", flushes)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// MaxBlocks returns the object's capacity in blocks.
func (o *Object) MaxBlocks() int64 { return o.maxBlocks }

// WrittenBlocks returns the indices of all blocks ever written, in
// order.
func (o *Object) WrittenBlocks() []int64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	var idxs []int64
	o.tree.forEach(func(idx, _ int64) { idxs = append(idxs, idx) })
	return idxs
}

// FreeBlocks reports allocatable space.
func (s *Store) FreeBlocks() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.alloc.freeBlocks()
}
