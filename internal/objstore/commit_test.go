package objstore

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"memsnap/internal/disk"
	"memsnap/internal/sim"
)

// objectState renders everything a failed commit must leave alone: the
// object's epoch, every node's address, every leaf
// mapping, the spare buffers (by identity), and the allocator's bump
// pointer, free list and quarantine.
func objectState(o *Object) string {
	var b strings.Builder
	fmt.Fprintf(&b, "epoch %d\n", o.epoch)
	var nodes func(n *node, levelsLeft int)
	nodes = func(n *node, levelsLeft int) {
		fmt.Fprintf(&b, "node %d\n", n.addr)
		if levelsLeft > 1 {
			for _, kid := range n.kids {
				if kid != nil {
					nodes(kid, levelsLeft-1)
				}
			}
		}
	}
	nodes(o.tree.root, o.tree.levels)
	o.tree.forEach(func(idx, addr int64) { fmt.Fprintf(&b, "block %d at %d\n", idx, addr) })
	for i, sp := range o.spares {
		fmt.Fprintf(&b, "spare %d %p\n", i, sp)
	}
	a := o.store.alloc
	fmt.Fprintf(&b, "next %d free %v quarantine %v\n", a.next, a.free, a.quarantine)
	return b.String()
}

// TestCommitOutOfSpaceIsAtomic fills a 1 MiB array until a commit
// that overwrites block 0 needs exactly the free space plus the blocks
// a quarantined commit frees at durable. Issued before durable it must
// fail and change nothing — block 0 still reads its old contents —
// and issued at durable, once the space is freed, it must succeed and
// leave no block over.
func TestCommitOutOfSpaceIsAtomic(t *testing.T) {
	costs := sim.DefaultCosts()
	arr := disk.NewArray(costs, 2, 512<<10)
	s, at, err := Format(costs, arr, 0)
	if err != nil {
		t.Fatal(err)
	}
	o, at, err := s.CreateObject(at, "o", 1024*BlockSize) // two tree levels
	if err != nil {
		t.Fatal(err)
	}
	durable, err := commitAt(o, at, BlockWrite{Index: 0, Data: block(1)})
	if err != nil {
		t.Fatal(err)
	}
	// Each commit adds a block and a new leaf, and frees the old leaf
	// once durable: one block net. The top level is in the record.
	next := int64(1)
	for s.FreeBlocks() > 8 {
		if durable, err = commitAt(o, durable, BlockWrite{Index: next, Data: block(byte(next))}); err != nil {
			t.Fatal(err)
		}
		next++
	}
	free := s.FreeBlocks()
	if q := len(s.alloc.quarantine); q != 1 {
		t.Fatalf("%d blocks quarantined, want the last commit's leaf", q)
	}
	// free writes plus a leaf: free + 1 blocks.
	writes := []BlockWrite{{Index: 0, Data: block(2)}}
	for i := int64(1); i < free; i++ {
		writes = append(writes, BlockWrite{Index: 500 + i, Data: []byte{byte(i)}})
	}

	before := objectState(o)
	if _, _, err := o.Commit(durable-1, writes); err == nil || !strings.Contains(err.Error(), "out of space") {
		t.Fatalf("commit needing %d blocks with %d free: err %v, want out of space", free+1, free, err)
	}
	if after := objectState(o); after != before {
		t.Fatalf("failed commit changed the object:\nbefore:\n%s\nafter:\n%s", before, after)
	}
	buf := make([]byte, BlockSize)
	if _, err := o.ReadBlock(durable, 0, buf); err != nil || !bytes.Equal(buf, block(1)) {
		t.Fatalf("block 0 after a failed commit reads %d..., want 1s (err %v)", buf[0], err)
	}

	epoch, done, err := o.Commit(durable, writes)
	if err != nil {
		t.Fatalf("commit after the quarantine matured: %v", err)
	}
	if epoch != Epoch(next+1) || s.FreeBlocks() != 0 {
		t.Fatalf("epoch %d and %d blocks free after the commit, want %d and 0", epoch, s.FreeBlocks(), next+1)
	}
	re, _, err := Open(costs, arr, done)
	if err != nil {
		t.Fatal(err)
	}
	ro, _ := re.OpenObject("o")
	for i, w := range writes {
		want := make([]byte, BlockSize)
		copy(want, w.Data)
		if _, err := ro.ReadBlock(done, w.Index, buf); err != nil || !bytes.Equal(buf, want) {
			t.Fatalf("write %d (block %d) not recovered (err %v)", i, w.Index, err)
		}
	}
}

// TestCommitBlocksIsExact holds the space check's count to what a
// commit really allocates, on trees of one, two and three levels (no
// root block: the top level is in the commit record) with writes that
// share leaves, share interior nodes, repeat an index, or stand alone:
// after each commit the free space is exactly what was free, plus the
// quarantine entries that matured, minus commitBlocks.
func TestCommitBlocksIsExact(t *testing.T) {
	s, _ := newStore(t)
	var at time.Duration
	for _, tc := range []struct {
		levels int
		blocks int64
	}{{1, rootSlots}, {2, rootSlots * treeFanout}, {3, 3 * treeFanout * treeFanout}} {
		levels, blocks := tc.levels, tc.blocks
		o, done, err := s.CreateObject(at, fmt.Sprint("o", levels), blocks*BlockSize)
		if err != nil {
			t.Fatal(err)
		}
		at = done
		if o.tree.levels != levels {
			t.Fatalf("%d blocks: %d tree levels, want %d", blocks, o.tree.levels, levels)
		}
		rng := sim.NewRNG(5)
		data := block(9)
		for c := 0; c < 300; c++ {
			writes := make([]BlockWrite, 1+rng.Intn(24))
			base := rng.Int63n(o.MaxBlocks())
			for i := range writes {
				idx := base
				switch rng.Intn(4) {
				case 0:
					idx = rng.Int63n(o.MaxBlocks())
				case 1:
					idx = min(base+rng.Int63n(2*treeFanout), o.MaxBlocks()-1)
				case 2:
					idx = min(base+rng.Int63n(8), o.MaxBlocks()-1)
				}
				writes[i] = BlockWrite{Index: idx, Data: data}
			}
			free := s.FreeBlocks()
			for _, q := range s.alloc.quarantine {
				if q.release <= at {
					free++
				}
			}
			need := o.commitBlocks(writes)
			if at, err = commitAt(o, at, writes...); err != nil {
				t.Fatal(err)
			}
			if got := s.FreeBlocks(); got != free-need {
				t.Fatalf("%d levels, commit %d: %d blocks free, want %d - %d", levels, c, got, free, need)
			}
		}
	}
}

func commitAt(o *Object, at time.Duration, w ...BlockWrite) (time.Duration, error) {
	_, done, err := o.Commit(at, w)
	return done, err
}

// TestConcurrentCommitsAdopt runs four goroutines committing full and
// short writes to their own objects of one store — each commit filling
// spares outside Store.mu and the devices adopting them — then checks
// every block of every object against a model, live and after Open.
// The callers scribble over their write buffers after each commit, so
// a block the store did not copy shows up as corruption.
func TestConcurrentCommitsAdopt(t *testing.T) {
	s, arr := newStore(t)
	const workers, commits, blocks = 4, 150, 256
	objs := make([]*Object, workers)
	for w := range objs {
		var err error
		if objs[w], _, err = s.CreateObject(0, fmt.Sprint("o", w), blocks*BlockSize); err != nil {
			t.Fatal(err)
		}
	}
	models := make([][][]byte, workers)
	ends := make([]time.Duration, workers)
	var wg sync.WaitGroup
	for w := range objs {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := sim.NewRNG(uint64(w) + 1)
			model := make([][]byte, blocks)
			var at time.Duration
			for c := 0; c < commits; c++ {
				writes := make([]BlockWrite, 1+rng.Intn(16))
				for i := range writes {
					n := BlockSize
					if rng.Intn(3) == 0 {
						n = 1 + rng.Intn(BlockSize)
					}
					data := make([]byte, n)
					for j := range data {
						data[j] = byte(rng.Uint64())
					}
					writes[i] = BlockWrite{Index: rng.Int63n(blocks), Data: data}
				}
				_, done, err := objs[w].Commit(at, writes)
				if err != nil {
					t.Error(err)
					return
				}
				for _, wr := range writes {
					model[wr.Index] = make([]byte, BlockSize)
					copy(model[wr.Index], wr.Data)
					for j := range wr.Data {
						wr.Data[j] ^= 0xFF
					}
				}
				at = done
			}
			models[w], ends[w] = model, at
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	var end time.Duration
	for _, e := range ends {
		end = max(end, e)
	}
	re, _, err := Open(nil, arr, end)
	if err != nil {
		t.Fatal(err)
	}
	buf, zero := make([]byte, BlockSize), make([]byte, BlockSize)
	for w, o := range objs {
		ro, err := re.OpenObject(o.Name())
		if err != nil {
			t.Fatal(err)
		}
		for _, view := range []struct {
			name string
			o    *Object
		}{{"live", o}, {"recovered", ro}} {
			for idx, want := range models[w] {
				if want == nil {
					want = zero
				}
				if _, err := view.o.ReadBlock(end, int64(idx), buf); err != nil || !bytes.Equal(buf, want) {
					t.Fatalf("%s object %d block %d differs from the model (err %v)", view.name, w, idx, err)
				}
			}
		}
	}
}
