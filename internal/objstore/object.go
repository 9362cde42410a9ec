package objstore

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"memsnap/internal/disk"
)

// Object is one named COW region in the store. Each object carries
// its own logical history: a monotonic epoch incremented per commit,
// independent of every other object, so uCheckpoints of different
// objects proceed concurrently in virtual time (on the host they
// serialize on Store.mu for the allocation and the device writes; see
// Commit).
type Object struct {
	store     *Store
	name      string
	ringOff   int64
	maxBlocks int64

	mu    sync.Mutex
	tree  *tree
	epoch Epoch
	// spares are the object's own data-block buffers: Commit fills
	// spares[i] with its i-th block before it takes Store.mu, the
	// device adopts it, and the spare the device hands back takes its
	// slot. The object holds as many as its largest commit wrote.
	spares []*disk.Block
	sc     commitScratch
}

// commitScratch holds per-object buffers reused across Commit calls
// (safe under o.mu), keeping the steady-state commit path
// allocation-free (TestCommitSteadyStateZeroAlloc).
type commitScratch struct {
	freed   []int64
	extents []disk.Extent
	idx     []int64 // the commit's block indices, sorted by commitBlocks
	recBuf  []byte  // commit-record sector scratch
}

func (sc *commitScratch) reset() {
	sc.freed = sc.freed[:0]
	sc.extents = sc.extents[:0]
}

// BlockWrite is one dirty block in a commit.
type BlockWrite struct {
	// Index is the block index within the object.
	Index int64
	// Data is the 4 KiB block contents. Shorter slices are
	// zero-padded.
	Data []byte
}

// Name returns the object name.
func (o *Object) Name() string { return o.name }

// Epoch returns the current epoch.
func (o *Object) Epoch() Epoch {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.epoch
}

// Commit persists one uCheckpoint: every block lands in newly
// allocated space, the dirtied radix-tree path is rewritten COW
// bottom-up, and a checksummed commit record is written strictly
// after the data. Returns the new epoch and the virtual time at which
// the commit is durable. A commit that fails, for lack of space or a
// bad write, changes nothing.
//
// Commits to one object serialize on o.mu. Commits to different
// objects are independent in the model: each object has its own
// epochs, and each commit's virtual time depends only on the device
// queue. On the host, each commit copies its data blocks into the
// object's spares under o.mu alone, then takes Store.mu for what
// orders it against every other commit: the space check, allocation,
// tree.set, the tree relocation (node images are still copied by the
// device), the vectored write that adopts the data blocks, the
// commit-record write and freeAt. Every device submission therefore
// still reaches the FIFO device queues in allocator order.
func (o *Object) Commit(at time.Duration, writes []BlockWrite) (Epoch, time.Duration, error) {
	o.mu.Lock()
	defer o.mu.Unlock()

	if len(writes) == 0 {
		o.epoch++
		return o.epoch, at, nil
	}
	for _, w := range writes {
		if w.Index < 0 || w.Index >= o.maxBlocks {
			return 0, at, fmt.Errorf("objstore: block %d out of range for %q (max %d)", w.Index, o.name, o.maxBlocks)
		}
		if len(w.Data) > BlockSize {
			return 0, at, fmt.Errorf("objstore: block write of %d bytes", len(w.Data))
		}
	}

	// Fill the data blocks, zero-padding short writes, and count the
	// blocks the commit allocates before taking the store lock: neither
	// needs anything shared.
	sc := &o.sc
	sc.reset()
	had := len(o.spares)
	o.growSpares(len(writes))
	for i, w := range writes {
		b := o.spares[i]
		clear(b[copy(b[:], w.Data):])
		sc.extents = append(sc.extents, disk.Extent{Block: b})
	}

	need := o.commitBlocks(writes)

	s := o.store
	s.mu.Lock()
	defer s.mu.Unlock()

	// Check for space before touching the tree or the allocator.
	if !s.alloc.canAlloc(need, at) {
		clear(o.spares[had:])
		o.spares = o.spares[:had]
		return 0, at, fmt.Errorf("objstore: out of space committing %d blocks to %q", len(writes), o.name)
	}
	// Every block of this commit is allocated at the same virtual
	// time, so matured quarantine entries are released once, here.
	s.alloc.releaseQuarantine(at)

	// Data blocks: fresh space, sequential on disk thanks to the bump
	// allocator — this is how random object updates become sequential
	// writes.
	for i, w := range writes {
		addr := s.alloc.take()
		sc.extents[i].Offset = addr
		if old := o.tree.set(w.Index, addr); old != 0 {
			sc.freed = append(sc.freed, old)
		}
	}

	// COW the written paths: every node on them moves to a new
	// address; parents pick up the new child addresses, bottom-up from
	// the root.
	rootAddr := o.relocate(o.tree.root, o.tree.levels, sc.idx)

	// Phase 1: data + tree nodes as one vectored IO. The device adopts
	// each data block and hands back a spare for its slot.
	done := s.arr.WriteV(at, sc.extents)
	for i := range writes {
		o.spares[i] = sc.extents[i].Block
	}

	// Phase 2: the commit record, ordered after phase 1.
	o.epoch++
	rec := commitRecord{
		Magic:    magicObjRec,
		Epoch:    uint64(o.epoch),
		RootAddr: rootAddr,
		Levels:   int64(o.tree.levels),
	}
	if sc.recBuf == nil {
		sc.recBuf = make([]byte, sectorSize)
	}
	rec.marshalInto(sc.recBuf)
	slot := int64(uint64(o.epoch) % objRingSlots)
	done = s.arr.Write(done, o.ringOff+slot*sectorSize, sc.recBuf)

	// Replaced blocks become reusable once this commit is durable.
	s.alloc.freeAt(sc.freed, done)
	return o.epoch, done, nil
}

// growSpares makes sure the object holds at least n spares, adding the
// shortfall as one slab.
func (o *Object) growSpares(n int) {
	short := n - len(o.spares)
	if short <= 0 {
		return
	}
	// Grows to the largest commit's block count; spares are kept across commits.
	slab := make([]disk.Block, short)
	for i := range slab {
		o.spares = append(o.spares, &slab[i])
	}
}

// commitBlocks returns exactly how many blocks committing writes
// allocates: one per write, and one per distinct tree node on the
// written paths, each of which relocate moves once. It leaves the
// written indices sorted in sc.idx for relocate.
func (o *Object) commitBlocks(writes []BlockWrite) int64 {
	idx := o.sc.idx[:0]
	for _, w := range writes {
		idx = append(idx, w.Index)
	}
	slices.Sort(idx)
	o.sc.idx = idx
	n := int64(len(writes)) + 1 // the data blocks and the root
	// Indices share a node h levels above the data blocks when they
	// agree above their low treeShift*h bits; the root is h = levels.
	for h := 1; h < o.tree.levels; h++ {
		shift := uint(treeShift * h)
		for i, x := range idx {
			if i == 0 || x>>shift != idx[i-1]>>shift {
				n++
			}
		}
	}
	return n
}

// relocate moves n, and every node below it on the written paths, to
// fresh disk addresses and queues their images for the commit's
// vectored write. idx holds the sorted written indices under n.
// Children are moved in slot order, before their parent. Returns n's
// new address. Commit has checked the space beforehand.
func (o *Object) relocate(n *node, levelsLeft int, idx []int64) int64 {
	sc := &o.sc
	shift := uint(treeShift * (levelsLeft - 1))
	for levelsLeft > 1 && len(idx) > 0 {
		slot, j := int(idx[0]>>shift)&(treeFanout-1), 1
		for j < len(idx) && int(idx[j]>>shift)&(treeFanout-1) == slot {
			j++
		}
		n.setChild(slot, o.relocate(n.kids[slot], levelsLeft-1, idx[:j]))
		idx = idx[j:]
	}
	if n.addr != 0 {
		sc.freed = append(sc.freed, n.addr)
	}
	n.addr = o.store.alloc.take()
	sc.extents = append(sc.extents, disk.Extent{Offset: n.addr, Data: n.img})
	return n.addr
}

// ReadBlock fills dst with block idx's contents (zeroes if the block
// was never written) and returns the completion time.
func (o *Object) ReadBlock(at time.Duration, idx int64, dst []byte) (time.Duration, error) {
	if idx < 0 || idx >= o.maxBlocks {
		return at, fmt.Errorf("objstore: read block %d out of range for %q", idx, o.name)
	}
	o.mu.Lock()
	addr := o.tree.lookup(idx)
	o.mu.Unlock()
	if addr == 0 {
		clear(dst)
		return at, nil
	}
	if len(dst) > BlockSize {
		dst = dst[:BlockSize]
	}
	return o.store.arr.Read(at, addr, dst), nil
}
