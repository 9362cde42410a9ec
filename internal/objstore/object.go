package objstore

import (
	"fmt"
	"sync"
	"time"

	"memsnap/internal/disk"
)

// Object is one named COW region in the store. Each object carries
// its own logical history: a monotonic epoch incremented per commit,
// independent of every other object, so uCheckpoints of different
// objects proceed concurrently in virtual time (on the host they
// serialize on Store.mu; see Commit).
type Object struct {
	store     *Store
	name      string
	ringOff   int64
	maxBlocks int64

	mu    sync.Mutex
	tree  *tree
	epoch Epoch
	sc    commitScratch
}

// commitScratch holds per-object buffers reused across Commit calls
// (safe under o.mu), keeping the steady-state commit path
// allocation-free.
type commitScratch struct {
	freed   []int64
	extents []disk.Extent
	// padBufs are BlockSize buffers for zero-padding short block
	// writes; nused counts how many are handed out this commit. Each
	// must stay live until WriteV returns (the disk copies
	// synchronously), so they cannot be shared across writes.
	padBufs [][]byte
	nused   int
	recBuf  []byte // commit-record sector scratch
}

func (sc *commitScratch) reset() {
	sc.freed = sc.freed[:0]
	sc.extents = sc.extents[:0]
	sc.nused = 0
}

func (sc *commitScratch) padBuf() []byte {
	if sc.nused == len(sc.padBufs) {
		//lint:allow hotalloc scratch growth to the most short writes seen in one commit, reused across commits
		sc.padBufs = append(sc.padBufs, make([]byte, BlockSize))
	}
	sc.nused++
	return sc.padBufs[sc.nused-1]
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

// MaxBlocks returns the object's capacity in blocks.
func (o *Object) MaxBlocks() int64 { return o.maxBlocks }

// Commit persists one uCheckpoint: every block lands in newly
// allocated space, the dirtied radix-tree path is rewritten COW
// bottom-up, and a checksummed commit record is written strictly
// after the data. Returns the new epoch and the virtual time at which
// the commit is durable.
//
// Commits to one object serialize. Commits to different objects are
// independent in the model: each object has its own epochs, and each
// commit's virtual time depends only on the device queue. On the host
// they still serialize: Store.mu is held across the allocation, the
// tree relocation and both device writes.
func (o *Object) Commit(at time.Duration, writes []BlockWrite) (Epoch, time.Duration, error) {
	o.mu.Lock()
	defer o.mu.Unlock()

	if len(writes) == 0 {
		o.epoch++
		return o.epoch, at, nil
	}
	for _, w := range writes {
		if w.Index < 0 || w.Index >= o.maxBlocks {
			//lint:allow hotalloc caller-bug error path
			return 0, at, fmt.Errorf("objstore: block %d out of range for %q (max %d)", w.Index, o.name, o.maxBlocks)
		}
		if len(w.Data) > BlockSize {
			//lint:allow hotalloc caller-bug error path
			return 0, at, fmt.Errorf("objstore: block write of %d bytes", len(w.Data))
		}
	}

	s := o.store
	s.mu.Lock()
	defer s.mu.Unlock()

	sc := &o.sc
	sc.reset()
	// Every block of this commit is allocated at the same virtual
	// time, so matured quarantine entries are released once, here.
	s.alloc.releaseQuarantine(at)

	// Data blocks: fresh space, sequential on disk thanks to the bump
	// allocator — this is how random object updates become sequential
	// writes. tree.set marks the touched path dirty for the COW
	// rewrite below.
	for _, w := range writes {
		addr, err := s.alloc.alloc()
		if err != nil {
			return 0, at, err
		}
		data := w.Data
		if len(data) < BlockSize {
			// Pad short writes in a recycled scratch block (its
			// contents are stale: clear the tail explicitly).
			padded := sc.padBuf()
			copy(padded, data)
			clear(padded[len(data):])
			data = padded
		}
		sc.extents = append(sc.extents, disk.Extent{Offset: addr, Data: data})
		if old := o.tree.set(w.Index, addr); old != 0 {
			sc.freed = append(sc.freed, old)
		}
	}

	// COW the dirtied tree path: every dirty node moves to a new
	// address; parents pick up the new child addresses, bottom-up from
	// the root.
	rootAddr, err := o.relocateNode(o.tree.root, o.tree.levels)
	if err != nil {
		return 0, at, err
	}

	// Phase 1: data + tree nodes as one vectored IO.
	done := s.arr.WriteV(at, sc.extents)

	// Phase 2: the commit record, ordered after phase 1.
	o.epoch++
	rec := commitRecord{
		Magic:    magicObjRec,
		Epoch:    uint64(o.epoch),
		RootAddr: rootAddr,
		Levels:   int64(o.tree.levels),
	}
	if sc.recBuf == nil {
		//lint:allow hotalloc one-time lazy init of the commit-record sector
		sc.recBuf = make([]byte, sectorSize)
	}
	rec.marshalInto(sc.recBuf)
	slot := int64(uint64(o.epoch) % objRingSlots)
	done = s.arr.Write(done, o.ringOff+slot*sectorSize, sc.recBuf)

	// Replaced blocks become reusable once this commit is durable.
	s.alloc.freeAt(sc.freed, done)
	return o.epoch, done, nil
}

// relocateNode moves n (and, recursively, its dirty descendants) to
// fresh disk addresses and queues their images for the commit's
// vectored write, clearing the dirty flags. Returns n's new address.
func (o *Object) relocateNode(n *node, levelsLeft int) (int64, error) {
	s := o.store
	sc := &o.sc
	if levelsLeft > 1 {
		for i, kid := range n.kids {
			if kid == nil || !kid.dirty {
				continue
			}
			addr, err := o.relocateNode(kid, levelsLeft-1)
			if err != nil {
				return 0, err
			}
			n.setChild(i, addr)
		}
	}
	n.dirty = false
	if n.addr != 0 {
		sc.freed = append(sc.freed, n.addr)
	}
	addr, err := s.alloc.alloc()
	if err != nil {
		return 0, err
	}
	n.addr = addr
	sc.extents = append(sc.extents, disk.Extent{Offset: addr, Data: n.img})
	return addr, nil
}

// ReadBlock fills dst with block idx's contents (zeroes if the block
// was never written) and returns the completion time.
func (o *Object) ReadBlock(at time.Duration, idx int64, dst []byte) (time.Duration, error) {
	if idx < 0 || idx >= o.maxBlocks {
		//lint:allow hotalloc caller-bug error path
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

// WrittenBlocks returns the indices of all blocks ever written, in
// order. Used by restore paths that page data back in.
func (o *Object) WrittenBlocks() []int64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	var idxs []int64
	o.tree.forEach(func(idx, _ int64) { idxs = append(idxs, idx) })
	return idxs
}
