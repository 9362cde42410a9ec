package objstore

import (
	"encoding/binary"
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
	// base is the image of the object's base record: tree.root.img is
	// its top level. A flush seals and writes it.
	base []byte
	// dirty holds one block index per leaf set since the last flush,
	// ascending: the leaves the next flush rewrites. A one-level tree
	// has no leaf below its top level and keeps none.
	dirty []int64
	// baseSlot is the base slot the next flush writes, logPos the log
	// sector the next delta goes to, and recDone the time the last
	// record, base or delta, completes.
	baseSlot int64
	logPos   int
	recDone  time.Duration
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
	idx     []int64 // the commit's block indices, ascending, each once (commitBlocks)
	union   []int64 // dirty ∪ idx, one index per leaf (commitBlocks)
	delta   []byte  // the commit's delta image
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
// allocated space, and a checksummed delta record carrying the
// commit's own leaf entries is appended to the object's log strictly
// after the data. When the delta does not fit in the rest of the log,
// the commit flushes instead: it rewrites every tree node below the
// top level on the paths of the leaves set since the last flush and
// of its own, COW bottom-up, with the data, writes a base record
// carrying the top level into the other base slot and starts the log
// again. Returns the new epoch and the virtual time at which the
// commit is durable. A commit that fails, for lack of space or a bad
// write, changes nothing.
//
// Commits to one object serialize on o.mu. Commits to different
// objects are independent in the model: each object has its own
// epochs, and each commit's virtual time depends only on the device
// queue. On the host, each commit copies its data blocks into the
// object's spares under o.mu alone, then takes Store.mu for what
// orders it against every other commit: the space check, allocation,
// tree.set, a flush's tree relocation (node images are still copied by
// the device), the vectored write that adopts the data blocks, the
// record write and freeAt. Every device submission therefore still
// reaches the FIFO device queues in allocator order.
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

	need, flush := o.commitBlocks(writes)

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

	// A flush COWs every path the dirty leaves and the commit's are on —
	// each node below the top level moves to a new address and parents
	// pick up the new child addresses, bottom-up — and the base carries
	// the top level. Otherwise the delta carries the commit's entries.
	var rec []byte
	if flush {
		o.relocate(o.tree.root, o.tree.levels, sc.union)
	} else {
		rec = sc.deltaImage(len(sc.idx))
		for i, idx := range sc.idx {
			binary.LittleEndian.PutUint64(rec[recHeader+i*entrySize:], packEntry(idx, o.tree.lookup(idx)))
		}
	}

	// Phase 1: data + tree nodes as one vectored IO. The device adopts
	// each data block and hands back a spare for its slot.
	done := s.arr.WriteV(at, sc.extents)
	for i := range writes {
		o.spares[i] = sc.extents[i].Block
	}

	// Phase 2: the record, ordered after phase 1 and after the
	// previous record, so every record before it is durable before it
	// can tear.
	o.epoch++
	done = max(done, o.recDone)
	if flush {
		rec = sealRecord(o.base, magicBase, uint64(o.epoch), o.tree.levels, rootSlots)
		done = s.arr.Write(done, o.ringOff+o.baseSlot*sectorSize, rec)
		o.baseSlot ^= 1
		o.logPos = 0
		o.dirty = o.dirty[:0]
	} else {
		rec = sealRecord(rec, magicDelta, uint64(o.epoch), o.tree.levels, len(sc.idx))
		done = s.arr.Write(done, o.ringOff+int64(baseSlots+o.logPos)*sectorSize, rec)
		o.logPos += len(rec) / sectorSize
		o.dirty, sc.union = sc.union, o.dirty
	}
	o.recDone = done

	// Replaced blocks become reusable once this commit is durable.
	s.alloc.freeAt(sc.freed, done)
	return o.epoch, done, nil
}

// deltaImage returns the scratch delta image, grown to hold a record
// of n entries.
func (sc *commitScratch) deltaImage(n int) []byte {
	if size := recordSectors(n) * sectorSize; len(sc.delta) < size {
		// Grows to the largest delta's size; kept across commits.
		sc.delta = make([]byte, size)
	}
	return sc.delta
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
// allocates, and whether the commit flushes: one block per write and,
// when the commit's delta does not fit in the rest of the log, one per
// distinct tree node below the top level on the paths of the dirty
// leaves and the written ones, each of which relocate moves once. It
// leaves the written indices in sc.idx, ascending and each once, and
// the dirty leaves with the written ones, one index per leaf, in
// sc.union. A one-level tree has no leaf below its top level, so its
// flush writes only the base.
func (o *Object) commitBlocks(writes []BlockWrite) (int64, bool) {
	idx := o.sc.idx[:0]
	for _, w := range writes {
		idx = append(idx, w.Index)
	}
	slices.Sort(idx)
	idx = slices.Compact(idx)
	o.sc.idx = idx
	n := int64(len(writes))
	union := o.sc.union[:0]
	if o.tree.levels > 1 {
		union = mergeLeaves(union, o.dirty, idx)
	}
	o.sc.union = union
	if o.logPos+recordSectors(len(idx)) <= logSectors {
		return n, false
	}
	// Indices share a node h levels above the data blocks when they
	// agree above their low treeShift*h bits; the top level, h =
	// levels, is in the base.
	for h := 1; h < o.tree.levels; h++ {
		shift := uint(treeShift * h)
		for i, x := range union {
			if i == 0 || x>>shift != union[i-1]>>shift {
				n++
			}
		}
	}
	return n, true
}

// mergeLeaves appends to dst one index for each leaf that the
// ascending indices of a or b fall in, ascending.
func mergeLeaves(dst, a, b []int64) []int64 {
	for len(a) > 0 || len(b) > 0 {
		var x int64
		if len(b) == 0 || len(a) > 0 && a[0] < b[0] {
			x, a = a[0], a[1:]
		} else {
			x, b = b[0], b[1:]
		}
		if k := len(dst); k == 0 || dst[k-1]>>treeShift != x>>treeShift {
			dst = append(dst, x)
		}
	}
	return dst
}

// relocate moves every node below n on the paths of idx to fresh
// disk addresses, queues their images for the commit's vectored write
// and points n's slots at them. idx holds ascending indices under n.
// Children are moved in slot order, each after its own children.
// Commit has checked the space beforehand.
func (o *Object) relocate(n *node, levelsLeft int, idx []int64) {
	sc := &o.sc
	shift := uint(treeShift * (levelsLeft - 1))
	for levelsLeft > 1 && len(idx) > 0 {
		slot, j := int(idx[0]>>shift)&(treeFanout-1), 1
		for j < len(idx) && int(idx[j]>>shift)&(treeFanout-1) == slot {
			j++
		}
		kid := n.kids[slot]
		o.relocate(kid, levelsLeft-1, idx[:j])
		if kid.addr != 0 {
			sc.freed = append(sc.freed, kid.addr)
		}
		kid.addr = o.store.alloc.take()
		sc.extents = append(sc.extents, disk.Extent{Offset: kid.addr, Data: kid.img})
		n.setChild(slot, kid.addr)
		idx = idx[j:]
	}
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
