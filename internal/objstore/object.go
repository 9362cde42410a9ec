package objstore

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"
	"sort"
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
	// rec is the image of the object's newest commit record, its state
	// between commits: tree.root.img is its top level, and its entries
	// are the pending set, every block index set since the leaves were
	// last written, one entry per index.
	rec []byte
	// slot is the ring slot the next record goes to, and recDone the
	// time the last record completes.
	slot    int64
	recDone time.Duration
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
	union   []int64 // a flush's indices: pending ∪ idx, built by commitBlocks
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
// allocated space, and a checksummed commit record carrying the top
// level and the leaf entries set since the leaves were last written is
// written strictly after the data. When those entries do not fit in a
// record, the commit instead rewrites every tree node below the top
// level on their paths COW bottom-up, with the data, and its record
// carries none. Returns the new epoch and the virtual time at which
// the commit is durable. A commit that fails, for lack of space or a
// bad write, changes nothing.
//
// Commits to one object serialize on o.mu. Commits to different
// objects are independent in the model: each object has its own
// epochs, and each commit's virtual time depends only on the device
// queue. On the host, each commit copies its data blocks into the
// object's spares under o.mu alone, then takes Store.mu for what
// orders it against every other commit: the space check, allocation,
// tree.set, the pending set, a flush's tree relocation (node images
// are still copied by the device), the vectored write that adopts the
// data blocks, the commit-record write and freeAt. Every device
// submission therefore still reaches the FIFO device queues in
// allocator order.
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

	// The record carries the leaf entries set since the leaves were
	// last written. When they do not fit, flush: COW every path they
	// are on — each node below the top level moves to a new address and
	// parents pick up the new child addresses, bottom-up — and the
	// record carries none. The top level goes into the record.
	switch {
	case flush:
		o.relocate(o.tree.root, o.tree.levels, sc.union)
		setEntryCount(o.rec, 0)
	case o.tree.levels > 1:
		for i, idx := range sc.idx {
			if i == 0 || idx != sc.idx[i-1] {
				setEntry(o.rec, idx, o.tree.lookup(idx))
			}
		}
	}

	// Phase 1: data + tree nodes as one vectored IO. The device adopts
	// each data block and hands back a spare for its slot.
	done := s.arr.WriteV(at, sc.extents)
	for i := range writes {
		o.spares[i] = sc.extents[i].Block
	}

	// Phase 2: the commit record, ordered after phase 1 and after the
	// previous record, so the record in the other slot is durable
	// before this one can tear.
	o.epoch++
	rec := sealRecord(o.rec, uint64(o.epoch), o.tree.levels)
	done = s.arr.Write(max(done, o.recDone), o.ringOff+o.slot*recSlotBytes, rec)
	o.slot ^= 1
	o.recDone = done

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
// allocates, and whether the commit flushes: one block per write and,
// when the pending indices and the written ones do not fit in a
// record, one per distinct tree node below the top level on their
// paths, each of which relocate moves once. It leaves the written
// indices sorted in sc.idx and, to flush, the union, ascending, in
// sc.union. A one-level tree has no leaf below its top level, so it
// keeps no pending entries and never flushes.
func (o *Object) commitBlocks(writes []BlockWrite) (int64, bool) {
	idx := o.sc.idx[:0]
	for _, w := range writes {
		idx = append(idx, w.Index)
	}
	slices.Sort(idx)
	o.sc.idx = idx
	n := int64(len(writes))
	if o.tree.levels == 1 {
		return n, false
	}
	entries := entryCount(o.rec)
	for i, x := range idx {
		if i == 0 || x != idx[i-1] {
			if _, found := findEntry(o.rec, x); !found {
				entries++
			}
		}
	}
	if entries <= recEntries {
		return n, false
	}
	union := mergeIndices(o.sc.union[:0], o.rec, idx)
	o.sc.union = union
	// Indices share a node h levels above the data blocks when they
	// agree above their low treeShift*h bits; the top level, h =
	// levels, is in the commit record.
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

// mergeIndices appends to dst the union of the indices of record
// image rec's entries and of ascending idx, each index once.
func mergeIndices(dst []int64, rec []byte, idx []int64) []int64 {
	n, i := entryCount(rec), 0
	for i < n || len(idx) > 0 {
		x := int64(-1)
		if i < n {
			x, _ = unpackEntry(entryAt(rec, i))
		}
		if x < 0 || len(idx) > 0 && idx[0] < x {
			x, idx = idx[0], idx[1:]
		} else {
			i++
		}
		if k := len(dst); k == 0 || dst[k-1] != x {
			dst = append(dst, x)
		}
	}
	return dst
}

// findEntry returns where the entry of block idx is, or would go,
// among record image rec's entries, and whether it is there.
func findEntry(rec []byte, idx int64) (int, bool) {
	return sort.Find(entryCount(rec), func(i int) int {
		e, _ := unpackEntry(entryAt(rec, i))
		return cmp.Compare(idx, e)
	})
}

// setEntry puts the entry of block idx at addr among record image
// rec's entries, in place of idx's entry if there is one. Commit has
// checked that it fits.
func setEntry(rec []byte, idx, addr int64) {
	i, found := findEntry(rec, idx)
	off := recEntriesOff + i*entrySize
	if !found {
		n := entryCount(rec)
		end := recEntriesOff + n*entrySize
		copy(rec[off+entrySize:end+entrySize], rec[off:end])
		setEntryCount(rec, n+1)
	}
	binary.LittleEndian.PutUint64(rec[off:], packEntry(idx, addr))
}

// relocate moves every node below n on the paths of idx to fresh
// disk addresses, queues their images for the commit's vectored write
// and points n's slots at them. idx holds ascending indices under n. Children are moved in slot order, each after its own
// children. Commit has checked the space beforehand.
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
