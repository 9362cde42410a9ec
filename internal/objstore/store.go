package objstore

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"memsnap/internal/disk"
	"memsnap/internal/sim"
)

// Epoch is an object's monotonic checkpoint counter. Each successful
// commit increments it; recovery restores the object at its highest
// durable epoch.
type Epoch uint64

// Store is a COW object store on a disk array.
type Store struct {
	arr *disk.Array

	mu      sync.Mutex
	alloc   *allocator
	objects map[string]*Object
	entries []dirEntry
	dirAddr int64 // current directory block (0 = empty directory)
	dirSeq  uint64
}

// Format initializes an empty store on the array, returning the store
// and the virtual time at which formatting is durable. The cost model
// is unused: the array charges every access the store makes.
func Format(_ *sim.CostModel, arr *disk.Array, at time.Duration) (*Store, time.Duration, error) {
	if arr.Capacity()/BlockSize > maxPackedBlocks {
		return nil, at, fmt.Errorf("objstore: %d-byte array exceeds %d blocks", arr.Capacity(), int64(maxPackedBlocks))
	}
	s := &Store{
		arr:     arr,
		alloc:   newAllocator(dataStart(), arr.Capacity()),
		objects: make(map[string]*Object),
		dirSeq:  1,
	}
	sb := &superblock{Magic: magicSuper, Version: 1, DataStart: dataStart(), Capacity: arr.Capacity()}
	done := arr.Write(at, 0, sb.marshal())
	rec := &dirRecord{Magic: magicDirRec, Seq: s.dirSeq, DirBlock: 0}
	done = arr.Write(done, dirRingOff, rec.marshal())
	return s, done, nil
}

// Open recovers a store from the array: it locates the newest valid
// directory, loads every object at its highest durable epoch, and
// rebuilds the allocator from the union of live blocks, below the
// lowest object ring. All reads are
// charged to the returned completion time. The cost model is unused,
// as in Format.
func Open(_ *sim.CostModel, arr *disk.Array, at time.Duration) (*Store, time.Duration, error) {
	buf := make([]byte, sectorSize)
	at = arr.Read(at, 0, buf)
	if _, err := unmarshalSuperblock(buf); err != nil {
		return nil, at, err
	}

	s := &Store{
		arr:     arr,
		alloc:   newAllocator(dataStart(), arr.Capacity()),
		objects: make(map[string]*Object),
	}

	// Newest valid directory record wins.
	var best *dirRecord
	for slot := 0; slot < dirRingSlots; slot++ {
		at = arr.Read(at, int64(dirRingOff+slot*sectorSize), buf)
		if rec, ok := unmarshalDirRecord(buf); ok {
			if best == nil || rec.Seq > best.Seq {
				best = rec
			}
		}
	}
	if best == nil {
		return nil, at, fmt.Errorf("objstore: no valid directory record (not formatted?)")
	}
	s.dirSeq = best.Seq
	s.dirAddr = best.DirBlock

	used := usedSet{}
	if s.dirAddr != 0 {
		used[s.dirAddr] = true
		dirBuf := make([]byte, BlockSize)
		at = arr.Read(at, s.dirAddr, dirBuf)
		s.entries = unmarshalDirectory(dirBuf)
	}

	for _, e := range s.entries {
		obj, doneAt, err := s.loadObject(e, at, used)
		if err != nil {
			return nil, at, err
		}
		at = doneAt
		s.objects[e.Name] = obj
		s.alloc.limit = min(s.alloc.limit, e.RingOff)
	}
	s.alloc.rebuild(dataStart(), used)
	return s, at, nil
}

// newObject returns an object with an empty tree and an empty base
// image, whose top level is the tree's.
func newObject(s *Store, e dirEntry) *Object {
	o := &Object{
		store:     s,
		name:      e.Name,
		ringOff:   e.RingOff,
		maxBlocks: e.MaxBlocks,
		tree:      newTree(e.MaxBlocks),
		base:      make([]byte, sectorSize),
	}
	o.tree.root.img = o.base[recHeader : recHeader+rootSlots*entrySize]
	return o
}

// loadObject recovers one object from its ring, read with one read:
// the newest valid base becomes the object's base image, with its top
// level and the tree nodes on disk under it, and the log's delta
// records are replayed on top from sector 0 while each is valid and
// newer than the epoch before it (an empty commit takes an epoch and
// writes no record, so epochs may skip). Records past the last one
// replayed are torn or stale (left by an earlier log cycle, older than
// the base), and the next commit appends there. The replayed entries'
// leaves become the dirty set again, so the next flush rewrites them.
// Data blocks are marked used only after the entries are applied, so
// the blocks they superseded come back free.
func (s *Store) loadObject(e dirEntry, at time.Duration, used usedSet) (*Object, time.Duration, error) {
	ring := make([]byte, ringBytes)
	at = s.arr.Read(at, e.RingOff, ring)
	obj := newObject(s, e)
	best := int64(-1)
	for slot := int64(0); slot < baseSlots; slot++ {
		rec := ring[slot*sectorSize : (slot+1)*sectorSize]
		if n, ok := validRecord(rec, magicBase); ok && n == rootSlots &&
			(best < 0 || recordEpoch(rec) > recordEpoch(ring[best*sectorSize:])) {
			best = slot
		}
	}
	// Without a base (never flushed) the tree starts empty at epoch 0.
	if best >= 0 {
		copy(obj.base, ring[best*sectorSize:])
		if err := obj.checkLevels(obj.base); err != nil {
			return nil, at, err
		}
		obj.epoch = Epoch(recordEpoch(obj.base))
		obj.baseSlot = best ^ 1
		at = s.loadKids(obj.tree.root, obj.tree.levels, at, used)
	}
	var replayed []int64
	for log := ring[baseSlots*sectorSize:]; obj.logPos < logSectors; {
		rec := log[obj.logPos*sectorSize:]
		n, ok := validRecord(rec, magicDelta)
		if !ok || Epoch(recordEpoch(rec)) <= obj.epoch {
			break
		}
		if err := obj.checkLevels(rec); err != nil {
			return nil, at, err
		}
		for i, prev := 0, int64(-1); i < n; i++ {
			idx, addr := unpackEntry(entryAt(rec, i))
			if idx >= e.MaxBlocks || idx <= prev {
				return nil, at, fmt.Errorf("objstore: %q delta entry %d (block %d) out of order or range", e.Name, i, idx)
			}
			obj.tree.set(idx, addr)
			replayed = append(replayed, idx)
			prev = idx
		}
		obj.epoch = Epoch(recordEpoch(rec))
		obj.logPos += recordSectors(n)
	}
	if obj.tree.levels > 1 {
		slices.Sort(replayed)
		obj.dirty = mergeLeaves(nil, replayed, nil)
	}
	obj.tree.forEach(func(_, addr int64) { used[addr] = true })
	return obj, at, nil
}

// checkLevels refuses record image rec when it was written for a tree
// of another depth than the object's.
func (o *Object) checkLevels(rec []byte) error {
	if levels, want := recordLevels(rec), o.tree.levels; levels != want {
		return fmt.Errorf("objstore: %q record has %d tree levels, want %d for %d blocks", o.name, levels, want, o.maxBlocks)
	}
	return nil
}

// loadNode reads a serialized tree node and its descendants.
func (s *Store) loadNode(addr int64, levelsLeft int, at time.Duration, used usedSet) (*node, time.Duration) {
	used[addr] = true
	buf := make([]byte, BlockSize)
	at = s.arr.Read(at, addr, buf)
	n := &node{addr: addr, img: buf}
	return n, s.loadKids(n, levelsLeft, at, used)
}

// loadKids loads the descendants of interior node n, whose image is
// already in place, and returns when the last read completes.
func (s *Store) loadKids(n *node, levelsLeft int, at time.Duration, used usedSet) time.Duration {
	if levelsLeft == 1 {
		return at
	}
	n.kids = make([]*node, len(n.img)/8)
	for i := range n.kids {
		if child := n.child(i); child != 0 {
			n.kids[i], at = s.loadNode(child, levelsLeft-1, at, used)
		}
	}
	return at
}

// CreateObject adds a named object sized for maxBytes and persists
// the updated directory. Returns the object and the durability time.
func (s *Store) CreateObject(at time.Duration, name string, maxBytes int64) (*Object, time.Duration, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, exists := s.objects[name]; exists {
		return nil, at, fmt.Errorf("objstore: object %q exists", name)
	}
	maxBlocks := (maxBytes + BlockSize - 1) / BlockSize
	if maxBlocks == 0 {
		maxBlocks = 1
	}
	if maxBlocks > maxPackedBlocks {
		return nil, at, fmt.Errorf("objstore: object %q of %d blocks exceeds %d", name, maxBlocks, int64(maxPackedBlocks))
	}

	s.alloc.releaseQuarantine(at)
	ringOff, err := s.alloc.takeRing()
	if err != nil {
		return nil, at, err
	}
	newDirAddr, err := s.alloc.alloc()
	if err != nil {
		return nil, at, err
	}

	entries := append(append([]dirEntry(nil), s.entries...), dirEntry{
		Name:      name,
		RingOff:   ringOff,
		MaxBlocks: maxBlocks,
	})
	dirBuf, err := marshalDirectory(entries)
	if err != nil {
		return nil, at, err
	}

	// Phase 1: zero the object ring (so stale bytes can never parse
	// as a record) and write the new directory block.
	done := s.arr.WriteV(at, []disk.Extent{
		{Offset: ringOff, Data: make([]byte, ringBytes)},
		{Offset: newDirAddr, Data: dirBuf},
	})
	// Phase 2: flip the directory ring to the new block.
	s.dirSeq++
	rec := &dirRecord{Magic: magicDirRec, Seq: s.dirSeq, DirBlock: newDirAddr}
	slot := int64(s.dirSeq % dirRingSlots)
	done = s.arr.Write(done, dirRingOff+slot*sectorSize, rec.marshal())

	if s.dirAddr != 0 {
		s.alloc.freeAt([]int64{s.dirAddr}, done)
	}
	s.dirAddr = newDirAddr
	s.entries = entries

	obj := newObject(s, dirEntry{Name: name, RingOff: ringOff, MaxBlocks: maxBlocks})
	s.objects[name] = obj
	return obj, done, nil
}

// OpenObject returns an existing object by name.
func (s *Store) OpenObject(name string) (*Object, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	obj, ok := s.objects[name]
	if !ok {
		return nil, fmt.Errorf("objstore: object %q not found", name)
	}
	return obj, nil
}

// Objects returns the names of all objects.
func (s *Store) Objects() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	names := make([]string, 0, len(s.objects))
	for _, e := range s.entries {
		names = append(names, e.Name)
	}
	return names
}
