// Package rockskv is the reproduction's RocksDB: a write-optimized
// key-value store with three persistence modes —
//
//   - ModeWAL (the baseline): Puts append to a write-ahead log and
//     fsync it, then insert into an in-memory skip-list MemTable;
//     full MemTables are serialized to SSTable files, which are
//     background-compacted (the LSM design of §7.2).
//   - ModeMemSnap (the paper's port): the MemTable is a persistent
//     skip list living in a MemSnap region, one 4 KiB node per
//     key-value pair. A Put dirties exactly the new node and its
//     level-0 predecessor and commits them with one msnap_persist.
//     Skip pointers are volatile and rebuilt on recovery. No WAL, no
//     SSTables, no compaction.
//   - ModeAurora (the SLS baseline): the MemTable is volatile but
//     mirrored into an Aurora region that is checkpointed after
//     every write, with Aurora's stop-the-world shadowing costs.
package rockskv

import (
	"bytes"

	"memsnap/internal/sim"
)

// maxHeight bounds skip-list towers.
const maxHeight = 16

// memNode is one volatile skip-list node.
type memNode struct {
	key, val  []byte
	tombstone bool
	next      [maxHeight]*memNode
}

// memTable is the volatile skip list used by the WAL and Aurora
// modes.
type memTable struct {
	head   *memNode
	height int
	rng    *sim.RNG
	bytes  int64
}

func newMemTable(seed uint64) *memTable {
	return &memTable{head: &memNode{}, height: 1, rng: sim.NewRNG(seed)}
}

func (m *memTable) randomHeight() int {
	h := 1
	for h < maxHeight && m.rng.Uint64()%4 == 0 {
		h++
	}
	return h
}

// findPredecessors fills pred[i] with the rightmost node at level i
// whose key precedes key.
func (m *memTable) findPredecessors(key []byte, pred *[maxHeight]*memNode) *memNode {
	x := m.head
	for level := m.height - 1; level >= 0; level-- {
		for x.next[level] != nil && bytes.Compare(x.next[level].key, key) < 0 {
			x = x.next[level]
		}
		pred[level] = x
	}
	return x.next[0]
}

// put inserts or updates; val nil with tombstone marks deletion.
func (m *memTable) put(key, val []byte, tombstone bool) {
	var pred [maxHeight]*memNode
	next := m.findPredecessors(key, &pred)
	if next != nil && bytes.Equal(next.key, key) {
		m.bytes += int64(len(val) - len(next.val))
		next.val = append([]byte(nil), val...)
		next.tombstone = tombstone
		return
	}
	h := m.randomHeight()
	if h > m.height {
		for level := m.height; level < h; level++ {
			pred[level] = m.head
		}
		m.height = h
	}
	n := &memNode{key: append([]byte(nil), key...), val: append([]byte(nil), val...), tombstone: tombstone}
	for level := 0; level < h; level++ {
		n.next[level] = pred[level].next[level]
		pred[level].next[level] = n
	}
	m.bytes += int64(len(key) + len(val) + 64)
}

// get returns (value, found, tombstone).
func (m *memTable) get(key []byte) ([]byte, bool, bool) {
	var pred [maxHeight]*memNode
	next := m.findPredecessors(key, &pred)
	if next != nil && bytes.Equal(next.key, key) {
		return next.val, true, next.tombstone
	}
	return nil, false, false
}

// scan visits keys >= start in order until fn returns false.
func (m *memTable) scan(start []byte, fn func(k, v []byte, tombstone bool) bool) {
	var pred [maxHeight]*memNode
	x := m.findPredecessors(start, &pred)
	for x != nil {
		if !fn(x.key, x.val, x.tombstone) {
			return
		}
		x = x.next[0]
	}
}
