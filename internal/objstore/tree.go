package objstore

import "encoding/binary"

// treeFanout is the number of children per radix node (4 KiB node of
// 8-byte disk addresses).
const treeFanout = BlockSize / 8

// treeShift is log2(treeFanout): index x sits in slot
// (x >> (treeShift*h)) & (treeFanout-1) of its node h levels above the
// data blocks.
const treeShift = 9

// node is one radix-tree node. img is the node exactly as it lies on
// disk — little-endian child addresses (0 = absent), treeFanout of
// them in a block, or rootSlots in the commit record for the top
// level — and is also the only in-memory copy of them: Commit hands
// img to the disk as is and recovery adopts the bytes it read. kids
// caches loaded child nodes for interior levels.
type node struct {
	addr int64   // disk address this image was last written to (0 for the top level)
	img  []byte  // 8 bytes per slot
	kids []*node // interior nodes only
}

func newNode(slots int, interior bool) *node {
	// Nodes are retained across commits; COW rewrites reuse them.
	n := &node{img: make([]byte, slots*8)}
	if interior {
		n.kids = make([]*node, slots)
	}
	return n
}

// child returns the disk address in slot i.
func (n *node) child(i int) int64 {
	return int64(binary.LittleEndian.Uint64(n.img[i*8:]))
}

func (n *node) setChild(i int, addr int64) {
	binary.LittleEndian.PutUint64(n.img[i*8:], uint64(addr))
}

// tree is the COW radix tree of one object. Leaves map block indices
// to data-block disk addresses. The root is the top level, rootSlots
// wide; every level below it is treeFanout wide.
type tree struct {
	root   *node
	levels int // 1 = root is a leaf
	// topShift is treeShift*(levels-1): the shift that extracts the
	// root-level slot from a block index, so path walks need no
	// per-call slot-path allocation and no division.
	topShift uint
}

// levelsFor returns how many radix levels are needed for maxBlocks
// blocks: rootSlots·treeFanout^(levels−1) ≥ maxBlocks.
func levelsFor(maxBlocks int64) int {
	levels := 1
	capacity := int64(rootSlots)
	for capacity < maxBlocks {
		capacity *= treeFanout
		levels++
	}
	return levels
}

func newTree(maxBlocks int64) *tree {
	levels := levelsFor(maxBlocks)
	return &tree{root: newNode(rootSlots, levels > 1), levels: levels, topShift: uint(treeShift * (levels - 1))}
}

// lookup returns the data-block address for idx, or 0.
func (t *tree) lookup(idx int64) int64 {
	n := t.root
	shift := t.topShift
	for level := 0; level < t.levels-1; level++ {
		n = n.kids[int(idx>>shift)&(treeFanout-1)]
		if n == nil {
			return 0
		}
		shift -= treeShift
	}
	return n.child(int(idx>>shift) & (treeFanout - 1))
}

// set installs addr for idx and returns the previous address (0 if
// none). Interior nodes are created as needed.
func (t *tree) set(idx int64, addr int64) (old int64) {
	n := t.root
	shift := t.topShift
	for level := 0; level < t.levels-1; level++ {
		slot := int(idx>>shift) & (treeFanout - 1)
		next := n.kids[slot]
		if next == nil {
			next = newNode(treeFanout, level < t.levels-2)
			n.kids[slot] = next
			n.setChild(slot, 0) // not yet on disk
		}
		n = next
		shift -= treeShift
	}
	slot := int(idx>>shift) & (treeFanout - 1)
	old = n.child(slot)
	n.setChild(slot, addr)
	return old
}

// forEach visits every (blockIdx, addr) pair in the tree in index
// order.
func (t *tree) forEach(fn func(idx int64, addr int64)) {
	t.walk(t.root, 0, t.levels, fn)
}

func (t *tree) walk(n *node, base int64, levelsLeft int, fn func(idx, addr int64)) {
	if n == nil {
		return
	}
	if levelsLeft == 1 {
		for i := 0; i < len(n.img)/8; i++ {
			if addr := n.child(i); addr != 0 {
				fn(base+int64(i), addr)
			}
		}
		return
	}
	span := int64(1)
	for i := 0; i < levelsLeft-1; i++ {
		span *= treeFanout
	}
	for i, kid := range n.kids {
		if kid != nil {
			t.walk(kid, base+int64(i)*span, levelsLeft-1, fn)
		}
	}
}
