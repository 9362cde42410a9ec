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
// disk — treeFanout little-endian child addresses (0 = absent) — and
// is also the only in-memory copy of them: Commit hands img to the
// disk as is and recovery adopts the block it read. kids caches loaded
// child nodes for interior levels.
type node struct {
	addr int64   // disk address this image was last written to
	img  []byte  // BlockSize bytes
	kids []*node // interior nodes only
}

func newNode(interior bool) *node {
	// Nodes are retained across commits; COW rewrites reuse them.
	n := &node{img: make([]byte, BlockSize)}
	if interior {
		n.kids = make([]*node, treeFanout)
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
// to data-block disk addresses.
type tree struct {
	root   *node
	levels int // 1 = root is a leaf
	// topDiv is treeFanout^(levels-1): the divisor that extracts the
	// root-level slot from a block index, so path walks need no
	// per-call slot-path allocation.
	topDiv int64
}

// levelsFor returns how many radix levels are needed for maxBlocks
// blocks.
func levelsFor(maxBlocks int64) int {
	levels := 1
	capacity := int64(treeFanout)
	for capacity < maxBlocks {
		capacity *= treeFanout
		levels++
	}
	return levels
}

func newTree(maxBlocks int64) *tree {
	levels := levelsFor(maxBlocks)
	topDiv := int64(1)
	for i := 0; i < levels-1; i++ {
		topDiv *= treeFanout
	}
	return &tree{root: newNode(levels > 1), levels: levels, topDiv: topDiv}
}

// lookup returns the data-block address for idx, or 0.
func (t *tree) lookup(idx int64) int64 {
	n := t.root
	div := t.topDiv
	for level := 0; level < t.levels-1; level++ {
		n = n.kids[int((idx/div)%treeFanout)]
		if n == nil {
			return 0
		}
		div /= treeFanout
	}
	return n.child(int((idx / div) % treeFanout))
}

// set installs addr for idx and returns the previous address (0 if
// none). Interior nodes are created as needed.
func (t *tree) set(idx int64, addr int64) (old int64) {
	n := t.root
	div := t.topDiv
	for level := 0; level < t.levels-1; level++ {
		slot := int((idx / div) % treeFanout)
		next := n.kids[slot]
		if next == nil {
			next = newNode(level < t.levels-2)
			n.kids[slot] = next
			n.setChild(slot, 0) // not yet on disk
		}
		n = next
		div /= treeFanout
	}
	slot := int((idx / div) % treeFanout)
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
		for i := 0; i < treeFanout; i++ {
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
	for i := 0; i < treeFanout; i++ {
		if n.kids[i] != nil {
			t.walk(n.kids[i], base+int64(i)*span, levelsLeft-1, fn)
		}
	}
}
