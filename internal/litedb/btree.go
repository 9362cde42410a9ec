// Package litedb is the reproduction's SQLite: an embedded,
// single-writer, B+tree relational storage engine with two
// interchangeable persistence backends —
//
//   - WAL mode (the baseline): database pages live in a memory-mapped
//     file; committed transactions append dirtied pages to a
//     write-ahead log and fsync it; when the WAL exceeds the
//     checkpoint threshold its frames are copied back into the
//     database file (SQLite's WAL-and-checkpoint design, §7.1).
//   - MemSnap mode (the paper's plugin): database pages live in a
//     MemSnap region; commit is a single msnap_persist uCheckpoint.
//     No WAL, no checkpoints.
//
// The B+tree, catalog, lock manager and transaction layer are shared
// between modes, mirroring how the paper's plugin swaps only the
// storage engine's persistence calls.
package litedb

import (
	"bytes"
	"encoding/binary"
	"fmt"
)

// PageSize is the database page size (configured to 4 KiB to match
// MemSnap's tracking granularity, as §7.1 prescribes).
const PageSize = 4096

// Page layout constants.
const (
	pageTypeLeaf     = 1
	pageTypeInterior = 2

	hdrType     = 0 // u8
	hdrNCells   = 1 // u16
	hdrFreeOff  = 3 // u16: start of the cell content area
	hdrRightPtr = 5 // u32: rightmost child (interior) / next leaf
	hdrSize     = 9
	ptrSize     = 2 // cell pointer array entry
)

// maxPayload bounds key+value so a page always fits at least two
// cells.
const maxPayload = (PageSize - hdrSize - 2*ptrSize - 16) / 2

// pager is what the B+tree needs from a persistence backend.
type pager interface {
	// page returns a read-only view of a page.
	page(pageNo uint32) []byte
	// pageForWrite returns a writable view, marking it dirty in the
	// current transaction.
	pageForWrite(pageNo uint32) []byte
	// allocPage returns a fresh zeroed page number.
	allocPage() uint32
}

// initPage formats a raw page.
func initPage(p []byte, pageType byte) {
	for i := range p {
		p[i] = 0
	}
	p[hdrType] = pageType
	putU16(p, hdrNCells, 0)
	putU16(p, hdrFreeOff, PageSize)
	putU32(p, hdrRightPtr, 0)
}

func putU16(p []byte, off int, v uint16) { binary.LittleEndian.PutUint16(p[off:], v) }
func getU16(p []byte, off int) uint16    { return binary.LittleEndian.Uint16(p[off:]) }
func putU32(p []byte, off int, v uint32) { binary.LittleEndian.PutUint32(p[off:], v) }
func getU32(p []byte, off int) uint32    { return binary.LittleEndian.Uint32(p[off:]) }

// cellPtr returns the content offset of cell i.
func cellPtr(p []byte, i int) int { return int(getU16(p, hdrSize+i*ptrSize)) }

func setCellPtr(p []byte, i int, off int) { putU16(p, hdrSize+i*ptrSize, uint16(off)) }

// leafCell decodes cell i of a leaf page.
func leafCell(p []byte, i int) (key, val []byte) {
	off := cellPtr(p, i)
	kl := int(getU16(p, off))
	vl := int(getU16(p, off+2))
	return p[off+4 : off+4+kl], p[off+4+kl : off+4+kl+vl]
}

// interiorCell decodes cell i of an interior page.
func interiorCell(p []byte, i int) (key []byte, child uint32) {
	off := cellPtr(p, i)
	kl := int(getU16(p, off))
	child = getU32(p, off+2)
	return p[off+6 : off+6+kl], child
}

func leafCellSize(key, val []byte) int { return 4 + len(key) + len(val) }
func interiorCellSize(key []byte) int  { return 6 + len(key) }
func freeSpace(p []byte) int {
	return int(getU16(p, hdrFreeOff)) - hdrSize - int(getU16(p, hdrNCells))*ptrSize
}
func nCells(p []byte) int { return int(getU16(p, hdrNCells)) }

// findCell binary-searches for key; returns (index, exact).
func findCell(p []byte, key []byte, interior bool) (int, bool) {
	lo, hi := 0, nCells(p)
	for lo < hi {
		mid := (lo + hi) / 2
		var k []byte
		if interior {
			k, _ = interiorCell(p, mid)
		} else {
			k, _ = leafCell(p, mid)
		}
		switch bytes.Compare(key, k) {
		case 0:
			return mid, true
		case -1:
			hi = mid
		default:
			lo = mid + 1
		}
	}
	return lo, false
}

// insertLeafCell writes a cell into a leaf page at index idx. Caller
// guarantees space.
func insertLeafCell(p []byte, idx int, key, val []byte) {
	size := leafCellSize(key, val)
	off := int(getU16(p, hdrFreeOff)) - size
	putU16(p, off, uint16(len(key)))
	putU16(p, off+2, uint16(len(val)))
	copy(p[off+4:], key)
	copy(p[off+4+len(key):], val)
	n := nCells(p)
	copy(p[hdrSize+(idx+1)*ptrSize:], p[hdrSize+idx*ptrSize:hdrSize+n*ptrSize])
	setCellPtr(p, idx, off)
	putU16(p, hdrNCells, uint16(n+1))
	putU16(p, hdrFreeOff, uint16(off))
}

func insertInteriorCell(p []byte, idx int, key []byte, child uint32) {
	size := interiorCellSize(key)
	off := int(getU16(p, hdrFreeOff)) - size
	putU16(p, off, uint16(len(key)))
	putU32(p, off+2, child)
	copy(p[off+6:], key)
	n := nCells(p)
	copy(p[hdrSize+(idx+1)*ptrSize:], p[hdrSize+idx*ptrSize:hdrSize+n*ptrSize])
	setCellPtr(p, idx, off)
	putU16(p, hdrNCells, uint16(n+1))
	putU16(p, hdrFreeOff, uint16(off))
}

// removeCell drops cell idx (content space is reclaimed by compact).
func removeCell(p []byte, idx int) {
	n := nCells(p)
	copy(p[hdrSize+idx*ptrSize:], p[hdrSize+(idx+1)*ptrSize:hdrSize+n*ptrSize])
	putU16(p, hdrNCells, uint16(n-1))
}

// compact rewrites a page dropping dead cell content.
func compact(p []byte) {
	interior := p[hdrType] == pageTypeInterior
	n := nCells(p)
	type cell struct {
		key, val []byte
		child    uint32
	}
	cells := make([]cell, n)
	for i := 0; i < n; i++ {
		if interior {
			k, c := interiorCell(p, i)
			cells[i] = cell{key: append([]byte(nil), k...), child: c}
		} else {
			k, v := leafCell(p, i)
			cells[i] = cell{key: append([]byte(nil), k...), val: append([]byte(nil), v...)}
		}
	}
	right := getU32(p, hdrRightPtr)
	initPage(p, p[hdrType])
	putU32(p, hdrRightPtr, right)
	for i, c := range cells {
		if interior {
			insertInteriorCell(p, i, c.key, c.child)
		} else {
			insertLeafCell(p, i, c.key, c.val)
		}
	}
}

// btree is one table's B+tree rooted at a page.
type btree struct {
	pg   pager
	root uint32
}

// get returns the value for key, or (nil, false).
func (t *btree) get(key []byte) ([]byte, bool) {
	pageNo := t.root
	for {
		p := t.pg.page(pageNo)
		if p[hdrType] == pageTypeLeaf {
			idx, exact := findCell(p, key, false)
			if !exact {
				return nil, false
			}
			_, v := leafCell(p, idx)
			return append([]byte(nil), v...), true
		}
		idx, exact := findCell(p, key, true)
		if exact {
			_, child := interiorCell(p, idx)
			pageNo = child
			continue
		}
		if idx < nCells(p) {
			_, child := interiorCell(p, idx)
			pageNo = child
		} else {
			pageNo = getU32(p, hdrRightPtr)
		}
	}
}

// put inserts or replaces key. Returns an error for oversized
// payloads.
func (t *btree) put(key, val []byte) error {
	if len(key)+len(val) > maxPayload {
		return fmt.Errorf("litedb: payload %d exceeds max %d", len(key)+len(val), maxPayload)
	}
	newRoot, err := t.insert(t.root, key, val)
	if err != nil {
		return err
	}
	t.root = newRoot
	return nil
}

// splitResult carries a promoted separator after a child split.
type splitResult struct {
	sep      []byte
	newRight uint32
}

// insert descends into pageNo; returns the (possibly new) root.
func (t *btree) insert(rootNo uint32, key, val []byte) (uint32, error) {
	split, err := t.insertInto(rootNo, key, val)
	if err != nil {
		return 0, err
	}
	if split == nil {
		return rootNo, nil
	}
	// Root split: new interior root.
	newRootNo := t.pg.allocPage()
	p := t.pg.pageForWrite(newRootNo)
	initPage(p, pageTypeInterior)
	insertInteriorCell(p, 0, split.sep, rootNo)
	putU32(p, hdrRightPtr, split.newRight)
	return newRootNo, nil
}

func (t *btree) insertInto(pageNo uint32, key, val []byte) (*splitResult, error) {
	p := t.pg.page(pageNo)
	if p[hdrType] == pageTypeLeaf {
		return t.insertLeaf(pageNo, key, val)
	}

	idx, exact := findCell(p, key, true)
	var childNo uint32
	if exact || idx < nCells(p) {
		_, childNo = interiorCell(p, idx)
	} else {
		childNo = getU32(p, hdrRightPtr)
	}
	split, err := t.insertInto(childNo, key, val)
	if err != nil || split == nil {
		return nil, err
	}

	// Child split: insert the separator here.
	wp := t.pg.pageForWrite(pageNo)
	if freeSpace(wp) < interiorCellSize(split.sep)+ptrSize {
		compact(wp)
	}
	if freeSpace(wp) < interiorCellSize(split.sep)+ptrSize {
		return t.splitInterior(pageNo, split)
	}
	t.addSeparator(wp, split)
	return nil, nil
}

// addSeparator inserts split.sep into interior page wp.
func (t *btree) addSeparator(wp []byte, split *splitResult) {
	idx, _ := findCell(wp, split.sep, true)
	if idx < nCells(wp) {
		// The child that split was cells[idx].child; its cell now
		// routes keys <= sep to the old child; the new right sibling
		// takes over the old cell's position via a new cell.
		_, oldChild := interiorCell(wp, idx)
		t.replaceChild(wp, idx, split.newRight)
		insertInteriorCell(wp, idx, split.sep, oldChild)
	} else {
		// Split of the rightmost child.
		oldRight := getU32(wp, hdrRightPtr)
		insertInteriorCell(wp, idx, split.sep, oldRight)
		putU32(wp, hdrRightPtr, split.newRight)
	}
}

// replaceChild rewrites the child pointer of cell idx.
func (t *btree) replaceChild(p []byte, idx int, child uint32) {
	off := cellPtr(p, idx)
	putU32(p, off+2, child)
}

func (t *btree) insertLeaf(pageNo uint32, key, val []byte) (*splitResult, error) {
	p := t.pg.pageForWrite(pageNo)
	idx, exact := findCell(p, key, false)
	if exact {
		_, old := leafCell(p, idx)
		if len(old) == len(val) {
			// In-place update.
			off := cellPtr(p, idx)
			kl := int(getU16(p, off))
			copy(p[off+4+kl:], val)
			return nil, nil
		}
		removeCell(p, idx)
	}
	need := leafCellSize(key, val) + ptrSize
	if freeSpace(p) < need {
		compact(p)
	}
	if freeSpace(p) >= need {
		idx, _ = findCell(p, key, false)
		insertLeafCell(p, idx, key, val)
		return nil, nil
	}
	return t.splitLeaf(pageNo, key, val)
}

// splitLeaf splits a full leaf and inserts the pending key into the
// proper half. Returns the separator for the parent.
func (t *btree) splitLeaf(pageNo uint32, key, val []byte) (*splitResult, error) {
	p := t.pg.pageForWrite(pageNo)
	n := nCells(p)
	type kv struct{ k, v []byte }
	cells := make([]kv, 0, n+1)
	for i := 0; i < n; i++ {
		k, v := leafCell(p, i)
		cells = append(cells, kv{append([]byte(nil), k...), append([]byte(nil), v...)})
	}
	idx, _ := findCell(p, key, false)
	cells = append(cells[:idx], append([]kv{{append([]byte(nil), key...), append([]byte(nil), val...)}}, cells[idx:]...)...)

	mid := len(cells) / 2
	rightNo := t.pg.allocPage()
	right := t.pg.pageForWrite(rightNo)
	initPage(right, pageTypeLeaf)
	// Leaf chain: new right takes over p's next pointer.
	putU32(right, hdrRightPtr, getU32(p, hdrRightPtr))

	oldNext := getU32(p, hdrRightPtr)
	_ = oldNext
	initPage(p, pageTypeLeaf)
	putU32(p, hdrRightPtr, rightNo)
	for i, c := range cells[:mid] {
		insertLeafCell(p, i, c.k, c.v)
	}
	for i, c := range cells[mid:] {
		insertLeafCell(right, i, c.k, c.v)
	}
	return &splitResult{sep: cells[mid-1].k, newRight: rightNo}, nil
}

// splitInterior splits a full interior page that must absorb `split`.
func (t *btree) splitInterior(pageNo uint32, pending *splitResult) (*splitResult, error) {
	p := t.pg.pageForWrite(pageNo)
	n := nCells(p)
	type ic struct {
		k     []byte
		child uint32
	}
	cells := make([]ic, 0, n+1)
	for i := 0; i < n; i++ {
		k, c := interiorCell(p, i)
		cells = append(cells, ic{append([]byte(nil), k...), c})
	}
	rightmost := getU32(p, hdrRightPtr)

	// Merge the pending separator into the cell list.
	idx := 0
	for idx < len(cells) && bytes.Compare(pending.sep, cells[idx].k) > 0 {
		idx++
	}
	if idx < len(cells) {
		oldChild := cells[idx].child
		cells[idx].child = pending.newRight
		cells = append(cells[:idx], append([]ic{{pending.sep, oldChild}}, cells[idx:]...)...)
	} else {
		cells = append(cells, ic{pending.sep, rightmost})
		rightmost = pending.newRight
	}

	mid := len(cells) / 2
	sep := cells[mid]

	rightNo := t.pg.allocPage()
	right := t.pg.pageForWrite(rightNo)
	initPage(right, pageTypeInterior)
	for i, c := range cells[mid+1:] {
		insertInteriorCell(right, i, c.k, c.child)
	}
	putU32(right, hdrRightPtr, rightmost)

	initPage(p, pageTypeInterior)
	for i, c := range cells[:mid] {
		insertInteriorCell(p, i, c.k, c.child)
	}
	putU32(p, hdrRightPtr, sep.child)

	return &splitResult{sep: sep.k, newRight: rightNo}, nil
}

// delete removes key. Pages are not rebalanced (like SQLite, space is
// reused by later inserts after compaction).
func (t *btree) delete(key []byte) bool {
	pageNo := t.root
	for {
		p := t.pg.page(pageNo)
		if p[hdrType] == pageTypeLeaf {
			idx, exact := findCell(p, key, false)
			if !exact {
				return false
			}
			wp := t.pg.pageForWrite(pageNo)
			removeCell(wp, idx)
			return true
		}
		idx, exact := findCell(p, key, true)
		if exact || idx < nCells(p) {
			_, child := interiorCell(p, idx)
			pageNo = child
		} else {
			pageNo = getU32(p, hdrRightPtr)
		}
	}
}
