package litedb

import "bytes"

// Range scans: the tests walk a table in key order to check the tree
// against an oracle; no workload scans.

// Scan visits rows of a table in key order within [start, end); nil
// end means to the last key.
func (tx *Tx) Scan(tableName string, start, end []byte, fn func(k, v []byte) bool) error {
	t, err := tx.table(tableName)
	if err != nil {
		return err
	}
	t.scan(start, end, fn)
	return nil
}

// scan visits keys in [start, end) in order; fn returns false to
// stop. A nil end scans to the last key.
func (t *btree) scan(start, end []byte, fn func(k, v []byte) bool) {
	// Descend to the leaf containing start.
	pageNo := t.root
	for {
		p := t.pg.page(pageNo)
		if p[hdrType] == pageTypeLeaf {
			break
		}
		idx, exact := findCell(p, start, true)
		if exact || idx < nCells(p) {
			_, child := interiorCell(p, idx)
			pageNo = child
		} else {
			pageNo = getU32(p, hdrRightPtr)
		}
	}
	for pageNo != 0 {
		p := t.pg.page(pageNo)
		n := nCells(p)
		idx, _ := findCell(p, start, false)
		for ; idx < n; idx++ {
			k, v := leafCell(p, idx)
			if end != nil && bytes.Compare(k, end) >= 0 {
				return
			}
			if !fn(k, v) {
				return
			}
		}
		pageNo = getU32(p, hdrRightPtr)
		start = nil
		if pageNo != 0 {
			start = []byte{} // continue from the first cell
		}
	}
}
