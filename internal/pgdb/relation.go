// Package pgdb is the reproduction's PostgreSQL: a multiprocess MVCC
// database with an 8 KiB buffer cache, evaluated under the four
// storage variants of the paper's Figure 6 —
//
//   - VarFFS (baseline): relations are files; commits append logical
//     WAL records with full-page writes and fsync; a checkpointer
//     flushes dirty buffers when the WAL grows past a threshold.
//   - VarMmap: relations are memory-mapped; flushes go through msync,
//     whose cost scales with the resident set.
//   - VarMmapBufDirect: mapped relations are modified in place with
//     no buffer-cache staging copy; every commit logs full images of
//     all pages it touched (nothing else isolates uncommitted data).
//   - VarMemSnap: relations are MemSnap regions; a commit is one
//     msnap_persist of the backend's dirty set. full_page_writes is
//     off and the WAL is gone (§7.3).
//
// MVCC is what makes per-backend persistence safe: tuples are never
// updated in place, so a uCheckpoint that carries another backend's
// appended-but-uncommitted tuple versions cannot corrupt anything —
// visibility is decided by the commit log, not by page contents.
package pgdb

import (
	"encoding/binary"
	"fmt"
)

// HeapPageSize is PostgreSQL's 8 KiB block size.
const HeapPageSize = 8192

// TID addresses one tuple version: heap page and line-pointer slot.
type TID struct {
	Page uint32
	Slot uint16
}

// Tuple header layout within a heap page slot:
//
//	xmin u32: inserting transaction
//	xmax u32: deleting/superseding transaction (0 = live)
//	len  u16: payload length
const tupleHdr = 10

// Heap page layout:
//
//	nslots u16
//	free   u16 (offset where the next tuple payload ends; payloads
//	            grow down from the end, slot pointers grow up)
//	slot pointers: u16 offsets
const heapHdr = 4

// relation is one table's heap: a sequence of 8 KiB pages accessed
// through the cluster's storage layer.
type relation struct {
	pages uint32 // allocated heap pages
}

// heapInit formats an empty heap page.
func heapInit(p []byte) {
	for i := range p {
		p[i] = 0
	}
	binary.LittleEndian.PutUint16(p, 0)
	binary.LittleEndian.PutUint16(p[2:], HeapPageSize)
}

// heapFree returns the usable space left in a page.
func heapFree(p []byte) int {
	n := int(binary.LittleEndian.Uint16(p))
	free := int(binary.LittleEndian.Uint16(p[2:]))
	return free - heapHdr - n*2
}

// heapInsert appends a tuple version; returns the slot. Caller
// guarantees space.
func heapInsert(p []byte, xmin uint32, payload []byte) uint16 {
	n := int(binary.LittleEndian.Uint16(p))
	free := int(binary.LittleEndian.Uint16(p[2:]))
	need := tupleHdr + len(payload)
	off := free - need
	binary.LittleEndian.PutUint32(p[off:], xmin)
	binary.LittleEndian.PutUint32(p[off+4:], 0)
	binary.LittleEndian.PutUint16(p[off+8:], uint16(len(payload)))
	copy(p[off+tupleHdr:], payload)
	binary.LittleEndian.PutUint16(p[heapHdr+n*2:], uint16(off))
	binary.LittleEndian.PutUint16(p, uint16(n+1))
	binary.LittleEndian.PutUint16(p[2:], uint16(off))
	return uint16(n)
}

// heapTuple returns (xmin, xmax, payload) of a slot.
func heapTuple(p []byte, slot uint16) (uint32, uint32, []byte) {
	n := int(binary.LittleEndian.Uint16(p))
	if int(slot) >= n {
		panic(fmt.Sprintf("pgdb: slot %d out of range (%d)", slot, n))
	}
	off := int(binary.LittleEndian.Uint16(p[heapHdr+int(slot)*2:]))
	xmin := binary.LittleEndian.Uint32(p[off:])
	xmax := binary.LittleEndian.Uint32(p[off+4:])
	l := int(binary.LittleEndian.Uint16(p[off+8:]))
	return xmin, xmax, p[off+tupleHdr : off+tupleHdr+l]
}

// heapSetXmax marks a version superseded by xid.
func heapSetXmax(p []byte, slot uint16, xid uint32) {
	off := int(binary.LittleEndian.Uint16(p[heapHdr+int(slot)*2:]))
	binary.LittleEndian.PutUint32(p[off+4:], xid)
}

// heapFits reports whether a payload fits the page.
func heapFits(p []byte, payload []byte) bool {
	return heapFree(p) >= tupleHdr+len(payload)+2
}

// maxTuple bounds tuple payloads to one page.
const maxTuple = HeapPageSize - heapHdr - tupleHdr - 2
