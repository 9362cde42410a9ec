// Package wal implements the write-ahead log used by the baseline
// database configurations: length-prefixed, checksummed records
// appended to a file and made durable with fsync. The baselines only
// write it (the experiments time the logging, not a recovery); the
// tests read it back up to the first invalid record.
//
// MemSnap's thesis is that this entire mechanism — and the double
// write it implies — can be subsumed by uCheckpoints; the baselines
// keep it so the comparison is faithful.
package wal

import (
	"encoding/binary"
	"hash/fnv"

	"memsnap/internal/fs"
	"memsnap/internal/sim"
)

const headerSize = 12 // length (4) + checksum (8)

// WAL is one write-ahead log file.
type WAL struct {
	file   *fs.File
	offset int64
}

// Create makes a fresh log at path.
func Create(fsys *fs.FS, clk *sim.Clock, path string) *WAL {
	return &WAL{file: fsys.Create(clk, path)}
}

func checksum(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// Append adds one record to the log (buffered; call Sync for
// durability). Returns the record's offset.
func (w *WAL) Append(clk *sim.Clock, rec []byte) int64 {
	hdr := make([]byte, headerSize)
	binary.LittleEndian.PutUint32(hdr[0:], uint32(len(rec)))
	binary.LittleEndian.PutUint64(hdr[4:], checksum(rec))
	off := w.offset
	buf := append(hdr, rec...)
	w.file.Write(clk, off, buf)
	w.offset += int64(len(buf))
	return off
}

// Sync makes all appended records durable.
func (w *WAL) Sync(clk *sim.Clock) {
	w.file.Fsync(clk)
}

// Size returns the byte size of the log.
func (w *WAL) Size() int64 { return w.offset }

// File exposes the backing file (callers that cache record offsets
// read payloads back without a full replay).
func (w *WAL) File() *fs.File { return w.file }

// Reset truncates the log after a checkpoint has captured its
// contents.
func (w *WAL) Reset(clk *sim.Clock) {
	w.file.Truncate(clk, 0)
	w.offset = 0
}
