package rockskv

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sort"

	"memsnap/internal/fs"
	"memsnap/internal/sim"
)

// sstable is one immutable sorted table: records on disk plus an
// in-memory sparse index (key -> file offset), as RocksDB keeps block
// indexes resident.
type sstable struct {
	file  *fs.File
	index []indexEntry
}

type indexEntry struct {
	key       []byte
	off       int64
	len       int32
	tombstone bool
}

// writeSSTable serializes sorted entries into a new table file and
// fsyncs it.
func writeSSTable(fsys *fs.FS, clk *sim.Clock, name string, entries []indexEntry, payload [][]byte) *sstable {
	file := fsys.Create(clk, name)
	t := &sstable{file: file}
	// Buffer the whole table and write once: SSTable creation is one
	// large sequential IO.
	var buf bytes.Buffer
	for i := range entries {
		rec := payload[i]
		hdr := make([]byte, 8)
		binary.LittleEndian.PutUint32(hdr, uint32(len(entries[i].key)))
		binary.LittleEndian.PutUint32(hdr[4:], uint32(len(rec)))
		entries[i].off = int64(buf.Len()) + 8 + int64(len(entries[i].key))
		entries[i].len = int32(len(rec))
		buf.Write(hdr)
		buf.Write(entries[i].key)
		buf.Write(rec)
	}
	file.Write(clk, 0, buf.Bytes())
	file.Fsync(clk)
	t.index = entries
	return t
}

// get looks the key up via the index and reads the value from disk.
func (t *sstable) get(clk *sim.Clock, key []byte) ([]byte, bool, bool) {
	i := sort.Search(len(t.index), func(i int) bool {
		return bytes.Compare(t.index[i].key, key) >= 0
	})
	if i >= len(t.index) || !bytes.Equal(t.index[i].key, key) {
		return nil, false, false
	}
	e := t.index[i]
	val := make([]byte, e.len)
	t.file.Read(clk, e.off, val)
	return val, true, e.tombstone
}

// scan visits entries with key >= start in order.
func (t *sstable) scan(clk *sim.Clock, start []byte, fn func(k, v []byte, tombstone bool) bool) {
	i := sort.Search(len(t.index), func(i int) bool {
		return bytes.Compare(t.index[i].key, start) >= 0
	})
	for ; i < len(t.index); i++ {
		e := t.index[i]
		val := make([]byte, e.len)
		t.file.Read(clk, e.off, val)
		if !fn(e.key, val, e.tombstone) {
			return
		}
	}
}

// flushMemTable turns a full MemTable into an SSTable.
func flushMemTable(fsys *fs.FS, clk *sim.Clock, name string, m *memTable) *sstable {
	var entries []indexEntry
	var payload [][]byte
	m.scan(nil, func(k, v []byte, tomb bool) bool {
		entries = append(entries, indexEntry{key: append([]byte(nil), k...), tombstone: tomb})
		payload = append(payload, append([]byte(nil), v...))
		return true
	})
	return writeSSTable(fsys, clk, name, entries, payload)
}

// compact merges tables (newest first) into one, dropping shadowed
// and deleted entries. This is RocksDB's background garbage
// collection, charged to the calling thread.
func compact(fsys *fs.FS, clk *sim.Clock, name string, tables []*sstable) *sstable {
	latest := make(map[string]int) // key -> table index that wins
	for i, t := range tables {
		for _, e := range t.index {
			k := string(e.key)
			if _, seen := latest[k]; !seen {
				latest[k] = i
			}
		}
	}
	type merged struct {
		entry   indexEntry
		payload []byte
	}
	var out []merged
	for i, t := range tables {
		for _, e := range t.index {
			if latest[string(e.key)] != i || e.tombstone {
				continue
			}
			val := make([]byte, e.len)
			t.file.Read(clk, e.off, val)
			out = append(out, merged{entry: indexEntry{key: e.key}, payload: val})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		return bytes.Compare(out[i].entry.key, out[j].entry.key) < 0
	})
	entries := make([]indexEntry, len(out))
	payload := make([][]byte, len(out))
	for i, m := range out {
		entries[i] = m.entry
		payload[i] = m.payload
	}
	mergedTable := writeSSTable(fsys, clk, name, entries, payload)
	for i, t := range tables {
		fsys.Remove(clk, t.file.Name())
		_ = i
	}
	return mergedTable
}

// tableName generates sstable file names.
func tableName(n int64) string { return fmt.Sprintf("sst-%06d", n) }
