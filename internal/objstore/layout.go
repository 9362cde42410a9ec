package objstore

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// On-disk layout.
//
//	offset 0:              superblock (1 sector)
//	offset 4096:           directory ring (dirRingSlots sectors)
//	offset dirDataStart:   directory block (1 block, COW)
//	data area:             tree nodes and data blocks, managed by the
//	                       allocator from the bottom up
//	top of the array:      object rings, one stripe unit each, stacked
//	                       down from the end
//
// A tree node is one block of treeFanout little-endian child
// addresses with no header; node.img in tree.go is that block, so
// nodes have no marshal step. The tree's top level is no block: its
// rootSlots child addresses ride in the object's base record, and the
// leaf entries set since the leaves were last written ride in the
// delta records of the object's log.
const (
	magicSuper  = 0x4d534e41505355 // "MSNAPSU"
	magicDirRec = 0x4d534e41504452 // "MSNAPDR"
	magicBase   = 0x4d534e41504f42 // "MSNAPOB"
	magicDelta  = 0x4d534e41504f44 // "MSNAPOD"

	sectorSize   = 512
	dirRingOff   = BlockSize
	dirRingSlots = 8
	dataStartOff = dirRingOff + dirRingSlots*sectorSize // rounded up below

	// An object's ring is ringBlocks contiguous blocks, one 64 KiB
	// stripe unit aligned to its size, so one device holds it and
	// recovery reads it with one device read. Sectors 0 and 1 are two
	// base slots, which flushes alternate between; the other logSectors
	// sectors are a redo log of delta records, one per commit since the
	// last flush, appended in order from sector 0. Every record is
	// submitted no earlier than the object's previous one completes, so
	// a torn record is always the newest, and a flush's base is durable
	// before the log behind it is overwritten.
	ringBlocks = 16
	ringBytes  = ringBlocks * BlockSize
	baseSlots  = 2
	logSectors = ringBytes/sectorSize - baseSlots

	// A record is a recHeader-byte header, 8-byte words (the top level's
	// rootSlots child addresses in a base, leaf entries in a delta) and
	// an 8-byte checksum, written as whole sectors. A base is exactly
	// one sector.
	recHeader = 24
	rootSlots = (sectorSize - recHeader - 8) / 8
	entrySize = 8

	// maxPackedBlocks bounds an object's block count and a store's
	// capacity in blocks: an entry packs a block index and a block
	// number in a uint32 each.
	maxPackedBlocks = 1 << 32
)

// dataStart returns the first block-aligned offset after the fixed
// areas.
func dataStart() int64 {
	off := int64(dataStartOff)
	if r := off % BlockSize; r != 0 {
		off += BlockSize - r
	}
	return off
}

// castagnoli is the CRC-32C table; on amd64 and arm64 crc32 computes
// it with the CPU's CRC instructions.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// checksum is the CRC-32C of b, stored in an 8-byte field.
func checksum(b []byte) uint64 {
	return uint64(crc32.Checksum(b, castagnoli))
}

// superblock is written once at format time.
type superblock struct {
	Magic     uint64
	Version   uint64
	DataStart int64
	Capacity  int64
}

func (sb *superblock) marshal() []byte {
	buf := make([]byte, sectorSize)
	binary.LittleEndian.PutUint64(buf[0:], sb.Magic)
	binary.LittleEndian.PutUint64(buf[8:], sb.Version)
	binary.LittleEndian.PutUint64(buf[16:], uint64(sb.DataStart))
	binary.LittleEndian.PutUint64(buf[24:], uint64(sb.Capacity))
	binary.LittleEndian.PutUint64(buf[40:], checksum(buf[:40]))
	return buf
}

func unmarshalSuperblock(buf []byte) (*superblock, error) {
	if checksum(buf[:40]) != binary.LittleEndian.Uint64(buf[40:]) {
		return nil, fmt.Errorf("objstore: superblock checksum mismatch")
	}
	sb := &superblock{
		Magic:     binary.LittleEndian.Uint64(buf[0:]),
		Version:   binary.LittleEndian.Uint64(buf[8:]),
		DataStart: int64(binary.LittleEndian.Uint64(buf[16:])),
		Capacity:  int64(binary.LittleEndian.Uint64(buf[24:])),
	}
	if sb.Magic != magicSuper {
		return nil, fmt.Errorf("objstore: bad superblock magic %#x", sb.Magic)
	}
	return sb, nil
}

// dirRecord is one directory-ring slot: a pointer to the current
// directory block.
type dirRecord struct {
	Magic    uint64
	Seq      uint64
	DirBlock int64
}

func (r *dirRecord) marshal() []byte {
	buf := make([]byte, sectorSize)
	binary.LittleEndian.PutUint64(buf[0:], r.Magic)
	binary.LittleEndian.PutUint64(buf[8:], r.Seq)
	binary.LittleEndian.PutUint64(buf[16:], uint64(r.DirBlock))
	binary.LittleEndian.PutUint64(buf[24:], checksum(buf[:24]))
	return buf
}

func unmarshalDirRecord(buf []byte) (*dirRecord, bool) {
	if checksum(buf[:24]) != binary.LittleEndian.Uint64(buf[24:]) {
		return nil, false
	}
	r := &dirRecord{
		Magic:    binary.LittleEndian.Uint64(buf[0:]),
		Seq:      binary.LittleEndian.Uint64(buf[8:]),
		DirBlock: int64(binary.LittleEndian.Uint64(buf[16:])),
	}
	if r.Magic != magicDirRec {
		return nil, false
	}
	return r, true
}

// dirEntry is one object in the directory block.
type dirEntry struct {
	Name      string
	RingOff   int64
	MaxBlocks int64
}

const maxNameLen = 48

// marshalDirectory packs entries into one block.
func marshalDirectory(entries []dirEntry) ([]byte, error) {
	buf := make([]byte, BlockSize)
	binary.LittleEndian.PutUint32(buf[0:], uint32(len(entries)))
	off := 8
	for _, e := range entries {
		if len(e.Name) > maxNameLen {
			return nil, fmt.Errorf("objstore: name %q too long", e.Name)
		}
		if off+maxNameLen+24 > BlockSize {
			return nil, fmt.Errorf("objstore: directory full (%d objects)", len(entries))
		}
		copy(buf[off:], e.Name)
		binary.LittleEndian.PutUint64(buf[off+maxNameLen:], uint64(len(e.Name)))
		binary.LittleEndian.PutUint64(buf[off+maxNameLen+8:], uint64(e.RingOff))
		binary.LittleEndian.PutUint64(buf[off+maxNameLen+16:], uint64(e.MaxBlocks))
		off += maxNameLen + 24
	}
	return buf, nil
}

func unmarshalDirectory(buf []byte) []dirEntry {
	n := int(binary.LittleEndian.Uint32(buf[0:]))
	entries := make([]dirEntry, 0, n)
	off := 8
	for i := 0; i < n; i++ {
		nameLen := int(binary.LittleEndian.Uint64(buf[off+maxNameLen:]))
		if nameLen > maxNameLen {
			break // corrupt entry; directory writes are COW so this
			// only happens with a torn dir block, caught by the ring
		}
		entries = append(entries, dirEntry{
			Name:      string(buf[off : off+nameLen]),
			RingOff:   int64(binary.LittleEndian.Uint64(buf[off+maxNameLen+8:])),
			MaxBlocks: int64(binary.LittleEndian.Uint64(buf[off+maxNameLen+16:])),
		})
		off += maxNameLen + 24
	}
	return entries
}

// A record's header is the magic (magicBase or magicDelta), the
// epoch, the tree's levels as a uint32 and its word count as a uint32;
// the words follow it and the checksum follows them. A base's words
// are the tree's top level (rootSlots little-endian child addresses,
// 0 = absent) as of its epoch. A delta's words are the entries its
// commit set (packEntry, ascending by index), which recovery applies
// on top of the base and the deltas before it. The object keeps its
// base image in memory (Object.base, whose top level is
// tree.root.img), so a flush has no marshal step; it stamps the header
// and the checksum and writes the sector.

// entryAt returns entry i of delta image rec.
func entryAt(rec []byte, i int) uint64 {
	return binary.LittleEndian.Uint64(rec[recHeader+i*entrySize:])
}

// packEntry packs a leaf entry, block idx at address addr, as it lies
// in a delta: a little-endian uint64 whose low word is the block
// number (addr / BlockSize) and whose high word is the index, so
// entries order by index.
func packEntry(idx, addr int64) uint64 {
	return uint64(idx)<<32 | uint64(addr/BlockSize)
}

// unpackEntry returns the block index and address of a packed entry.
func unpackEntry(e uint64) (idx, addr int64) {
	return int64(e >> 32), int64(e&(1<<32-1)) * BlockSize
}

// recordSectors is how many sectors a record of n words takes.
func recordSectors(n int) int {
	return (recHeader + n*entrySize + 8 + sectorSize - 1) / sectorSize
}

// sealRecord stamps record image rec, whose n words are in place, with
// the header and the checksum, and returns the whole sectors to write.
func sealRecord(rec []byte, magic, epoch uint64, levels, n int) []byte {
	binary.LittleEndian.PutUint64(rec[0:], magic)
	binary.LittleEndian.PutUint64(rec[8:], epoch)
	binary.LittleEndian.PutUint32(rec[16:], uint32(levels))
	binary.LittleEndian.PutUint32(rec[20:], uint32(n))
	end := recHeader + n*entrySize
	binary.LittleEndian.PutUint64(rec[end:], checksum(rec[:end]))
	size := recordSectors(n) * sectorSize
	clear(rec[end+8 : size])
	return rec[:size]
}

// validRecord returns the word count of the record at the start of b
// and whether one with the given magic is there: its words and
// checksum fit in b and the checksum, which sits after the words the
// header counts, matches. A torn record, whose sectors mix two
// records, fails it.
func validRecord(b []byte, magic uint64) (int, bool) {
	n := int(binary.LittleEndian.Uint32(b[20:]))
	end := recHeader + n*entrySize
	if end+8 > len(b) {
		return 0, false
	}
	return n, binary.LittleEndian.Uint64(b[0:]) == magic &&
		checksum(b[:end]) == binary.LittleEndian.Uint64(b[end:])
}

// recordEpoch and recordLevels read a record image's header.
func recordEpoch(rec []byte) uint64 { return binary.LittleEndian.Uint64(rec[8:]) }

func recordLevels(rec []byte) int { return int(binary.LittleEndian.Uint32(rec[16:])) }
