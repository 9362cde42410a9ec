package objstore

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"slices"
)

// On-disk layout.
//
//	offset 0:              superblock (1 sector)
//	offset 4096:           directory ring (dirRingSlots sectors)
//	offset dirDataStart:   directory block (1 block, COW)
//	data area:             everything else (object rings, tree nodes,
//	                       data blocks), managed by the allocator
//
// A tree node is one block of treeFanout little-endian child
// addresses with no header; node.img in tree.go is that block, so
// nodes have no marshal step. The tree's top level is no block: its
// rootSlots child addresses ride in the object's commit record.
const (
	magicSuper  = 0x4d534e41505355 // "MSNAPSU"
	magicDirRec = 0x4d534e41504452 // "MSNAPDR"
	magicObjRec = 0x4d534e41504f52 // "MSNAPOR"

	sectorSize   = 512
	dirRingOff   = BlockSize
	dirRingSlots = 8
	dataStartOff = dirRingOff + dirRingSlots*sectorSize // rounded up below

	// objRingSlots is the number of commit-record slots per object;
	// commits rotate through them so a torn write can never destroy
	// the previous valid record.
	objRingSlots = 8
	objRingBytes = objRingSlots * sectorSize

	// A commit record is a recHeader-byte header, the tree's top level
	// (rootSlots child addresses) and an 8-byte checksum, in one sector.
	recHeader = 24
	recSum    = sectorSize - 8
	rootSlots = (recSum - recHeader) / 8
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

// commitRecord is one object-ring slot: the durable root of one
// epoch. It carries the tree's top level itself, so a commit writes
// no root block.
type commitRecord struct {
	Magic  uint64
	Epoch  uint64
	Levels int64
	// Root is the top level's image: rootSlots little-endian child
	// addresses (0 = absent), as in tree.root.img.
	Root []byte
}

// marshalInto writes the record into a caller-owned sector buffer.
func (r *commitRecord) marshalInto(buf []byte) {
	clear(buf[:sectorSize])
	binary.LittleEndian.PutUint64(buf[0:], r.Magic)
	binary.LittleEndian.PutUint64(buf[8:], r.Epoch)
	binary.LittleEndian.PutUint64(buf[16:], uint64(r.Levels))
	copy(buf[recHeader:recSum], r.Root)
	binary.LittleEndian.PutUint64(buf[recSum:], checksum(buf[:recSum]))
}

func unmarshalCommitRecord(buf []byte) (*commitRecord, bool) {
	if checksum(buf[:recSum]) != binary.LittleEndian.Uint64(buf[recSum:]) {
		return nil, false
	}
	r := &commitRecord{
		Magic:  binary.LittleEndian.Uint64(buf[0:]),
		Epoch:  binary.LittleEndian.Uint64(buf[8:]),
		Levels: int64(binary.LittleEndian.Uint64(buf[16:])),
		Root:   slices.Clone(buf[recHeader:recSum]),
	}
	if r.Magic != magicObjRec {
		return nil, false
	}
	return r, true
}
