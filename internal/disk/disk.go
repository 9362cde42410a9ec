// Package disk simulates the storage hardware of the paper's testbed:
// low-latency PCIe SSDs (Intel 900P class) striped pairwise in 64 KiB
// blocks.
//
// The device model is a single-server FIFO queue per SSD: an IO
// submitted at virtual time t starts at max(t, queue drain time) and
// costs a fixed per-command base latency plus a per-byte transfer
// cost. The base/transfer constants are calibrated against the direct
// disk IO column of the paper's Table 6. Striping splits large IOs
// across devices, which is why large sequential writes outrun a single
// queue-depth-one device — the effect the paper notes for MemSnap's
// random IO (sequential on disk).
//
// Devices persist data immediately but track in-flight writes until
// their completion time; CutPower tears in-flight writes at sector
// granularity, which is exactly the failure the crash-consistency
// machinery upstream (COW object store roots, WAL checksums) must
// survive.
package disk

import (
	"fmt"
	"sync"
	"time"

	"memsnap/internal/sim"
)

// blockSize is the unit of the device's backing store and of its undo
// images; it is independent of the sector size writes tear at.
const blockSize = 4096

// slabBlocks is how many block buffers one refill of the free list
// allocates together.
const slabBlocks = 64

// Block is one device block buffer. A write may hand the device a
// filled Block to adopt by pointer instead of bytes to copy (see
// Extent.Block).
type Block = [blockSize]byte

// Device is one simulated SSD.
type Device struct {
	costs *sim.CostModel

	mu       sync.Mutex
	capacity int64
	// blocks is the backing store: one pointer per blockSize bytes of
	// capacity, nil until first written, so multi-GiB devices cost
	// real memory only for the blocks actually used. A write never
	// modifies a block in place: it fills a buffer from free (or adopts
	// the caller's filled one), swaps it into the table and parks the
	// displaced pointer in undo. An adopted buffer takes the place of
	// the spare handed back for it, so table + free + undo always hold
	// as many buffers as the device made, whichever device or caller
	// allocated them.
	blocks   []*Block
	free     []*Block
	nextFree time.Duration
	// inflight has one record per submitted segment, oldest first;
	// undo holds their displaced blocks in the same order, nblk
	// entries per record (nil = the block had never been written).
	inflight []inflightWrite
	undo     []*Block
	// gcFloor is the highest horizon gcInflightLocked has reclaimed
	// undo history up to: state before it cannot be reconstructed, so
	// CutPower clamps earlier cut times forward to it.
	gcFloor time.Duration
	// Straggler window: IO starting in [stragFrom, stragTo) costs
	// stragFactor times the normal base+transfer latency, modeling a
	// degraded device (fail-slow SSD, garbage-collection stall).
	stragFrom, stragTo time.Duration
	stragFactor        int

	writes       int64
	reads        int64
	bytesWritten int64
	bytesRead    int64
}

type inflightWrite struct {
	submit     time.Duration
	completion time.Duration
	offset     int64
	n          int // bytes written
	nblk       int // blocks touched, and entries owned in Device.undo
}

// NewDevice returns an empty device of the given capacity in bytes.
func NewDevice(costs *sim.CostModel, capacity int64) *Device {
	if costs == nil {
		costs = sim.DefaultCosts()
	}
	return &Device{
		costs:    costs,
		capacity: capacity,
		blocks:   make([]*Block, (capacity+blockSize-1)/blockSize),
	}
}

// Capacity returns the device size in bytes.
func (d *Device) Capacity() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.capacity
}

// SetStraggler installs a slow-IO window: any IO whose service starts
// in [from, to) costs factor times the normal base+transfer latency.
// Windows may be installed ahead of virtual time (fault schedules
// pre-install them), and factor <= 1 clears the window. Queueing still
// applies: a straggling IO delays everything behind it, which is the
// fail-slow amplification the window is meant to exercise.
func (d *Device) SetStraggler(from, to time.Duration, factor int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if factor <= 1 {
		d.stragFrom, d.stragTo, d.stragFactor = 0, 0, 0
		return
	}
	d.stragFrom, d.stragTo, d.stragFactor = from, to, factor
}

// ioCostLocked returns the service cost of an n-byte IO whose service
// starts at start, applying the straggler window if one covers start.
func (d *Device) ioCostLocked(start time.Duration, n int) time.Duration {
	cost := d.costs.DiskBaseLatency + d.costs.TransferCost(n)
	if d.stragFactor > 1 && start >= d.stragFrom && start < d.stragTo {
		cost *= time.Duration(d.stragFactor)
	}
	return cost
}

func (d *Device) checkRange(offset int64, n int) {
	if offset < 0 || offset+int64(n) > d.capacity {
		panic(fmt.Sprintf("disk: IO out of range: off=%d len=%d cap=%d", offset, n, d.capacity))
	}
}

// getBlockLocked returns a block buffer with arbitrary contents.
func (d *Device) getBlockLocked() *Block {
	if len(d.free) == 0 {
		// One allocation per slabBlocks first-touched blocks; overwrites recycle through free.
		slab := new([slabBlocks]Block)
		for i := range slab {
			d.free = append(d.free, &slab[i])
		}
	}
	b := d.free[len(d.free)-1]
	d.free = d.free[:len(d.free)-1]
	return b
}

// writeLocked applies one submitted segment: every block it touches
// gets a fresh buffer holding the new contents (a partial block starts
// as a copy of the old one, or zeroes), and the displaced blocks
// become the segment's undo image until gcInflightLocked or CutPower
// recycles them. If adopt is set, the segment is that one whole,
// aligned block: the caller's buffer goes into the table as is, and
// the free buffer the device would have filled is returned as the
// caller's spare.
func (d *Device) writeLocked(submit, completion time.Duration, offset int64, data []byte, adopt *Block) (spare *Block) {
	d.checkRange(offset, len(data))
	if adopt != nil && (offset%blockSize != 0 || len(data) != blockSize) {
		panic(fmt.Sprintf("disk: adopted write must be one aligned block: off=%d len=%d", offset, len(data)))
	}
	parked := len(d.undo)
	for off, rest := offset, data; len(rest) > 0; {
		bi, within := off/blockSize, int(off%blockSize)
		n := min(blockSize-within, len(rest))
		old, nb := d.blocks[bi], d.getBlockLocked()
		if adopt != nil {
			nb, spare = adopt, nb
		} else {
			if n < blockSize {
				if old != nil {
					*nb = *old
				} else {
					clear(nb[:])
				}
			}
			copy(nb[within:], rest[:n])
		}
		d.blocks[bi] = nb
		d.undo = append(d.undo, old)
		off += int64(n)
		rest = rest[n:]
	}
	d.inflight = append(d.inflight, inflightWrite{
		submit: submit, completion: completion,
		offset: offset, n: len(data), nblk: len(d.undo) - parked,
	})
	d.bytesWritten += int64(len(data))
	return spare
}

// readLocked copies device contents into dst; never-written blocks
// read as zeroes and stay unmaterialised.
func (d *Device) readLocked(offset int64, dst []byte) {
	for len(dst) > 0 {
		within := int(offset % blockSize)
		n := min(blockSize-within, len(dst))
		if b := d.blocks[offset/blockSize]; b != nil {
			copy(dst[:n], b[within:])
		} else {
			clear(dst[:n])
		}
		offset += int64(n)
		dst = dst[n:]
	}
}

// SubmitRead issues a read at virtual time at, fills buf, and returns
// the completion time.
func (d *Device) SubmitRead(at time.Duration, offset int64, buf []byte) time.Duration {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.checkRange(offset, len(buf))

	start := max(at, d.nextFree)
	completion := start + d.ioCostLocked(start, len(buf))
	d.nextFree = completion

	d.readLocked(offset, buf)
	d.reads++
	d.bytesRead += int64(len(buf))
	return completion
}

// gcInflightLocked drops in-flight records that completed before the
// oldest time any caller could still cut power at. We use the issue
// time 'at' as a conservative horizon: a power cut is always injected
// at a time >= the last activity observed by the injector.
func (d *Device) gcInflightLocked(at time.Duration) {
	if len(d.inflight) < 64 {
		return
	}
	kept, keptUndo, u := d.inflight[:0], d.undo[:0], 0
	for _, w := range d.inflight {
		olds := d.undo[u : u+w.nblk]
		u += w.nblk
		if w.completion > at {
			kept = append(kept, w)
			keptUndo = append(keptUndo, olds...)
		} else {
			d.recycleLocked(olds)
		}
	}
	if len(kept) < len(d.inflight) && at > d.gcFloor {
		d.gcFloor = at
	}
	// Zero the dropped tail so undo does not keep a second reference
	// to blocks now on the free list.
	clear(d.undo[len(keptUndo):])
	d.inflight, d.undo = kept, keptUndo
}

// recycleLocked returns displaced blocks to the free list.
func (d *Device) recycleLocked(olds []*Block) {
	for _, b := range olds {
		if b != nil {
			d.free = append(d.free, b)
		}
	}
}

// CutPower simulates a power failure at virtual time at. Writes whose
// completion is after at are torn: each sector is independently either
// durable or rolled back to its previous contents, chosen by rng.
// Sectors themselves are never torn (disks guarantee sector
// atomicity). The in-flight list is cleared; the device is then in its
// post-crash state.
//
// A cut earlier than undo history the device has already reclaimed
// (gcInflightLocked finalizes writes behind the latest submission
// times) is clamped forward to the reclaim floor: the device cannot
// reconstruct state before it. Callers cutting an Array should go
// through Array.CutPower, which applies one uniform clamped instant
// across all devices — per-device clamping would crash each device at
// a different virtual time and tear cross-device consistency.
func (d *Device) CutPower(at time.Duration, rng *sim.RNG) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if at < d.gcFloor {
		at = d.gcFloor
	}
	sector := d.costs.DiskSectorSize
	// Roll back newest-first so overlapping in-flight writes resolve
	// to the oldest surviving contents for rolled-back sectors.
	// Sectors count from the start of each submitted segment.
	u := len(d.undo)
	for i := len(d.inflight) - 1; i >= 0; i-- {
		w := d.inflight[i]
		u -= w.nblk
		if w.completion <= at {
			continue
		}
		for s := 0; s < w.n; s += sector {
			// Writes issued at or after the cut never reached the
			// device; writes straddling the cut tear per sector.
			if w.submit < at && rng.Float64() < 0.5 {
				continue // this sector made it to the platter
			}
			d.rollbackLocked(w.offset, d.undo[u:u+w.nblk], s, min(s+sector, w.n))
		}
	}
	d.recycleLocked(d.undo)
	clear(d.undo)
	d.inflight, d.undo = d.inflight[:0], d.undo[:0]
	d.nextFree = 0
}

// rollbackLocked restores bytes [from, to) of the segment written at
// offset from its undo image olds, patching the blocks now in the
// table (which later overlapping writes may since have replaced).
func (d *Device) rollbackLocked(offset int64, olds []*Block, from, to int) {
	first := offset / blockSize
	for off, end := offset+int64(from), offset+int64(to); off < end; {
		bi, within := off/blockSize, int(off%blockSize)
		n := int(min(int64(blockSize-within), end-off))
		cur := d.blocks[bi][within : within+n]
		if old := olds[bi-first]; old != nil {
			copy(cur, old[within:])
		} else {
			clear(cur)
		}
		off += int64(n)
	}
}

// GCFloor reports the time CutPower would clamp an earlier cut
// forward to: the highest horizon the device has reclaimed undo
// history up to (zero while all history is still held).
func (d *Device) GCFloor() time.Duration {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.gcFloor
}

// Stats reports device counters.
type Stats struct {
	Writes       int64
	Reads        int64
	BytesWritten int64
	BytesRead    int64
}

// Stats returns a snapshot of the device counters.
func (d *Device) Stats() Stats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return Stats{
		Writes:       d.writes,
		Reads:        d.reads,
		BytesWritten: d.bytesWritten,
		BytesRead:    d.bytesRead,
	}
}
