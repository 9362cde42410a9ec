package shard

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"memsnap/internal/core"
)

// Per-shard region layout. Page 0 is the static header: the magic,
// the shard's identity and capacity, and the format-time baseline of
// the manifest counters; only format writes it. Every following page is
// a slot page: 63 fixed-size hash slots, and in its last 64-byte slot a
// manifest copy. A group commit writes its counters into the copy of
// the last slot page its writes dirtied, so the counters ride in a page
// the uCheckpoint already carries and cost it no page of their own.
// Recovery takes the copy with the highest commit count, or the
// baseline when no copy is newer: that copy lies in a page of the
// newest durable commit, so the counters exactly describe the slot
// contents the region recovered to.
const (
	// headerMagic identifies an initialized shard region ("MSHARD1\0").
	headerMagic uint64 = 0x0031_4452_4148_534d

	// slotSize is the on-region footprint of one key-value slot.
	slotSize = 64
	// MaxKeyLen bounds the composed tenant+key byte length.
	MaxKeyLen = 40
	// slotsPerPage leaves a slot page's last slot to its manifest copy.
	slotsPerPage = core.PageSize/slotSize - 1
	copyOff      = slotsPerPage * slotSize

	// slot state byte values.
	slotEmpty = 0
	slotLive  = 1
	slotDead  = 2 // tombstone: keeps probe chains intact after Delete
)

// Header page field offsets (all little-endian). The baseline counters
// at hdrCounters have the layout of a manifest copy.
const (
	hdrMagic    = 0  // u64
	hdrShardID  = 8  // u32
	hdrShards   = 12 // u32 total shard count, guards against resharding
	hdrSlots    = 16 // u64 slot capacity
	hdrCounters = 24 // counters: the format-time baseline
)

// Counter offsets within a manifest copy (all u64, little-endian).
const (
	cntLive    = 0  // live records
	cntFills   = 8  // live + tombstone slots (probe-chain occupancy)
	cntApplied = 16 // write operations applied since format
	cntSum     = 24 // wrapping sum of all live values
	cntCommits = 32 // group commits since format: orders the copies
	cntEra     = 40 // replication era (bumped by failover Promote)
)

// Slot field offsets within the 64-byte slot.
const (
	slotState = 0  // u8
	slotKLen  = 1  // u8
	slotKey   = 8  // MaxKeyLen bytes
	slotValue = 48 // u64
)

// counters are the manifest fields a group commit changes. Whoever
// runs the shard mutates the in-memory copy per operation and writes it
// into one slot page per batch (writeManifest).
type counters struct {
	live    uint64
	fills   uint64
	applied uint64
	sum     uint64
	commits uint64
	era     uint64
}

// get decodes a manifest copy.
func (c *counters) get(b []byte) {
	*c = counters{
		live:    binary.LittleEndian.Uint64(b[cntLive:]),
		fills:   binary.LittleEndian.Uint64(b[cntFills:]),
		applied: binary.LittleEndian.Uint64(b[cntApplied:]),
		sum:     binary.LittleEndian.Uint64(b[cntSum:]),
		commits: binary.LittleEndian.Uint64(b[cntCommits:]),
		era:     binary.LittleEndian.Uint64(b[cntEra:]),
	}
}

// put encodes c as a manifest copy.
func (c *counters) put(b []byte) {
	binary.LittleEndian.PutUint64(b[cntLive:], c.live)
	binary.LittleEndian.PutUint64(b[cntFills:], c.fills)
	binary.LittleEndian.PutUint64(b[cntApplied:], c.applied)
	binary.LittleEndian.PutUint64(b[cntSum:], c.sum)
	binary.LittleEndian.PutUint64(b[cntCommits:], c.commits)
	binary.LittleEndian.PutUint64(b[cntEra:], c.era)
}

// manifest is the static header plus the current counters.
type manifest struct {
	shardID uint32
	shards  uint32
	slots   uint64
	counters
}

// table gives whoever runs a shard typed access to its region. It is
// confined to the holder of the shard's execution lock: all page access
// goes through the shard's Context so faults and costs land on the
// shard's clock.
type table struct {
	ctx    *core.Context
	region *core.Region
	man    manifest
	// last is the offset of the slot page the latest write dirtied:
	// the batch's manifest copy goes there.
	last int64
}

// tableSlots returns the slot capacity of a region of regionBytes.
func tableSlots(regionBytes int64) uint64 {
	pages := regionBytes / core.PageSize
	if pages < 2 {
		return 0
	}
	return uint64(pages-1) * slotsPerPage
}

// format writes a fresh shard region's header page: every counter is
// zero but the era. The caller persists it.
func (t *table) format(shardID, shards int, regionBytes int64, era uint64) {
	t.man = manifest{
		shardID:  uint32(shardID),
		shards:   uint32(shards),
		slots:    tableSlots(regionBytes),
		counters: counters{era: era},
	}
	pg := t.ctx.PageForWrite(t.region, 0)
	binary.LittleEndian.PutUint64(pg[hdrMagic:], headerMagic)
	binary.LittleEndian.PutUint32(pg[hdrShardID:], t.man.shardID)
	binary.LittleEndian.PutUint32(pg[hdrShards:], t.man.shards)
	binary.LittleEndian.PutUint64(pg[hdrSlots:], t.man.slots)
	t.man.counters.put(pg[hdrCounters:])
}

// readHeader loads the header page into t.man. ok is false when the
// region carries no valid header.
func (t *table) readHeader() (ok bool) {
	pg := t.ctx.PageForRead(t.region, 0)
	if binary.LittleEndian.Uint64(pg[hdrMagic:]) != headerMagic {
		return false
	}
	t.man = manifest{
		shardID: binary.LittleEndian.Uint32(pg[hdrShardID:]),
		shards:  binary.LittleEndian.Uint32(pg[hdrShards:]),
		slots:   binary.LittleEndian.Uint64(pg[hdrSlots:]),
	}
	t.man.counters.get(pg[hdrCounters:])
	return true
}

// load validates the header of an existing shard region and rescans
// it: records and sum are recomputed from the slot data, and the
// manifest takes the newest copy (see scan).
func (t *table) load(shardID, shards int, regionBytes int64) (records, sum uint64, err error) {
	if !t.readHeader() {
		return 0, 0, fmt.Errorf("shard %d: region %q has no valid manifest", shardID, t.region.Name())
	}
	if int(t.man.shardID) != shardID {
		return 0, 0, fmt.Errorf("shard %d: region %q belongs to shard %d", shardID, t.region.Name(), t.man.shardID)
	}
	if int(t.man.shards) != shards {
		return 0, 0, fmt.Errorf("shard %d: region formatted for %d shards, service configured for %d (resharding unsupported)",
			shardID, t.man.shards, shards)
	}
	if want := tableSlots(regionBytes); t.man.slots != want {
		return 0, 0, fmt.Errorf("shard %d: region has %d slots, config implies %d", shardID, t.man.slots, want)
	}
	records, sum = t.scan()
	return records, sum, nil
}

// writeManifest writes the in-memory counters into the manifest copy
// of the slot page the batch's last write dirtied, which is already in
// the shard's current uCheckpoint.
func (t *table) writeManifest() {
	pg := t.ctx.PageForWrite(t.region, t.last)
	t.man.counters.put(pg[copyOff:])
}

// ManifestMeta reads the replication-relevant manifest counters from a
// shard region through ctx: the group-commit sequence number, the
// replication era, and the live value sum of the newest manifest copy.
// It reads every page of the region. ok is false when the region
// carries no valid shard header (e.g. it was never committed).
func ManifestMeta(ctx *core.Context, r *core.Region) (seq, era, sum uint64, ok bool) {
	t := table{ctx: ctx, region: r}
	if !t.readHeader() {
		return 0, 0, 0, false
	}
	t.scan()
	return t.man.commits, t.man.era, t.man.sum, true
}

// FormatRegion writes a fresh shard manifest into r and persists it
// as one synchronous uCheckpoint — exactly the initial state New
// gives a freshly formatted primary shard. A replication follower
// formats its fresh regions with this so an idle shard (one that
// never commits, hence never ships a delta) is still byte-identical
// across replicas: format is a pure function of its arguments.
func FormatRegion(ctx *core.Context, r *core.Region, shardID, shards int, regionBytes int64, era uint64) error {
	t := table{ctx: ctx, region: r}
	t.format(shardID, shards, regionBytes, era)
	_, err := ctx.Persist(r, core.MSSync)
	return err
}

// DigestRegion computes an FNV-1a digest over every page of a region
// in index order — the page-level fingerprint replication tests use to
// prove two replicas hold byte-identical contents. All reads go
// through ctx so the cost lands on the caller's clock.
func DigestRegion(ctx *core.Context, r *core.Region) uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	for off := int64(0); off < r.Len(); off += core.PageSize {
		pg := ctx.PageForRead(r, off)
		for _, b := range pg {
			h = (h ^ uint64(b)) * prime
		}
	}
	return h
}

// slotPage returns (page offset, byte offset within page) for slot i.
func slotPos(i uint64) (int64, int) {
	return int64(1+i/slotsPerPage) * core.PageSize, int(i%slotsPerPage) * slotSize
}

// probe walks the open-addressing chain for key. It returns the slot
// index of the live match, or the first insertable slot (empty or
// tombstone) when the key is absent, with found=false. ok=false means
// the table's probe chain is saturated.
func (t *table) probe(h uint64, key []byte) (idx uint64, found, ok bool) {
	insertAt := uint64(0)
	haveInsert := false
	for step := uint64(0); step < t.man.slots; step++ {
		i := (h + step) % t.man.slots
		pageOff, off := slotPos(i)
		pg := t.ctx.PageForRead(t.region, pageOff)
		switch pg[off+slotState] {
		case slotEmpty:
			if !haveInsert {
				insertAt, haveInsert = i, true
			}
			return insertAt, false, true
		case slotDead:
			if !haveInsert {
				insertAt, haveInsert = i, true
			}
		case slotLive:
			klen := int(pg[off+slotKLen])
			if klen == len(key) && bytes.Equal(pg[off+slotKey:off+slotKey+klen], key) {
				return i, true, true
			}
		}
	}
	return insertAt, false, haveInsert
}

// get returns the value stored under key.
func (t *table) get(h uint64, key []byte) (uint64, bool) {
	idx, found, _ := t.probe(h, key)
	if !found {
		return 0, false
	}
	pageOff, off := slotPos(idx)
	pg := t.ctx.PageForRead(t.region, pageOff)
	return binary.LittleEndian.Uint64(pg[off+slotValue:]), true
}

// put inserts or overwrites key. It returns the previous value (0 if
// absent) and whether the key existed, updating the manifest counters
// and wrapping value sum.
func (t *table) put(h uint64, key []byte, value uint64) (prev uint64, existed bool, err error) {
	idx, found, ok := t.probe(h, key)
	if !ok {
		return 0, false, ErrShardFull
	}
	return t.putAt(idx, found, key, value)
}

// putAt is put at the slot probe returned for key: the live match when
// found, else the insertable slot.
func (t *table) putAt(idx uint64, found bool, key []byte, value uint64) (prev uint64, existed bool, err error) {
	// Cap occupancy at 3/4 so probe chains stay short; tombstone reuse
	// does not grow fills.
	pageOff, off := slotPos(idx)
	if !found {
		rpg := t.ctx.PageForRead(t.region, pageOff)
		if rpg[off+slotState] == slotEmpty && (t.man.fills+1)*4 > t.man.slots*3 {
			return 0, false, ErrShardFull
		}
	}
	pg := t.ctx.PageForWrite(t.region, pageOff)
	t.last = pageOff
	if found {
		prev = binary.LittleEndian.Uint64(pg[off+slotValue:])
		existed = true
	} else {
		if pg[off+slotState] == slotEmpty {
			t.man.fills++
		}
		pg[off+slotState] = slotLive
		pg[off+slotKLen] = byte(len(key))
		clear(pg[off+slotKey : off+slotKey+MaxKeyLen])
		copy(pg[off+slotKey:], key)
		t.man.live++
	}
	binary.LittleEndian.PutUint64(pg[off+slotValue:], value)
	t.man.sum += value - prev // wrapping arithmetic keeps the invariant
	return prev, existed, nil
}

// add increments key by delta (two's-complement wrapping), creating
// the key at value delta when absent. Returns the new value.
func (t *table) add(h uint64, key []byte, delta uint64) (uint64, error) {
	idx, found, ok := t.probe(h, key)
	if !ok {
		return 0, ErrShardFull
	}
	next := delta
	if found {
		pageOff, off := slotPos(idx)
		next += binary.LittleEndian.Uint64(t.ctx.PageForRead(t.region, pageOff)[off+slotValue:])
	}
	if _, _, err := t.putAt(idx, found, key, next); err != nil {
		return 0, err
	}
	return next, nil
}

// del removes key, leaving a tombstone. Returns the removed value.
func (t *table) del(h uint64, key []byte) (uint64, bool) {
	idx, found, _ := t.probe(h, key)
	if !found {
		return 0, false
	}
	pageOff, off := slotPos(idx)
	pg := t.ctx.PageForWrite(t.region, pageOff)
	t.last = pageOff
	prev := binary.LittleEndian.Uint64(pg[off+slotValue:])
	pg[off+slotState] = slotDead
	t.man.live--
	t.man.sum -= prev
	return prev, true
}

// scan walks every slot and recomputes the live record count and
// value sum from the data itself, the recovery cross-check against the
// manifest. On the way it reads each slot page's manifest copy, and the
// manifest takes the newest one: commit counts only grow within a
// region, so that copy holds the counters of the newest commit.
func (t *table) scan() (records, sum uint64) {
	for i := uint64(0); i < t.man.slots; i++ {
		pageOff, off := slotPos(i)
		pg := t.ctx.PageForRead(t.region, pageOff)
		if off == 0 && binary.LittleEndian.Uint64(pg[copyOff+cntCommits:]) > t.man.commits {
			t.man.counters.get(pg[copyOff:])
		}
		if pg[off+slotState] == slotLive {
			records++
			sum += binary.LittleEndian.Uint64(pg[off+slotValue:])
		}
	}
	return records, sum
}
