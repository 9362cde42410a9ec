package litedb

import (
	"encoding/binary"
	"fmt"
	"slices"
	"time"

	"memsnap/internal/core"
	"memsnap/internal/fs"
	"memsnap/internal/sim"
	"memsnap/internal/wal"
)

// CheckpointThreshold is the default WAL size that triggers a
// checkpoint in WAL mode (SQLite's default of ~4 MiB of log data,
// §7.1).
const CheckpointThreshold = 4 << 20

// DefaultCacheSize bounds the page cache in pages (SQLite defaults to
// ~2000 pages).
const DefaultCacheSize = 2000

// walPager is the baseline backend: a memory-mapped database file
// plus a write-ahead log. Transactions buffer dirty pages; commit
// appends them to the WAL and fsyncs; checkpoints copy WAL frames
// back into the DB file.
type walPager struct {
	clk   *sim.Clock
	costs *sim.CostModel
	db    *fs.File
	log   *wal.WAL

	numPages uint32
	// frames is the page cache: the latest committed image of hot
	// pages (the WAL doubles as a cache, bounded like SQLite's).
	// resident lists its pages for evict, which draws victims from rng.
	frames   map[uint32][]byte
	resident []uint32
	rng      *sim.RNG
	// walOffsets locates each page's latest committed frame in the
	// WAL file, for read-through after eviction.
	walOffsets map[uint32]int64
	// txDirty collects the current transaction's page images.
	txDirty map[uint32][]byte

	// cacheLimit bounds frames (pages); evictions force read()
	// syscalls on the next access, as in SQLite's bounded page cache.
	cacheLimit          int
	checkpointThreshold int64
}

// costsScanPerEntry returns the per-resident-page flush scan cost.
func (p *walPager) costsScanPerEntry() time.Duration {
	return p.costs.PageTableScanPerEntry
}

func newWALPager(fsys *fs.FS, clk *sim.Clock, name string) *walPager {
	p := &walPager{
		clk:                 clk,
		costs:               sim.DefaultCosts(),
		db:                  fsys.Create(clk, name),
		log:                 wal.Create(fsys, clk, name+"-wal"),
		frames:              make(map[uint32][]byte),
		rng:                 sim.NewRNG(1),
		walOffsets:          make(map[uint32]int64),
		txDirty:             make(map[uint32][]byte),
		cacheLimit:          DefaultCacheSize,
		checkpointThreshold: CheckpointThreshold,
	}
	return p
}

func (p *walPager) page(pageNo uint32) []byte {
	if img, ok := p.txDirty[pageNo]; ok {
		return img
	}
	if img, ok := p.frames[pageNo]; ok {
		return img
	}
	// Cache miss: the page's latest image is in the WAL (if committed
	// there since the last checkpoint) or in the database file.
	buf := make([]byte, PageSize)
	if off, ok := p.walOffsets[pageNo]; ok {
		p.log.File().Read(p.clk, off, buf)
	} else {
		p.db.Read(p.clk, int64(pageNo)*PageSize, buf)
	}
	p.cache(pageNo, buf)
	p.evict()
	return buf
}

// cache installs img as pageNo's cached image.
func (p *walPager) cache(pageNo uint32, img []byte) {
	if _, ok := p.frames[pageNo]; !ok {
		p.resident = append(p.resident, pageNo)
	}
	p.frames[pageNo] = img
}

// evict drops random clean cached pages above the cache limit (they
// remain readable from the WAL or DB file). The pager's own seeded rng
// draws the victims, so a run is a function of its inputs.
func (p *walPager) evict() {
	for tries := len(p.resident); tries > 0 && len(p.frames) > p.cacheLimit; tries-- {
		i := p.rng.Intn(len(p.resident))
		pageNo := p.resident[i]
		if _, dirty := p.txDirty[pageNo]; dirty {
			continue
		}
		last := len(p.resident) - 1
		p.resident[i] = p.resident[last]
		p.resident = p.resident[:last]
		delete(p.frames, pageNo)
	}
}

// sortedPages returns m's page numbers in ascending order: the pager's
// loops that reach the clock or the disk layout visit pages in this
// order, so a run is a function of its inputs, not of map iteration.
func sortedPages[V any](m map[uint32]V) []uint32 {
	pages := make([]uint32, 0, len(m))
	for pageNo := range m {
		pages = append(pages, pageNo)
	}
	slices.Sort(pages)
	return pages
}

func (p *walPager) pageForWrite(pageNo uint32) []byte {
	if img, ok := p.txDirty[pageNo]; ok {
		return img
	}
	img := append([]byte(nil), p.page(pageNo)...)
	p.txDirty[pageNo] = img
	return img
}

func (p *walPager) allocPage() uint32 {
	pageNo := p.numPages
	p.numPages++
	img := make([]byte, PageSize)
	p.txDirty[pageNo] = img
	return pageNo
}

func (p *walPager) pageCount() uint32 { return p.numPages }

// commit appends the transaction's dirty pages to the WAL, fsyncs it,
// then checkpoints if the log is large enough.
//
// SQLite memory-maps the WAL and database; flushing a mapped file
// scans the mapping's resident pages, so commit cost grows with the
// cached dataset and not just the dirty set — the mechanism behind
// the baseline's degradation on large databases (Figure 5).
func (p *walPager) commit() {
	p.clk.Advance(time.Duration(len(p.frames)) * p.costsScanPerEntry())
	for _, pageNo := range sortedPages(p.txDirty) {
		img := p.txDirty[pageNo]
		rec := make([]byte, 4+PageSize)
		binary.LittleEndian.PutUint32(rec, pageNo)
		copy(rec[4:], img)
		off := p.log.Append(p.clk, rec)
		p.walOffsets[pageNo] = off + 12 + 4
		p.cache(pageNo, img)
	}
	p.txDirty = make(map[uint32][]byte)
	p.log.Sync(p.clk)
	p.evict()
	if p.log.Size() >= p.checkpointThreshold {
		p.checkpoint()
	}
}

// rollback discards the transaction's buffered pages.
func (p *walPager) rollback() {
	p.txDirty = make(map[uint32][]byte)
	// Pages allocated by the aborted tx stay allocated (harmless
	// leak, as in real systems until vacuum).
}

// checkpoint copies WAL frames into the database file, syncs it (an
// msync, as the DB file is memory mapped), and truncates the log.
// Frames evicted from the cache are read back from the WAL file
// first — checkpointing flushes the log, not just the cache.
func (p *walPager) checkpoint() {
	for _, pageNo := range sortedPages(p.walOffsets) {
		img, ok := p.frames[pageNo]
		if !ok {
			img = make([]byte, PageSize)
			p.log.File().Read(p.clk, p.walOffsets[pageNo], img)
		}
		p.db.Write(p.clk, int64(pageNo)*PageSize, img)
	}
	p.db.Msync(p.clk)
	p.log.Reset(p.clk)
	p.log.Sync(p.clk)
	p.walOffsets = make(map[uint32]int64)
}

// memsnapPager is the MemSnap plugin backend: database pages live
// directly in a persistent region; commit is one uCheckpoint.
type memsnapPager struct {
	ctx    *core.Context
	region *core.Region

	numPages uint32
	maxPages uint32
	dirty    map[uint32]bool
}

func newMemsnapPager(ctx *core.Context, region *core.Region) *memsnapPager {
	return &memsnapPager{
		ctx:      ctx,
		region:   region,
		maxPages: uint32(region.Len() / PageSize),
		dirty:    make(map[uint32]bool),
	}
}

func (p *memsnapPager) page(pageNo uint32) []byte {
	return p.ctx.PageForRead(p.region, int64(pageNo)*PageSize)
}

func (p *memsnapPager) pageForWrite(pageNo uint32) []byte {
	p.dirty[pageNo] = true
	return p.ctx.PageForWrite(p.region, int64(pageNo)*PageSize)
}

func (p *memsnapPager) allocPage() uint32 {
	if p.numPages >= p.maxPages {
		panic(fmt.Sprintf("litedb: region full (%d pages)", p.maxPages))
	}
	pageNo := p.numPages
	p.numPages++
	return pageNo
}

func (p *memsnapPager) pageCount() uint32 { return p.numPages }

// commit persists the calling thread's dirty set as one uCheckpoint.
func (p *memsnapPager) commit() {
	p.dirty = make(map[uint32]bool)
	if _, err := p.ctx.Persist(p.region, core.MSSync); err != nil {
		panic(fmt.Sprintf("litedb: persist: %v", err))
	}
}

// rollback restores dirtied pages from the last durable epoch, then
// drops the (now meaningless) dirty tracking state.
func (p *memsnapPager) rollback() {
	for _, pageNo := range sortedPages(p.dirty) {
		img := p.ctx.PageForWrite(p.region, int64(pageNo)*PageSize)
		done, err := p.region.Object().ReadBlock(p.ctx.Clock().Now(), int64(pageNo), img)
		if err != nil {
			panic(fmt.Sprintf("litedb: rollback: %v", err))
		}
		p.ctx.Clock().AdvanceTo(done)
	}
	p.dirty = make(map[uint32]bool)
	// Drop the restored pages from the dirty set so they are not
	// persisted by the next commit.
	p.ctx.Thread().TakeDirty(p.region.Mapping())
}
