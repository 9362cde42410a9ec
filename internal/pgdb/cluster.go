package pgdb

import (
	"fmt"
	"sync"
	"sync/atomic"

	"memsnap/internal/core"
	"memsnap/internal/fs"
	"memsnap/internal/sim"
	"memsnap/internal/wal"
)

// Variant selects the storage design under test (Figure 6).
type Variant int

// Storage variants.
const (
	// VarFFS is stock PostgreSQL on a journaling filesystem.
	VarFFS Variant = iota
	// VarMmap memory-maps table files (flushes via msync).
	VarMmap
	// VarMmapBufDirect additionally modifies mapped data in place,
	// logging full page images every commit.
	VarMmapBufDirect
	// VarMemSnap replaces files with MemSnap regions; commits are
	// uCheckpoints and the WAL is gone.
	VarMemSnap
)

// String implements fmt.Stringer.
func (v Variant) String() string {
	switch v {
	case VarFFS:
		return "ffs"
	case VarMmap:
		return "ffs-mmap"
	case VarMmapBufDirect:
		return "ffs-mmap-bd"
	case VarMemSnap:
		return "memsnap"
	}
	return "?"
}

// DefaultCheckpointWAL is the WAL size that triggers a checkpoint in
// the file variants.
const DefaultCheckpointWAL = 16 << 20

// bufKey addresses one heap page in the shared buffer cache.
type bufKey struct {
	rel  string
	page uint32
}

type buffer struct {
	// fill reads the page from storage exactly once, after the buffer
	// is published in the cache map; racing lookups block on it.
	fill  sync.Once
	data  []byte
	dirty bool
	// shadow holds the last region-committed image (MemSnap variant)
	// so commits persist only the 4 KiB halves that actually changed
	// — the granularity the real system gets for free by pointing
	// the buffer cache directly into regions.
	shadow []byte
}

// Cluster is one database instance shared by all backends.
type Cluster struct {
	variant Variant
	costs   *sim.CostModel

	// File-variant state.
	fsys  *fs.FS
	files map[string]*fs.File
	log   *wal.WAL
	// pagesLogged tracks pages whose full image already went to the
	// WAL since the last checkpoint (full_page_writes).
	pagesLogged  map[bufKey]bool
	checkpointAt int64

	// MemSnap-variant state.
	sys     *core.System
	proc0   *core.Process // region-owning process
	ctx0    *core.Context
	regions map[string]*core.Region

	mu        sync.Mutex
	relations map[string]*relation
	buffers   map[bufKey]*buffer

	// contentMu is PostgreSQL's per-buffer content locks, coarsened to
	// one lock: it guards heap page bytes plus the dirty/shadow fields
	// of every buffer. mu only guards the maps above. Lock ordering:
	// contentMu before mu; never the reverse.
	contentMu sync.Mutex

	// lockmgr serializes commits and checkpoints (PostgreSQL's WAL
	// insert lock, heavily simplified).
	lockmgr sim.VLock

	nextXid     atomic.Uint32
	committed   sync.Map // xid -> true (the commit log)
	regionBytes int64
}

// Config configures a cluster.
type Config struct {
	Variant Variant
	Costs   *sim.CostModel
	// Fsys backs the file variants.
	Fsys *fs.FS
	// Sys backs the MemSnap variant.
	Sys *core.System
	// CheckpointWAL overrides DefaultCheckpointWAL.
	CheckpointWAL int64
	// RegionBytes sizes each relation's region (MemSnap variant).
	RegionBytes int64
}

// NewCluster initializes an empty cluster.
func NewCluster(cfg Config) (*Cluster, error) {
	if cfg.Costs == nil {
		cfg.Costs = sim.DefaultCosts()
	}
	if cfg.CheckpointWAL <= 0 {
		cfg.CheckpointWAL = DefaultCheckpointWAL
	}
	if cfg.RegionBytes <= 0 {
		cfg.RegionBytes = 256 << 20
	}
	c := &Cluster{
		variant:      cfg.Variant,
		costs:        cfg.Costs,
		relations:    make(map[string]*relation),
		buffers:      make(map[bufKey]*buffer),
		pagesLogged:  make(map[bufKey]bool),
		checkpointAt: cfg.CheckpointWAL,
	}
	c.nextXid.Store(1)
	switch cfg.Variant {
	case VarMemSnap:
		if cfg.Sys == nil {
			return nil, fmt.Errorf("pgdb: MemSnap variant needs Sys")
		}
		c.sys = cfg.Sys
		c.proc0 = cfg.Sys.NewProcess()
		c.ctx0 = c.proc0.NewContext(0)
		c.regions = make(map[string]*core.Region)
		c.regionBytes = cfg.RegionBytes
	default:
		if cfg.Fsys == nil {
			return nil, fmt.Errorf("pgdb: file variants need Fsys")
		}
		c.fsys = cfg.Fsys
		c.files = make(map[string]*fs.File)
		clk := sim.NewClock()
		c.log = wal.Create(cfg.Fsys, clk, "pg_wal")
	}
	return c, nil
}

// CreateRelation adds a table.
func (c *Cluster) CreateRelation(clk *sim.Clock, name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.relations[name]; ok {
		return fmt.Errorf("pgdb: relation %q exists", name)
	}
	c.relations[name] = &relation{}
	switch c.variant {
	case VarMemSnap:
		region, err := c.proc0.Open(c.ctx0, "rel-"+name, c.regionBytes)
		if err != nil {
			return err
		}
		c.regions[name] = region
	default:
		c.files[name] = c.fsys.Create(clk, "rel-"+name)
	}
	return nil
}

// xidCommitted reports whether a transaction committed.
func (c *Cluster) xidCommitted(xid uint32) bool {
	if xid == 0 {
		return false
	}
	_, ok := c.committed.Load(xid)
	return ok
}
