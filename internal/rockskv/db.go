package rockskv

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sort"
	"time"

	"memsnap/internal/aurora"
	"memsnap/internal/core"
	"memsnap/internal/fs"
	"memsnap/internal/sim"
	"memsnap/internal/wal"
)

// Mode selects the persistence design.
type Mode int

// Persistence modes.
const (
	// ModeWAL is baseline RocksDB: WAL + MemTable + SSTables.
	ModeWAL Mode = iota
	// ModeMemSnap is the paper's port: a persistent MemTable.
	ModeMemSnap
	// ModeAurora checkpoints a region after every write using
	// Aurora's system shadowing.
	ModeAurora
)

// DefaultMemTableLimit is the MemTable size that triggers an SSTable
// flush in WAL mode (the paper uses 64 MiB; scaled for simulation).
const DefaultMemTableLimit = 8 << 20

// maxL0Tables triggers compaction.
const maxL0Tables = 4

// KV is one key-value pair returned by scans.
type KV struct {
	Key   []byte
	Value []byte
}

// Stats counts database activity.
type Stats struct {
	Flushes     sim.Counter
	Compactions sim.Counter
}

// DB is one rockskv store.
type DB struct {
	mode  Mode
	costs *sim.CostModel

	lock sim.VLock // structure lock (MemTable / table list / index)

	// WAL mode state.
	fsys     *fs.FS
	log      *wal.WAL
	mem      *memTable
	tables   []*sstable // newest first
	memLimit int64
	seq      int64

	// MemSnap mode state.
	proc      *core.Process
	region    *core.Region
	plist     *plist
	pageLocks [1024]sim.VLock

	// Aurora mode state.
	aur      *aurora.Region
	aurMem   *memTable
	aurSlots map[string]uint32
	aurNext  uint32

	// Stats is the activity counter set.
	Stats Stats

	// Buckets, when set, accumulates userspace CPU time by component
	// (Table 1): "tx memory", "log", "serialization", "io generation".
	Buckets *sim.TimeBuckets
}

// Config configures OpenWAL / OpenAurora.
type Config struct {
	Costs *sim.CostModel
	// MemTableLimit overrides DefaultMemTableLimit (WAL mode).
	MemTableLimit int64
}

// NewWAL creates a baseline (WAL + LSM) store over a filesystem.
func NewWAL(fsys *fs.FS, clk *sim.Clock, cfg Config) *DB {
	if cfg.Costs == nil {
		cfg.Costs = sim.DefaultCosts()
	}
	if cfg.MemTableLimit <= 0 {
		cfg.MemTableLimit = DefaultMemTableLimit
	}
	return &DB{
		mode:     ModeWAL,
		costs:    cfg.Costs,
		fsys:     fsys,
		log:      wal.Create(fsys, clk, "rockskv-wal"),
		mem:      newMemTable(1),
		memLimit: cfg.MemTableLimit,
	}
}

// NewMemSnap creates (or recovers) the MemSnap port: a persistent
// skip-list MemTable in the named region.
func NewMemSnap(proc *core.Process, ctx *core.Context, regionName string, regionBytes int64) (*DB, error) {
	region, err := proc.Open(ctx, regionName, regionBytes)
	if err != nil {
		return nil, err
	}
	db := &DB{
		mode:   ModeMemSnap,
		costs:  proc.AddressSpace().Costs(),
		proc:   proc,
		region: region,
	}
	db.plist, err = openPlist(ctx, region)
	if err != nil {
		return nil, err
	}
	return db, nil
}

// NewAurora creates the Aurora baseline: a volatile MemTable mirrored
// into an Aurora region checkpointed after every write.
func NewAurora(region *aurora.Region, cfg Config) *DB {
	if cfg.Costs == nil {
		cfg.Costs = sim.DefaultCosts()
	}
	return &DB{
		mode:     ModeAurora,
		costs:    cfg.Costs,
		aur:      region,
		aurMem:   newMemTable(1),
		aurSlots: make(map[string]uint32),
		aurNext:  1,
	}
}

// Session is one application thread's handle: it owns the virtual
// clock (and, in MemSnap mode, the fault context) all its operations
// charge.
type Session struct {
	db  *DB
	clk *sim.Clock
	ctx *core.Context
}

// NewSession creates a session on simulated CPU cpu.
func (db *DB) NewSession(cpu int) *Session {
	s := &Session{db: db}
	if db.mode == ModeMemSnap {
		s.ctx = db.proc.NewContext(cpu)
		s.clk = s.ctx.Clock()
	} else {
		s.clk = sim.NewClock()
	}
	return s
}

// Clock returns the session clock.
func (s *Session) Clock() *sim.Clock { return s.clk }

// Put stores a key durably before returning (the synchronous-write
// configuration the paper benchmarks).
func (s *Session) Put(key, val []byte) error {
	return s.write(key, val, false)
}

func (s *Session) write(key, val []byte, tombstone bool) error {
	db := s.db
	s.clk.Advance(db.costs.KVOpCost)
	// Roughly a quarter of the per-op CPU is MemTable work; the rest
	// is block/iterator handling ("Other Userspace" in Table 1).
	s.bucket("tx memory", db.costs.KVOpCost/4)
	switch db.mode {
	case ModeWAL:
		return s.walWrite(key, val, tombstone)
	case ModeMemSnap:
		return db.plist.put(s.ctx, key, val, tombstone, &db.lock, &db.pageLocks)
	case ModeAurora:
		return s.auroraWrite(key, val, tombstone)
	}
	return fmt.Errorf("rockskv: bad mode")
}

// MultiPut commits a batch of writes as one durable unit (RocksDB's
// WriteCommitted transaction path: all changes reach the MemTable at
// commit, §7.2).
func (s *Session) MultiPut(kvs []KV) error {
	db := s.db
	s.clk.Advance(db.costs.KVOpCost * time.Duration(len(kvs)))
	switch db.mode {
	case ModeWAL:
		db.lock.Lock(s.clk)
		defer db.lock.Unlock(s.clk)
		for _, kv := range kvs {
			rec := encodeRecord(kv.Key, kv.Value, false)
			db.log.Append(s.clk, rec)
		}
		db.log.Sync(s.clk)
		for _, kv := range kvs {
			db.mem.put(kv.Key, kv.Value, false)
		}
		s.maybeFlushLocked()
		return nil
	case ModeMemSnap:
		return db.plist.multiPut(s.ctx, kvs, &db.lock, &db.pageLocks)
	case ModeAurora:
		for _, kv := range kvs {
			db.lock.Lock(s.clk)
			db.aurMem.put(kv.Key, kv.Value, false)
			s.auroraMirror(kv.Key, kv.Value, false)
			db.lock.Unlock(s.clk)
		}
		db.aur.Checkpoint(s.clk)
		return nil
	}
	return fmt.Errorf("rockskv: bad mode")
}

func encodeRecord(key, val []byte, tombstone bool) []byte {
	rec := make([]byte, 9+len(key)+len(val))
	binary.LittleEndian.PutUint32(rec, uint32(len(key)))
	binary.LittleEndian.PutUint32(rec[4:], uint32(len(val)))
	if tombstone {
		rec[8] = 1
	}
	copy(rec[9:], key)
	copy(rec[9+len(key):], val)
	return rec
}

func (s *Session) walWrite(key, val []byte, tombstone bool) error {
	db := s.db
	db.lock.Lock(s.clk)
	defer db.lock.Unlock(s.clk)
	serStart := s.clk.Now()
	rec := encodeRecord(key, val, tombstone)
	s.clk.Advance(db.costs.MemcpyCost(len(rec)))
	s.bucket("serialization", s.clk.Now()-serStart)
	logStart := s.clk.Now()
	db.log.Append(s.clk, rec)
	db.log.Sync(s.clk)
	s.bucket("log", s.clk.Now()-logStart)
	memStart := s.clk.Now()
	s.clk.Advance(db.costs.MemcpyCost(len(key) + len(val)))
	db.mem.put(key, val, tombstone)
	s.bucket("tx memory", s.clk.Now()-memStart)
	s.maybeFlushLocked()
	return nil
}

// bucket charges userspace accounting when enabled.
func (s *Session) bucket(name string, d time.Duration) {
	if s.db.Buckets != nil {
		s.db.Buckets.Add(name, d)
	}
}

// maybeFlushLocked flushes a full MemTable to a new SSTable and
// compacts L0 when it grows too deep. Called with db.lock held.
func (s *Session) maybeFlushLocked() {
	db := s.db
	if db.mem.bytes < db.memLimit {
		return
	}
	db.seq++
	flushStart := s.clk.Now()
	t := flushMemTable(db.fsys, s.clk, tableName(db.seq), db.mem)
	s.bucket("io generation", s.clk.Now()-flushStart)
	db.tables = append([]*sstable{t}, db.tables...)
	db.mem = newMemTable(uint64(db.seq))
	db.log.Reset(s.clk)
	db.log.Sync(s.clk)
	db.Stats.Flushes.Add(1)

	if len(db.tables) > maxL0Tables {
		db.seq++
		compactStart := s.clk.Now()
		merged := compact(db.fsys, s.clk, tableName(db.seq), db.tables)
		s.bucket("io generation", s.clk.Now()-compactStart)
		db.tables = []*sstable{merged}
		db.Stats.Compactions.Add(1)
	}
}

func (s *Session) auroraWrite(key, val []byte, tombstone bool) error {
	db := s.db
	db.lock.Lock(s.clk)
	db.aurMem.put(key, val, tombstone)
	s.auroraMirror(key, val, tombstone)
	db.lock.Unlock(s.clk)
	// Checkpoint after every write; Aurora serializes these per
	// region internally.
	db.aur.Checkpoint(s.clk)
	return nil
}

// auroraMirror writes the serialized node into the Aurora region (one
// 4 KiB slot per key, mirroring the MemSnap layout's amplification).
func (s *Session) auroraMirror(key, val []byte, tombstone bool) {
	db := s.db
	slot, ok := db.aurSlots[string(key)]
	if !ok {
		slot = db.aurNext
		db.aurNext++
		db.aurSlots[string(key)] = slot
	}
	rec := encodeRecord(key, val, tombstone)
	if len(rec) > nodePageSize {
		rec = rec[:nodePageSize]
	}
	db.aur.Write(s.clk, int64(slot)*nodePageSize, rec)
}

// Get returns the value for key.
func (s *Session) Get(key []byte) ([]byte, bool) {
	db := s.db
	s.clk.Advance(db.costs.KVOpCost)
	// Roughly a quarter of the per-op CPU is MemTable work; the rest
	// is block/iterator handling ("Other Userspace" in Table 1).
	s.bucket("tx memory", db.costs.KVOpCost/4)
	switch db.mode {
	case ModeWAL:
		db.lock.Lock(s.clk)
		defer db.lock.Unlock(s.clk)
		s.clk.Advance(db.costs.MemcpyCost(len(key)) + 300)
		if v, ok, tomb := db.mem.get(key); ok {
			if tomb {
				return nil, false
			}
			return append([]byte(nil), v...), true
		}
		for _, t := range db.tables {
			if v, ok, tomb := t.get(s.clk, key); ok {
				if tomb {
					return nil, false
				}
				return v, true
			}
		}
		return nil, false
	case ModeMemSnap:
		return db.plist.get(s.ctx, key, &db.lock)
	case ModeAurora:
		db.lock.Lock(s.clk)
		defer db.lock.Unlock(s.clk)
		s.clk.Advance(db.costs.MemcpyCost(len(key)) + 300)
		v, ok, tomb := db.aurMem.get(key)
		if !ok || tomb {
			return nil, false
		}
		return append([]byte(nil), v...), true
	}
	return nil, false
}

// Seek returns up to n entries with keys >= start, in order.
func (s *Session) Seek(start []byte, n int) []KV {
	db := s.db
	s.clk.Advance(db.costs.KVOpCost)
	// Roughly a quarter of the per-op CPU is MemTable work; the rest
	// is block/iterator handling ("Other Userspace" in Table 1).
	s.bucket("tx memory", db.costs.KVOpCost/4)
	switch db.mode {
	case ModeMemSnap:
		return db.plist.scan(s.ctx, start, n, &db.lock)
	case ModeAurora:
		db.lock.Lock(s.clk)
		defer db.lock.Unlock(s.clk)
		var out []KV
		db.aurMem.scan(start, func(k, v []byte, tomb bool) bool {
			if !tomb {
				out = append(out, KV{append([]byte(nil), k...), append([]byte(nil), v...)})
			}
			return len(out) < n
		})
		return out
	}

	// WAL mode: merge the MemTable with every SSTable.
	db.lock.Lock(s.clk)
	defer db.lock.Unlock(s.clk)
	type src struct {
		entries []KV
		tomb    map[string]bool
	}
	collect := func(scanFn func(fn func(k, v []byte, tombstone bool) bool)) src {
		out := src{tomb: map[string]bool{}}
		scanFn(func(k, v []byte, tombstone bool) bool {
			if tombstone {
				out.tomb[string(k)] = true
			} else {
				out.entries = append(out.entries, KV{append([]byte(nil), k...), append([]byte(nil), v...)})
			}
			return len(out.entries) < n
		})
		return out
	}
	sources := []src{collect(func(fn func(k, v []byte, t bool) bool) { db.mem.scan(start, fn) })}
	for _, t := range db.tables {
		tt := t
		sources = append(sources, collect(func(fn func(k, v []byte, t bool) bool) { tt.scan(s.clk, start, fn) }))
	}
	// Newest source wins per key.
	seen := map[string]bool{}
	var merged []KV
	for _, source := range sources {
		for k := range source.tomb {
			seen[k] = true
		}
		for _, kv := range source.entries {
			if seen[string(kv.Key)] {
				continue
			}
			seen[string(kv.Key)] = true
			merged = append(merged, kv)
		}
	}
	sort.Slice(merged, func(i, j int) bool { return bytes.Compare(merged[i].Key, merged[j].Key) < 0 })
	if len(merged) > n {
		merged = merged[:n]
	}
	return merged
}
