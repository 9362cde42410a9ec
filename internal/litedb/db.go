package litedb

import (
	"encoding/binary"
	"fmt"
	"sync"

	"memsnap/internal/core"
	"memsnap/internal/fs"
	"memsnap/internal/sim"
)

// catalogMagic marks an initialized database (page 0).
const catalogMagic = 0x4c444231 // "LDB1"

// backend is the full persistence interface a DB needs: the B+tree
// pager plus transaction boundaries.
type backend interface {
	pager
	pageCount() uint32
	setPageCount(uint32)
	commit()
	rollback()
}

func (p *walPager) setPageCount(n uint32)     { p.numPages = n }
func (p *memsnapPager) setPageCount(n uint32) { p.numPages = n }

// DB is one litedb database: a catalog of named B+tree tables over a
// persistence backend. litedb is single-writer (like SQLite):
// transactions serialize on an internal lock.
type DB struct {
	be backend

	mu     sync.Mutex
	tables map[string]*btree
}

// CreateWAL creates a fresh database in WAL mode on a filesystem.
func CreateWAL(fsys *fs.FS, clk *sim.Clock, name string) *DB {
	be := newWALPager(fsys, clk, name)
	db := &DB{be: be, tables: make(map[string]*btree)}
	db.initCatalog()
	be.commit()
	return db
}

// OpenMemSnap creates or reopens a database in MemSnap mode. The
// region is created at the given size on first open; afterwards the
// catalog is read straight out of the recovered region.
func OpenMemSnap(proc *core.Process, ctx *core.Context, name string, size int64) (*DB, error) {
	region, err := proc.Open(ctx, name, size)
	if err != nil {
		return nil, err
	}
	be := newMemsnapPager(ctx, region)
	db := &DB{be: be, tables: make(map[string]*btree)}
	// Distinguish fresh from recovered by the catalog magic.
	hdr := ctx.PageForRead(region, 0)
	if binary.LittleEndian.Uint32(hdr) == catalogMagic {
		if err := db.loadCatalog(); err != nil {
			return nil, err
		}
		return db, nil
	}
	db.initCatalog()
	be.commit()
	return db, nil
}

// initCatalog formats page 0 of a fresh database.
func (db *DB) initCatalog() {
	pageNo := db.be.allocPage()
	if pageNo != 0 {
		panic("litedb: catalog must be page 0")
	}
	p := db.be.pageForWrite(0)
	for i := range p {
		p[i] = 0
	}
	binary.LittleEndian.PutUint32(p, catalogMagic)
	db.writeCatalog()
}

// writeCatalog serializes table roots and the allocation frontier
// into page 0.
func (db *DB) writeCatalog() {
	p := db.be.pageForWrite(0)
	binary.LittleEndian.PutUint32(p, catalogMagic)
	binary.LittleEndian.PutUint32(p[4:], db.be.pageCount())
	binary.LittleEndian.PutUint16(p[8:], uint16(len(db.tables)))
	off := 10
	// Deterministic order for stable images.
	names := make([]string, 0, len(db.tables))
	for name := range db.tables {
		names = append(names, name)
	}
	sortStrings(names)
	for _, name := range names {
		t := db.tables[name]
		if off+2+len(name)+4 > PageSize {
			panic("litedb: catalog overflow")
		}
		binary.LittleEndian.PutUint16(p[off:], uint16(len(name)))
		copy(p[off+2:], name)
		binary.LittleEndian.PutUint32(p[off+2+len(name):], t.root)
		off += 2 + len(name) + 4
	}
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// loadCatalog parses page 0.
func (db *DB) loadCatalog() error {
	p := db.be.page(0)
	if binary.LittleEndian.Uint32(p) != catalogMagic {
		return fmt.Errorf("litedb: bad catalog magic")
	}
	db.be.setPageCount(binary.LittleEndian.Uint32(p[4:]))
	n := int(binary.LittleEndian.Uint16(p[8:]))
	off := 10
	for i := 0; i < n; i++ {
		nameLen := int(binary.LittleEndian.Uint16(p[off:]))
		name := string(p[off+2 : off+2+nameLen])
		root := binary.LittleEndian.Uint32(p[off+2+nameLen:])
		db.tables[name] = &btree{pg: db.be, root: root}
		off += 2 + nameLen + 4
	}
	return nil
}

// Tx is one transaction. litedb is single-writer: the transaction
// holds the database lock until Commit or Rollback.
type Tx struct {
	db      *DB
	roots   map[string]uint32 // roots at Begin, for catalog updates
	pagesAt uint32
	done    bool
}

// Begin starts a transaction, taking the writer lock.
func (db *DB) Begin() *Tx {
	db.mu.Lock()
	roots := make(map[string]uint32, len(db.tables))
	for name, t := range db.tables {
		roots[name] = t.root
	}
	return &Tx{db: db, roots: roots, pagesAt: db.be.pageCount()}
}

// CreateTable adds a table (idempotent).
func (tx *Tx) CreateTable(name string) error {
	db := tx.db
	if _, ok := db.tables[name]; ok {
		return nil
	}
	rootNo := db.be.allocPage()
	p := db.be.pageForWrite(rootNo)
	initPage(p, pageTypeLeaf)
	db.tables[name] = &btree{pg: db.be, root: rootNo}
	return nil
}

// table resolves a table or errors.
func (tx *Tx) table(name string) (*btree, error) {
	t, ok := tx.db.tables[name]
	if !ok {
		return nil, fmt.Errorf("litedb: no such table %q", name)
	}
	return t, nil
}

// Put inserts or updates a row.
func (tx *Tx) Put(tableName string, key, val []byte) error {
	t, err := tx.table(tableName)
	if err != nil {
		return err
	}
	return t.put(key, val)
}

// Get reads a row.
func (tx *Tx) Get(tableName string, key []byte) ([]byte, bool, error) {
	t, err := tx.table(tableName)
	if err != nil {
		return nil, false, err
	}
	v, ok := t.get(key)
	return v, ok, nil
}

// Delete removes a row; reports whether it existed.
func (tx *Tx) Delete(tableName string, key []byte) (bool, error) {
	t, err := tx.table(tableName)
	if err != nil {
		return false, err
	}
	return t.delete(key), nil
}

// Commit makes the transaction durable and releases the lock.
func (tx *Tx) Commit() {
	if tx.done {
		panic("litedb: commit on finished tx")
	}
	db := tx.db
	// Fold root/frontier changes into the catalog page so they
	// persist with the same atomic unit as the data.
	changed := db.be.pageCount() != tx.pagesAt
	for name, t := range db.tables {
		if tx.roots[name] != t.root || len(tx.roots) != len(db.tables) {
			changed = true
		}
	}
	if changed {
		db.writeCatalog()
	}
	db.be.commit()
	tx.done = true
	db.mu.Unlock()
}

// Rollback abandons the transaction and releases the lock.
func (tx *Tx) Rollback() {
	if tx.done {
		panic("litedb: rollback on finished tx")
	}
	db := tx.db
	db.be.rollback()
	db.be.setPageCount(tx.pagesAt)
	// Restore in-memory roots and drop tables created by this tx.
	for name := range db.tables {
		if root, ok := tx.roots[name]; ok {
			db.tables[name].root = root
		} else {
			delete(db.tables, name)
		}
	}
	tx.done = true
	db.mu.Unlock()
}
