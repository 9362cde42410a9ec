package pgdb

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"
	"strings"

	"memsnap/internal/core"
	"memsnap/internal/sim"
)

// Backend is one database connection's server process. In the MemSnap
// variant each backend is its own simulated process sharing the
// relation regions (the paper's multiprocess configuration); its
// dirty set is tracked per backend and persisted by its own commits.
type Backend struct {
	c   *Cluster
	id  int
	clk *sim.Clock

	// MemSnap variant: the backend's own process/context with shared
	// mappings of every relation region.
	proc    *core.Process
	ctx     *core.Context
	regions map[string]*core.Region

	// Transaction state.
	xid     uint32
	touched map[bufKey]bool
	// walBuf accumulates this transaction's logical WAL payload
	// bytes (flushed at commit).
	walRecs [][]byte
}

// NewBackend creates a backend on simulated CPU cpu.
func (c *Cluster) NewBackend(cpu int) (*Backend, error) {
	b := &Backend{c: c, id: cpu, touched: make(map[bufKey]bool)}
	if c.variant == VarMemSnap {
		b.proc = c.sys.NewProcess()
		b.ctx = b.proc.NewContext(cpu)
		b.clk = b.ctx.Clock()
		b.regions = make(map[string]*core.Region)
		c.mu.Lock()
		for name, region := range c.regions {
			shared, err := b.proc.OpenShared(b.ctx, region)
			if err != nil {
				c.mu.Unlock()
				return nil, err
			}
			b.regions[name] = shared
		}
		c.mu.Unlock()
	} else {
		b.clk = sim.NewClock()
	}
	return b, nil
}

// Clock returns the backend's virtual clock.
func (b *Backend) Clock() *sim.Clock { return b.clk }

// Begin starts a transaction.
func (b *Backend) Begin() {
	if b.xid != 0 {
		panic("pgdb: nested transaction")
	}
	b.xid = b.c.nextXid.Add(1)
	b.clk.Advance(b.c.costs.SyscallEntry)
}

// Xid returns the current transaction id (0 outside a transaction).
func (b *Backend) Xid() uint32 { return b.xid }

// getBuffer pins a heap page in the shared buffer cache, reading it
// from storage on a miss. The mmap variants pay the direct-mapping
// access penalty here (faults and TLB pressure instead of a warm
// buffer-cache hit).
func (b *Backend) getBuffer(rel string, pageNo uint32) *buffer {
	c := b.c
	if c.variant == VarMmap || c.variant == VarMmapBufDirect {
		b.clk.Advance(c.costs.MmapAccessPenalty)
	}
	key := bufKey{rel, pageNo}
	c.mu.Lock()
	buf := c.buffers[key]
	miss := buf == nil
	if miss {
		buf = &buffer{data: make([]byte, HeapPageSize)}
		c.buffers[key] = buf
	}
	c.mu.Unlock()
	if miss {
		b.clk.Advance(c.costs.BufferCacheInsert)
	} else {
		b.clk.Advance(c.costs.BufferCacheLookup)
	}
	buf.fill.Do(func() { b.readPageFromStorage(rel, pageNo, buf.data) })
	return buf
}

// readPageFromStorage fills buf with a heap page's durable contents.
func (b *Backend) readPageFromStorage(rel string, pageNo uint32, dst []byte) {
	c := b.c
	switch c.variant {
	case VarMemSnap:
		region := b.regionFor(rel)
		b.ctx.ReadAt(region, int64(pageNo)*HeapPageSize, dst)
	default:
		c.mu.Lock()
		file := c.files[rel]
		c.mu.Unlock()
		file.Read(b.clk, int64(pageNo)*HeapPageSize, dst)
	}
}

func (b *Backend) regionFor(rel string) *core.Region {
	if r := b.regions[rel]; r != nil {
		return r
	}
	// Relation created after this backend started: map it now.
	b.c.mu.Lock()
	region := b.c.regions[rel]
	b.c.mu.Unlock()
	if region == nil {
		panic(fmt.Sprintf("pgdb: no region for %q", rel))
	}
	shared, err := b.proc.OpenShared(b.ctx, region)
	if err != nil {
		panic(err)
	}
	b.regions[rel] = shared
	return shared
}

// pageForWrite returns the buffer of a heap page and notes it in the
// transaction's touched set.
func (b *Backend) pageForWrite(rel string, pageNo uint32) []byte {
	if b.xid == 0 {
		panic("pgdb: write outside transaction")
	}
	buf := b.getBuffer(rel, pageNo)
	c := b.c
	c.contentMu.Lock()
	buf.dirty = true
	c.contentMu.Unlock()
	b.touched[bufKey{rel, pageNo}] = true
	return buf.data
}

// pageForRead returns the buffer of a heap page.
func (b *Backend) pageForRead(rel string, pageNo uint32) []byte {
	return b.getBuffer(rel, pageNo).data
}

// Insert appends a tuple version; returns its TID.
func (b *Backend) Insert(rel string, payload []byte) (TID, error) {
	if len(payload) > maxTuple {
		return TID{}, fmt.Errorf("pgdb: tuple of %d bytes", len(payload))
	}
	b.clk.Advance(b.c.costs.PGExecutorPerRowOp)
	c := b.c
	c.mu.Lock()
	r := c.relations[rel]
	if r == nil {
		c.mu.Unlock()
		return TID{}, fmt.Errorf("pgdb: no relation %q", rel)
	}
	pageNo := r.pages
	c.mu.Unlock()

	// Try the last page; extend the heap when full.
	for {
		if pageNo == 0 {
			pageNo = b.extendHeap(rel)
			continue
		}
		p := b.pageForWrite(rel, pageNo-1)
		c.contentMu.Lock()
		fits := heapFits(p, payload)
		var slot uint16
		if fits {
			slot = heapInsert(p, b.xid, payload)
		}
		c.contentMu.Unlock()
		if fits {
			b.logTuple(rel, pageNo-1, payload)
			b.clk.Advance(c.costs.MemcpyCost(len(payload)))
			return TID{Page: pageNo - 1, Slot: slot}, nil
		}
		pageNo = b.extendHeap(rel)
	}
}

// extendHeap allocates and formats a fresh heap page, returning the
// new page count.
func (b *Backend) extendHeap(rel string) uint32 {
	c := b.c
	c.mu.Lock()
	r := c.relations[rel]
	r.pages++
	pageNo := r.pages
	c.mu.Unlock()
	p := b.pageForWrite(rel, pageNo-1)
	c.contentMu.Lock()
	heapInit(p)
	c.contentMu.Unlock()
	return pageNo
}

// Fetch returns the payload at tid if it is visible to this backend
// (committed, or written by the current transaction).
func (b *Backend) Fetch(rel string, tid TID) ([]byte, bool) {
	b.clk.Advance(b.c.costs.PGExecutorPerRowOp)
	p := b.pageForRead(rel, tid.Page)
	b.c.contentMu.Lock()
	xmin, xmax, payload := heapTuple(p, tid.Slot)
	payload = append([]byte(nil), payload...)
	b.c.contentMu.Unlock()
	if !b.visible(xmin, xmax) {
		return nil, false
	}
	b.clk.Advance(b.c.costs.MemcpyCost(len(payload)))
	return payload, true
}

// visible implements read-committed MVCC visibility.
func (b *Backend) visible(xmin, xmax uint32) bool {
	c := b.c
	if xmin != b.xid && !c.xidCommitted(xmin) {
		return false
	}
	if xmax == 0 {
		return true
	}
	if xmax == b.xid || c.xidCommitted(xmax) {
		return false
	}
	return true
}

// Update appends a new version of the tuple at tid and marks the old
// one superseded. Returns the new TID. MVCC: the old version is
// never overwritten (Properties 2 and 3 of §4 hold by construction).
func (b *Backend) Update(rel string, tid TID, payload []byte) (TID, error) {
	b.clk.Advance(b.c.costs.PGExecutorPerRowOp)
	p := b.pageForWrite(rel, tid.Page)
	b.c.contentMu.Lock()
	heapSetXmax(p, tid.Slot, b.xid)
	b.c.contentMu.Unlock()
	b.logTuple(rel, tid.Page, nil)
	return b.Insert(rel, payload)
}

// logTuple appends a logical WAL record for the modification, plus a
// full page image when the variant requires one.
func (b *Backend) logTuple(rel string, pageNo uint32, payload []byte) {
	c := b.c
	if c.variant == VarMemSnap {
		return // no WAL at all
	}
	rec := make([]byte, 16+len(payload))
	binary.LittleEndian.PutUint32(rec, b.xid)
	binary.LittleEndian.PutUint32(rec[4:], pageNo)
	copy(rec[16:], payload)
	b.walRecs = append(b.walRecs, rec)

	key := bufKey{rel, pageNo}
	switch c.variant {
	case VarFFS, VarMmap:
		// full_page_writes: first touch after a checkpoint logs the
		// whole page.
		c.mu.Lock()
		logged := c.pagesLogged[key]
		if !logged {
			c.pagesLogged[key] = true
		}
		c.mu.Unlock()
		if !logged {
			img := make([]byte, HeapPageSize)
			p := b.pageForRead(rel, pageNo)
			c.contentMu.Lock()
			copy(img, p)
			c.contentMu.Unlock()
			b.walRecs = append(b.walRecs, img)
		}
	case VarMmapBufDirect:
		// No staging copy isolates uncommitted data, so every commit
		// must log full images of all pages it touched; handled in
		// Commit via the touched set.
	}
}

// Commit makes the transaction durable.
func (b *Backend) Commit() {
	if b.xid == 0 {
		panic("pgdb: commit outside transaction")
	}
	c := b.c
	switch c.variant {
	case VarMemSnap:
		// Propagate touched buffers into their regions at OS-page
		// granularity — only the 4 KiB halves that changed — and
		// persist this backend's dirty set as one uCheckpoint. (In
		// the real system the buffer cache points directly into the
		// region, so MemSnap's tracking gives this granularity for
		// free.)
		const osPage = HeapPageSize / 2
		c.contentMu.Lock()
		for _, key := range sortedKeys(b.touched) {
			region := b.regionFor(key.rel)
			buf := b.getBuffer(key.rel, key.page)
			if buf.shadow == nil {
				buf.shadow = make([]byte, HeapPageSize)
				b.readPageFromStorage(key.rel, key.page, buf.shadow)
			}
			for half := 0; half < 2; half++ {
				lo, hi := half*osPage, (half+1)*osPage
				if bytesEqual(buf.data[lo:hi], buf.shadow[lo:hi]) {
					continue
				}
				b.ctx.WriteAt(region, int64(key.page)*HeapPageSize+int64(lo), buf.data[lo:hi])
				copy(buf.shadow[lo:hi], buf.data[lo:hi])
			}
		}
		c.contentMu.Unlock()
		if _, err := b.ctx.Persist(nil, core.MSSync); err != nil {
			panic(err)
		}
	default:
		c.lockmgr.Lock(b.clk)
		if c.variant == VarMmapBufDirect {
			for _, key := range sortedKeys(b.touched) {
				img := make([]byte, HeapPageSize)
				p := b.pageForRead(key.rel, key.page)
				c.contentMu.Lock()
				copy(img, p)
				c.contentMu.Unlock()
				b.walRecs = append(b.walRecs, img)
			}
		}
		for _, rec := range b.walRecs {
			c.log.Append(b.clk, rec)
		}
		c.log.Sync(b.clk)
		needCkpt := c.log.Size() >= c.checkpointAt
		c.lockmgr.Unlock(b.clk)
		if needCkpt {
			b.checkpoint()
		}
	}
	c.committed.Store(b.xid, true)
	c.Commits.Add(1)
	b.xid = 0
	b.touched = make(map[bufKey]bool)
	b.walRecs = nil
}

// sortedKeys returns m's buffer keys in (relation, page) order. Commit
// and checkpoint visit buffers in this order, so a run's clock and disk
// layout follow from its inputs, not from map iteration.
func sortedKeys(m map[bufKey]bool) []bufKey {
	keys := make([]bufKey, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, compareKeys)
	return keys
}

func compareKeys(a, b bufKey) int {
	if c := strings.Compare(a.rel, b.rel); c != 0 {
		return c
	}
	return cmp.Compare(a.page, b.page)
}

// bytesEqual reports a == b without allocating.
func bytesEqual(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Abort abandons the transaction (versions it wrote stay dead: their
// xmin never commits).
func (b *Backend) Abort() {
	b.xid = 0
	b.touched = make(map[bufKey]bool)
	b.walRecs = nil
}

// checkpoint flushes all dirty buffers to the relation files and
// truncates the WAL.
func (b *Backend) checkpoint() {
	c := b.c
	c.lockmgr.Lock(b.clk)
	defer c.lockmgr.Unlock(b.clk)
	if c.log.Size() < c.checkpointAt {
		return // another backend got here first
	}
	c.contentMu.Lock()
	c.mu.Lock()
	type flush struct {
		key bufKey
		buf *buffer
	}
	var dirty []flush
	for key, buf := range c.buffers {
		if buf.dirty {
			dirty = append(dirty, flush{key, buf})
			buf.dirty = false
		}
	}
	c.pagesLogged = make(map[bufKey]bool)
	c.Checkpoints++
	c.mu.Unlock()
	slices.SortFunc(dirty, func(a, b flush) int { return compareKeys(a.key, b.key) })

	var touchedRels []string
	for _, f := range dirty {
		c.mu.Lock()
		file := c.files[f.key.rel]
		c.mu.Unlock()
		file.Write(b.clk, int64(f.key.page)*HeapPageSize, f.buf.data)
		if n := len(touchedRels); n == 0 || touchedRels[n-1] != f.key.rel {
			touchedRels = append(touchedRels, f.key.rel)
		}
	}
	c.contentMu.Unlock()
	for _, rel := range touchedRels {
		c.mu.Lock()
		file := c.files[rel]
		c.mu.Unlock()
		switch c.variant {
		case VarFFS:
			file.Fsync(b.clk)
		default: // mmap variants flush with msync
			file.Msync(b.clk)
		}
	}
	c.log.Reset(b.clk)
	c.log.Sync(b.clk)
}
