// Package mem simulates physical memory: 4 KiB frames, per-frame page
// metadata (the analogue of FreeBSD's vm_page), a frame allocator, and
// physical-to-virtual reverse mappings.
//
// MemSnap's kernel implementation marks physical pages that an
// in-flight checkpoint holds and walks a page's physical-to-virtual
// mappings to reset PTE protections in every address space that maps
// it. Both mechanisms live here.
package mem

import (
	"sync"
	"sync/atomic"

	"memsnap/internal/sim"
)

const (
	// PageSize is the size of a physical frame in bytes.
	PageSize = 4096
	// PageShift is log2(PageSize).
	PageShift = 12
	// PageMask masks the offset within a page.
	PageMask = PageSize - 1
)

// PageFlags is a bitfield of per-page state.
type PageFlags uint32

// FlagTracked marks a page currently present in some thread's dirty
// set (written since the last protection reset).
const FlagTracked PageFlags = 1

// Frame identifies a physical frame.
type Frame uint32

// NoFrame is the zero-value sentinel for "no frame assigned".
const NoFrame Frame = ^Frame(0)

// ReverseMapping records one virtual mapping of a physical page. The
// holder is opaque to this package; the VM layer stores enough context
// to locate the PTE (supporting multiprocess applications, where one
// physical page appears in several page tables).
type ReverseMapping struct {
	// Owner identifies the address space holding the mapping.
	Owner any
	// VPN is the virtual page number within that address space.
	VPN uint64
}

// Page is the metadata for one physical frame (vm_page). It carries
// the frame's bytes, so a holder of a *Page — a TLB entry, a dirty
// record — reaches the data without going back to the allocator.
type Page struct {
	frame Frame
	data  []byte
	flags atomic.Uint32
	// holds counts the in-flight uCheckpoints whose IO reads this
	// frame. Writes to a held page must take the COW path instead of
	// modifying the frame. A count, not a flag: two processes of a
	// shared region can each have a uCheckpoint of the page in flight,
	// and the first to retire must not release the second's.
	holds atomic.Int32

	mu   sync.Mutex
	rmap []ReverseMapping
	// rmap0 backs rmap while the page has a single mapping, the usual
	// case, so mapping a fresh page allocates nothing more.
	rmap0 [1]ReverseMapping
	// refs mirrors len(rmap); written under mu, read without it.
	refs atomic.Int32
}

// Frame returns the frame this metadata describes.
func (p *Page) Frame() Frame { return p.frame }

// Data returns the backing bytes of the page's frame. The slice
// aliases the frame; writes through it are writes to simulated
// physical memory.
func (p *Page) Data() []byte { return p.data }

// SetFlag atomically sets the given flag bits.
func (p *Page) SetFlag(f PageFlags) {
	for {
		old := p.flags.Load()
		if p.flags.CompareAndSwap(old, old|uint32(f)) {
			return
		}
	}
}

// ClearFlag atomically clears the given flag bits.
func (p *Page) ClearFlag(f PageFlags) {
	for {
		old := p.flags.Load()
		if p.flags.CompareAndSwap(old, old&^uint32(f)) {
			return
		}
	}
}

// Hold adds one in-flight uCheckpoint hold.
func (p *Page) Hold() { p.holds.Add(1) }

// Unhold drops one hold taken by Hold.
func (p *Page) Unhold() { p.holds.Add(-1) }

// Held reports whether any in-flight uCheckpoint holds the page.
func (p *Page) Held() bool { return p.holds.Load() > 0 }

// AddMapping records a reverse mapping for this page.
func (p *Page) AddMapping(m ReverseMapping) {
	p.mu.Lock()
	if p.rmap == nil {
		p.rmap = p.rmap0[:0]
	}
	p.rmap = append(p.rmap, m)
	p.refs.Add(1)
	p.mu.Unlock()
}

// RemoveMapping removes one matching reverse mapping, if present.
func (p *Page) RemoveMapping(owner any, vpn uint64) {
	p.mu.Lock()
	for i, m := range p.rmap {
		if m.Owner == owner && m.VPN == vpn {
			p.rmap = append(p.rmap[:i], p.rmap[i+1:]...)
			p.refs.Add(-1)
			break
		}
	}
	p.mu.Unlock()
}

// Mappings returns a snapshot of the page's reverse mappings.
func (p *Page) Mappings() []ReverseMapping {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]ReverseMapping(nil), p.rmap...)
}

// RefCount returns the number of reverse mappings.
func (p *Page) RefCount() int { return int(p.refs.Load()) }

const (
	// chunkShift is log2 of the frames one directory chunk covers.
	chunkShift = 14
	// chunkFrames is the number of frames per directory chunk (16 K
	// frames, 64 MiB of simulated memory).
	chunkFrames = 1 << chunkShift
)

// chunk is one block of the frame→page directory. A slot holds the
// frame's current Page, or nil while the frame is free.
type chunk [chunkFrames]atomic.Pointer[Page]

// freeFrame is a frame on the allocator's free list with the bytes it
// keeps across owners.
type freeFrame struct {
	frame Frame
	data  []byte
}

// PhysMem is the simulated physical memory of one machine: a frame
// allocator plus per-frame data and metadata. It is safe for
// concurrent use.
type PhysMem struct {
	costs *sim.CostModel

	// dir is the frame→page directory: frame f lives in slot
	// f%chunkFrames of chunk f/chunkFrames. A chunk is published once
	// and never moves; growth publishes a longer chunk list that
	// shares every existing chunk. Page therefore reads without a
	// lock, and a reader holding an old list still sees every frame
	// that existed when it loaded it.
	dir atomic.Pointer[[]*chunk]

	// mu guards the allocator: the frame count, the free list, the
	// allocation counter and directory growth.
	mu        sync.Mutex
	total     int
	free      []freeFrame
	allocated int64
}

// New returns an empty physical memory backed by the given cost model.
func New(costs *sim.CostModel) *PhysMem {
	if costs == nil {
		costs = sim.DefaultCosts()
	}
	m := &PhysMem{costs: costs}
	m.dir.Store(new([]*chunk))
	return m
}

// Alloc allocates one zeroed frame, charging the allocation cost to
// clk (which may be nil for setup-time allocations that should not be
// measured).
func (m *PhysMem) Alloc(clk *sim.Clock) *Page {
	if clk != nil {
		clk.Advance(m.costs.FrameAlloc)
	}
	pg, reused := m.take()
	if reused {
		clear(pg.data)
	}
	return pg
}

// take hands out a frame under a fresh Page — a free one if there is
// any (reused: its old bytes are still in it), else a new zeroed one.
// The fresh Page identity per reuse keeps stale pointers to the
// frame's previous Page inert: their flags and mappings belong to
// nobody, and Free ignores them.
func (m *PhysMem) take() (pg *Page, reused bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.allocated++
	if n := len(m.free); n > 0 {
		ff := m.free[n-1]
		m.free = m.free[:n-1]
		//lint:allow hotalloc fresh Page identity per frame reuse keeps stale frame pointers inert
		pg = &Page{frame: ff.frame, data: ff.data}
		m.slot(ff.frame).Store(pg)
		return pg, true
	}
	f := Frame(m.total)
	if m.total%chunkFrames == 0 {
		old := *m.dir.Load()
		//lint:allow hotalloc directory growth, once per 16 K frames: a longer chunk list plus one new chunk
		grown := append(old[:len(old):len(old)], new(chunk))
		m.dir.Store(&grown)
	}
	m.total++
	//lint:allow hotalloc physical memory growth, once per frame for the machine lifetime
	pg = &Page{frame: f, data: make([]byte, PageSize)}
	m.slot(f).Store(pg)
	return pg, false
}

// slot returns the directory slot of a frame the directory covers.
func (m *PhysMem) slot(f Frame) *atomic.Pointer[Page] {
	return &(*m.dir.Load())[f>>chunkShift][f&(chunkFrames-1)]
}

// Free returns pg's frame to the allocator and reports whether it
// did. The caller must guarantee no mappings remain. Freeing a page
// that is not its frame's current page — it was freed already — is a
// no-op, so two parties that both find a page unreferenced may both
// free it.
func (m *PhysMem) Free(pg *Page) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if pg.frame == NoFrame || int(pg.frame) >= m.total {
		panic("mem: freeing a page of no frame in this memory")
	}
	if !m.slot(pg.frame).CompareAndSwap(pg, nil) {
		return false
	}
	m.free = append(m.free, freeFrame{pg.frame, pg.data})
	return true
}

// Page returns the metadata for a frame, or nil if the frame is free.
// It takes no lock.
func (m *PhysMem) Page(f Frame) *Page {
	dir := *m.dir.Load()
	if int(f>>chunkShift) >= len(dir) {
		return nil
	}
	return dir[f>>chunkShift][f&(chunkFrames-1)].Load()
}

// Copy duplicates src into another frame (the COW copy), charging
// frame allocation plus a 4 KiB memcpy to clk. A reused frame is not
// zeroed first: the copy overwrites all of it.
func (m *PhysMem) Copy(clk *sim.Clock, src *Page) *Page {
	if clk != nil {
		clk.Advance(m.costs.FrameAlloc + m.costs.MemcpyCost(PageSize))
	}
	dst, _ := m.take()
	copy(dst.data, src.data)
	return dst
}

// Stats reports allocator statistics.
type Stats struct {
	TotalFrames int
	FreeFrames  int
	Allocations int64
}

// Stats returns a snapshot of allocator state.
func (m *PhysMem) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return Stats{
		TotalFrames: m.total,
		FreeFrames:  len(m.free),
		Allocations: m.allocated,
	}
}
