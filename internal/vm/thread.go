package vm

import (
	"fmt"
	"time"

	"memsnap/internal/mem"
	"memsnap/internal/obs"
	"memsnap/internal/pagetable"
	"memsnap/internal/sim"
	"memsnap/internal/tlb"
)

// Thread is a simulated application thread: the unit of dirty-set
// tracking. All region memory accesses are performed through a Thread
// so the simulation can deliver page faults.
type Thread struct {
	clock *sim.Clock
	// tlb is the TLB of the CPU the thread runs on.
	tlb *tlb.TLB
	as  *AddressSpace

	// dirty is the trace buffer: the per-thread list of dirtied pages
	// with their PTE references, in fault order.
	dirty []DirtyRecord
	// tracked marks VPNs already present in dirty, to keep the list
	// duplicate-free without scanning.
	tracked map[uint64]bool

	// Buckets, when set, receives fault-handler CPU time under the
	// "page faults" label (Tables 1 and 8 accounting).
	Buckets *sim.TimeBuckets

	// rec, when non-nil, receives fault instants (tracking fault,
	// in-flight COW, page-in) on the recTrack trace lane, stamped with
	// the thread's virtual clock.
	rec      *obs.Recorder
	recTrack int32
}

// SetRecorder attaches (or with nil detaches) an observability
// recorder for the thread's fault instants on the given trace lane.
func (t *Thread) SetRecorder(r *obs.Recorder, track int32) {
	t.rec = r
	t.recTrack = track
}

// NewThread registers a new thread in the address space, running on
// the given CPU (wraps modulo the CPU count).
func (as *AddressSpace) NewThread(clock *sim.Clock, cpu int) *Thread {
	if clock == nil {
		clock = sim.NewClock()
	}
	as.mu.Lock()
	defer as.mu.Unlock()
	t := &Thread{
		clock:   clock,
		tlb:     as.tlbs.CPU(cpu),
		as:      as,
		tracked: make(map[uint64]bool),
	}
	as.threads = append(as.threads, t)
	return t
}

// Clock returns the thread's virtual clock.
func (t *Thread) Clock() *sim.Clock { return t.clock }

// AddressSpace returns the thread's address space.
func (t *Thread) AddressSpace() *AddressSpace { return t.as }

// charge advances the thread clock and mirrors the charge into the
// fault bucket if accounting is enabled.
func (t *Thread) chargeFault(d time.Duration) {
	t.clock.Advance(d)
	if t.Buckets != nil {
		t.Buckets.Add("page faults", d)
	}
}

// translate resolves addr for reading or writing, handling faults.
// It returns the physical page so callers can access frame data.
// The address-space lock is held across the fault for simplicity; the
// paper's point that MemSnap does not *stop other threads* is modeled
// in the cost model (nothing on this path charges for stopping a
// thread), not by lock-freedom of the simulator.
func (t *Thread) translate(addr uint64, write bool) *mem.Page {
	// TLB hit fast path: free, like hardware. The entry carries the
	// page and the page its bytes, so a hit is this one lookup. A write
	// to a read-only translation falls into the fault path.
	if e, ok := t.tlb.Lookup(addr / PageSize); ok && (!write || e.Writable) {
		return e.Page
	}

	as := t.as
	as.mu.Lock()
	defer as.mu.Unlock()
	return t.translateLocked(addr, write)
}

// translateLocked is the fault path, called with as.mu held. It
// deliberately does not consult the TLB: a concurrent checkpoint
// write-protects PTEs under as.mu but shoots stale TLB entries down
// only after releasing it, so a cached writable translation may be
// stale — the PTE is the authority here.
func (t *Thread) translateLocked(addr uint64, write bool) *mem.Page {
	vpn := addr / PageSize
	as := t.as

	m := as.findMappingLocked(addr)
	if m == nil {
		panic(fmt.Sprintf("vm: segfault at %#x (no mapping)", addr))
	}
	pte := as.table.Lookup(vpn)
	if pte == nil || !pte.Present {
		// Page-in fault.
		t.chargeFault(as.costs.MinorFault)
		pageIdx := (addr - m.Start) / PageSize
		t.rec.Instant(obs.CatVM, obs.NamePageIn, t.recTrack, t.clock.Now(), int64(pageIdx))
		var pg *mem.Page
		if m.SharedPages != nil {
			pg = m.SharedPages[pageIdx]
			if pg == nil {
				pg = as.phys.Alloc(t.clock)
				m.Backing.PageIn(t.clock, pageIdx, pg.Data())
				m.SharedPages[pageIdx] = pg
			}
		} else {
			pg = as.phys.Alloc(t.clock)
			m.Backing.PageIn(t.clock, pageIdx, pg.Data())
		}
		// Tracked mappings install read-only PTEs (the MemSnap
		// configuration); untracked install writable directly.
		pte = as.table.Map(vpn, pg.Frame(), !m.Tracked)
		pg.AddMapping(mem.ReverseMapping{Owner: as, VPN: vpn})
		if write && m.Tracked {
			pg = t.writeFaultLocked(m, vpn, pte, pg)
		}
		t.tlb.Insert(vpn, tlb.Entry{Page: pg, Writable: pte.Writable})
		return pg
	}

	pg := as.phys.Page(pte.Frame)
	if write && !pte.Writable {
		if !m.Tracked {
			panic(fmt.Sprintf("vm: write to read-only mapping %q at %#x", m.Name, addr))
		}
		pg = t.writeFaultLocked(m, vpn, pte, pg)
	}
	t.tlb.Insert(vpn, tlb.Entry{Page: pg, Writable: pte.Writable})
	return pg
}

// writeFaultLocked handles a write to a read-only PTE in a tracked
// mapping: MemSnap's two fault paths. pg is the page the PTE maps; the
// page it maps afterwards (the duplicate, after an in-flight COW) is
// returned.
func (t *Thread) writeFaultLocked(m *Mapping, vpn uint64, pte *pagetable.PTE, pg *mem.Page) *mem.Page {
	as := t.as

	if pg.Held() {
		// In-flight COW: duplicate the frame so the checkpoint keeps
		// an atomic snapshot while the writer proceeds on the copy.
		t.chargeFault(as.costs.COWFault)
		as.stats.COWFaults++
		t.rec.Instant(obs.CatVM, obs.NameCOWFault, t.recTrack, t.clock.Now(), int64(vpn))
		dup := as.phys.Copy(t.clock, pg)
		dup.AddMapping(mem.ReverseMapping{Owner: as, VPN: vpn})
		pte.Frame = dup.Frame()
		// Shared mappings must observe the replacement too.
		if m.SharedPages != nil {
			m.SharedPages[(vpn*PageSize-m.Start)/PageSize] = dup
		}
		// Every CPU that cached the translation must lose it: another
		// thread of this address space would otherwise keep reading the
		// displaced frame, which goes back to the allocator once the
		// uCheckpoint holding it retires. Uncharged: the COWFault
		// constant already covers the whole fault, and a separate
		// shootdown charge here would move the paper's tables.
		as.tlbs.ShootdownPage(nil, vpn)
		// The displaced page now belongs to the uCheckpoint(s) holding
		// it; see reclaim.
		pg.RemoveMapping(as, vpn)
		as.reclaim(pg)
		pg = dup
	} else {
		// Tracking fault: no copy.
		t.chargeFault(as.costs.MinorFault)
		as.stats.TrackingFaults++
		t.rec.Instant(obs.CatVM, obs.NameTrackingFault, t.recTrack, t.clock.Now(), int64(vpn))
	}

	pte.Writable = true
	if !t.tracked[vpn] {
		t.tracked[vpn] = true
		t.dirty = append(t.dirty, DirtyRecord{
			VPN:     vpn,
			Addr:    vpn * PageSize,
			PTE:     pte,
			Page:    pg,
			Mapping: m,
		})
	} else {
		// The thread re-dirtied a page it already tracks (possible
		// after an in-flight COW replaced the frame): refresh the
		// record so the next uCheckpoint flushes the live frame.
		for i := range t.dirty {
			if t.dirty[i].VPN == vpn {
				t.dirty[i].Page = pg
				t.dirty[i].PTE = pte
				break
			}
		}
	}
	return pg
}

// Write copies data into the address space at addr, faulting as
// needed. The memcpy cost is charged to the thread clock.
//
// Each per-page translate+copy step runs under the address-space
// lock, making it atomic relative to a concurrent checkpoint's
// MarkCheckpointPages + protection reset — which takes this lock even
// from another address space, via resetOtherMappings. The copy either
// completes before the page is write-protected (and is therefore
// ordered before the checkpoint's snapshot read), or the translation
// observes the read-only PTE, faults, and the copy proceeds on the
// COW duplicate, leaving the snapshotted frame quiescent. The old
// translate-then-copy without the lock spanning both raced a
// cross-address-space Persist: the page could be marked and
// snapshotted between the fault and the copy (TOCTOU), tearing the
// captured frame.
func (t *Thread) Write(addr uint64, data []byte) {
	as := t.as
	t.clock.Advance(as.costs.MemcpyCost(len(data)))
	for len(data) > 0 {
		off := addr % PageSize
		n := PageSize - off
		if n > uint64(len(data)) {
			n = uint64(len(data))
		}
		as.mu.Lock()
		pg := t.translateLocked(addr, true)
		copy(pg.Data()[off:], data[:n])
		as.mu.Unlock()
		addr += n
		data = data[n:]
	}
}

// Read copies bytes out of the address space into buf.
func (t *Thread) Read(addr uint64, buf []byte) {
	t.clock.Advance(t.as.costs.MemcpyCost(len(buf)))
	for len(buf) > 0 {
		pg := t.translate(addr, false)
		off := addr % PageSize
		n := PageSize - off
		if n > uint64(len(buf)) {
			n = uint64(len(buf))
		}
		copy(buf[:n], pg.Data()[off:])
		addr += n
		buf = buf[n:]
	}
}

// PageForWrite runs the write-fault machinery for the page containing
// addr and returns the live frame bytes for direct in-place mutation.
// Callers must not retain the slice across a Persist (the frame may be
// replaced by an in-flight COW).
func (t *Thread) PageForWrite(addr uint64) []byte {
	return t.translate(addr, true).Data()
}

// PageForRead returns the frame bytes for reading.
func (t *Thread) PageForRead(addr uint64) []byte {
	return t.translate(addr, false).Data()
}

// DirtyLen returns the number of pages in the thread's trace buffer.
func (t *Thread) DirtyLen() int {
	t.as.mu.Lock()
	defer t.as.mu.Unlock()
	return len(t.dirty)
}

// TakeDirty removes and returns the thread's dirty records, filtered
// to the given mapping (nil means all mappings). Called under the
// persist path with the address-space lock NOT held.
func (t *Thread) TakeDirty(m *Mapping) []DirtyRecord {
	return t.TakeDirtyInto(m, nil)
}

// TakeDirtyInto is TakeDirty appending into a caller-owned buffer, so
// a persist loop can reuse one records slice across calls. The thread
// keeps its own trace-buffer backing array (truncated, tracking map
// cleared in place), making the steady-state handoff allocation-free.
func (t *Thread) TakeDirtyInto(m *Mapping, out []DirtyRecord) []DirtyRecord {
	t.as.mu.Lock()
	defer t.as.mu.Unlock()
	return t.takeDirtyIntoLocked(m, out)
}

// TakeDirtyAllInto drains every thread's trace buffer (filtered to m;
// nil means all mappings) into out under one address-space lock
// acquisition — the MSGlobal gather without per-thread slice copies.
func (as *AddressSpace) TakeDirtyAllInto(m *Mapping, out []DirtyRecord) []DirtyRecord {
	as.mu.Lock()
	defer as.mu.Unlock()
	for _, t := range as.threads {
		out = t.takeDirtyIntoLocked(m, out)
	}
	return out
}

func (t *Thread) takeDirtyIntoLocked(m *Mapping, out []DirtyRecord) []DirtyRecord {
	if m == nil {
		out = append(out, t.dirty...)
		t.dirty = t.dirty[:0]
		for k := range t.tracked {
			delete(t.tracked, k)
		}
		return out
	}
	kept := t.dirty[:0]
	for _, rec := range t.dirty {
		if rec.Mapping == m {
			out = append(out, rec)
			delete(t.tracked, rec.VPN)
		} else {
			kept = append(kept, rec)
		}
	}
	t.dirty = kept
	return out
}
