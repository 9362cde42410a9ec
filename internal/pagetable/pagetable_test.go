package pagetable

import (
	"testing"
	"testing/quick"

	"memsnap/internal/mem"
	"memsnap/internal/sim"
)

func TestMapLookup(t *testing.T) {
	pt := New(nil)
	pte := pt.Map(0x12345, mem.Frame(7), true)
	if !pte.Present || !pte.Writable || pte.Frame != 7 || pte.VPN != 0x12345 {
		t.Fatalf("mapped PTE = %+v", pte)
	}
	if got := pt.Lookup(0x12345); got != pte {
		t.Fatal("Lookup returned different PTE")
	}
	if pt.Lookup(0x12346) != nil {
		t.Fatal("Lookup of unmapped VPN returned entry")
	}
}

func TestPTEReferenceStable(t *testing.T) {
	// The trace-buffer optimization depends on *PTE staying aliased to
	// the live entry across later table growth.
	pt := New(nil)
	pte := pt.Map(100, mem.Frame(1), false)
	for vpn := uint64(0); vpn < 4096; vpn++ {
		pt.Map(vpn<<9, mem.Frame(vpn), true) // force many nodes
	}
	if got := pt.Lookup(100); got != pte {
		t.Fatal("PTE pointer invalidated by table growth")
	}
	pte.Writable = true // direct mutation, as the trace buffer does
	if !pt.Lookup(100).Writable {
		t.Fatal("direct PTE mutation not visible through Lookup")
	}
}

// Unmap clears the entry at vpn. The *PTE remains allocated (mirroring
// a zeroed hardware PTE slot) but Present is false.
func (t *Table) Unmap(vpn uint64) {
	if pte := t.Lookup(vpn); pte != nil {
		pte.Present = false
		pte.Writable = false
		pte.Frame = mem.NoFrame
	}
}

func TestUnmap(t *testing.T) {
	pt := New(nil)
	pt.Map(55, mem.Frame(3), true)
	pt.Unmap(55)
	pte := pt.Lookup(55)
	if pte == nil {
		t.Fatal("Unmap removed the slot entirely")
	}
	if pte.Present || pte.Writable || pte.Frame != mem.NoFrame {
		t.Fatalf("Unmap left state: %+v", pte)
	}
	pt.Unmap(9999) // unmapped: no-op, no panic
}

func TestWalkCharges(t *testing.T) {
	pt := New(nil)
	pt.Map(10, mem.Frame(1), true)
	clk := sim.NewClock()
	if pte := pt.Walk(clk, 10); pte == nil || pte.Frame != 1 {
		t.Fatal("Walk did not find PTE")
	}
	costs := sim.DefaultCosts()
	if clk.Now() != costs.PageWalk {
		t.Fatalf("Walk charged %v, want %v", clk.Now(), costs.PageWalk)
	}
	if pt.Walk(clk, 11) != nil {
		t.Fatal("Walk found unmapped page")
	}
}

func TestScanRangeFindsOnlyRange(t *testing.T) {
	pt := New(nil)
	for vpn := uint64(0); vpn < 100; vpn++ {
		pt.Map(vpn, mem.Frame(vpn), true)
	}
	var seen []uint64
	pt.ScanRange(nil, 10, 20, func(p *PTE) { seen = append(seen, p.VPN) })
	if len(seen) != 20 {
		t.Fatalf("scan found %d entries, want 20", len(seen))
	}
	for i, vpn := range seen {
		if vpn != uint64(10+i) {
			t.Fatalf("scan order wrong at %d: %d", i, vpn)
		}
	}
}

func TestScanRangeCostProportionalToSpan(t *testing.T) {
	costs := sim.DefaultCosts()
	pt := New(costs)
	pt.Map(0, mem.Frame(0), true)

	small, large := sim.NewClock(), sim.NewClock()
	pt.ScanRange(small, 0, 512, func(*PTE) {})      // one leaf node
	pt.ScanRange(large, 0, 512*1024, func(*PTE) {}) // 1024 leaf nodes

	if small.Now() != costs.PageTableScanPerEntry*512 {
		t.Fatalf("small scan cost %v", small.Now())
	}
	if large.Now() != costs.PageTableScanPerEntry*512*1024 {
		t.Fatalf("large scan cost %v", large.Now())
	}
	// This is exactly why Figure 1's baseline is slow: cost tracks the
	// mapping, not the dirty set.
	if large.Now() < 1000*small.Now() {
		t.Fatal("scan cost not proportional to span")
	}
}

func TestScanRangeSparse(t *testing.T) {
	pt := New(nil)
	pt.Map(1000, mem.Frame(1), true)
	pt.Map(200000, mem.Frame(2), true)
	var hits int
	pt.ScanRange(nil, 0, 1<<20, func(*PTE) { hits++ })
	if hits != 2 {
		t.Fatalf("sparse scan hits = %d", hits)
	}
	// Empty range.
	pt.ScanRange(nil, 0, 0, func(*PTE) { t.Fatal("empty range visited") })
}

func TestFigure1Ordering(t *testing.T) {
	// The three strategies must be ordered trace < walk < scan for a
	// small dirty set in a 1 GiB mapping, reproducing Figure 1.
	costs := sim.DefaultCosts()
	pt := New(costs)
	const mappingPages = 1 << 18 // 1 GiB
	dirty := []uint64{5, 5000, 100000, 200000}
	var refs []*PTE
	for _, vpn := range dirty {
		refs = append(refs, pt.Map(vpn, mem.Frame(vpn), true))
	}

	scanClk := sim.NewClock()
	pt.ScanRange(scanClk, 0, mappingPages, func(p *PTE) { p.Writable = false })

	walkClk := sim.NewClock()
	for _, vpn := range dirty {
		pt.Walk(walkClk, vpn).Writable = false
	}

	traceClk := sim.NewClock()
	for _, ref := range refs {
		traceClk.Advance(costs.PTEWrite)
		ref.Writable = false
	}

	if !(traceClk.Now() < walkClk.Now() && walkClk.Now() < scanClk.Now()) {
		t.Fatalf("ordering violated: trace=%v walk=%v scan=%v",
			traceClk.Now(), walkClk.Now(), scanClk.Now())
	}
}

func TestNodeCountGrows(t *testing.T) {
	pt := New(nil)
	before := countNodes(pt.root)
	pt.Map(0, mem.Frame(0), true)
	if countNodes(pt.root) <= before {
		t.Fatal("mapping did not allocate nodes")
	}
}

// countNodes counts the interior and leaf nodes below n.
func countNodes(n *node) int {
	c := 0
	for _, child := range n.children {
		if child != nil {
			c += 1 + countNodes(child)
		}
	}
	return c
}

func TestMapLookupRoundTripProperty(t *testing.T) {
	f := func(vpns []uint32) bool {
		pt := New(nil)
		want := make(map[uint64]mem.Frame)
		for i, raw := range vpns {
			vpn := uint64(raw) // stays within 48-bit space
			pt.Map(vpn, mem.Frame(i), i%2 == 0)
			want[vpn] = mem.Frame(i)
		}
		for vpn, frame := range want {
			pte := pt.Lookup(vpn)
			if pte == nil || !pte.Present || pte.Frame != frame {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 50}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestWalkCostLinearInPages(t *testing.T) {
	costs := sim.DefaultCosts()
	pt := New(costs)
	for vpn := uint64(0); vpn < 256; vpn++ {
		pt.Map(vpn, mem.Frame(vpn), true)
	}
	clk := sim.NewClock()
	for vpn := uint64(0); vpn < 256; vpn++ {
		pt.Walk(clk, vpn)
	}
	want := 256 * costs.PageWalk
	if clk.Now() != want {
		t.Fatalf("256 walks cost %v, want %v", clk.Now(), want)
	}
}
