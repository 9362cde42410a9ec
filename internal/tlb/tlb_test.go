package tlb

import (
	"testing"
	"testing/quick"
	"time"

	"memsnap/internal/mem"
	"memsnap/internal/sim"
)

func TestLookupInsert(t *testing.T) {
	tl := New(4)
	if _, ok := tl.Lookup(1); ok {
		t.Fatal("empty TLB hit")
	}
	pg := new(mem.Page)
	tl.Insert(1, Entry{Page: pg, Writable: true})
	e, ok := tl.Lookup(1)
	if !ok || e.Page != pg || !e.Writable {
		t.Fatalf("lookup after insert: %+v ok=%v", e, ok)
	}
	hits, misses := tl.Stats()
	if hits != 1 || misses != 1 {
		t.Fatalf("stats = %d/%d", hits, misses)
	}
}

func TestInsertUpdatesExisting(t *testing.T) {
	tl := New(4)
	tl.Insert(1, Entry{Writable: false})
	tl.Insert(1, Entry{Writable: true})
	if tl.Len() != 1 {
		t.Fatalf("len = %d", tl.Len())
	}
	e, _ := tl.Lookup(1)
	if !e.Writable {
		t.Fatal("update lost")
	}
}

func TestFIFOEviction(t *testing.T) {
	tl := New(2)
	tl.Insert(1, Entry{})
	tl.Insert(2, Entry{})
	tl.Insert(3, Entry{}) // evicts 1
	if _, ok := tl.Lookup(1); ok {
		t.Fatal("oldest entry not evicted")
	}
	if _, ok := tl.Lookup(2); !ok {
		t.Fatal("entry 2 wrongly evicted")
	}
	if tl.Len() != 2 {
		t.Fatalf("len = %d", tl.Len())
	}
}

func TestInvalidatePage(t *testing.T) {
	tl := New(4)
	tl.Insert(5, Entry{})
	tl.InvalidatePage(5)
	if _, ok := tl.Lookup(5); ok {
		t.Fatal("invalidated entry still cached")
	}
	tl.InvalidatePage(99) // absent: no-op
	// FIFO bookkeeping must stay consistent after invalidation.
	tl.Insert(6, Entry{})
	tl.Insert(7, Entry{})
	tl.Insert(8, Entry{})
	tl.Insert(9, Entry{})
	if tl.Len() > 4 {
		t.Fatalf("capacity violated: %d", tl.Len())
	}
}

func TestInvalidateAll(t *testing.T) {
	tl := New(8)
	for i := uint64(0); i < 8; i++ {
		tl.Insert(i, Entry{})
	}
	tl.InvalidateAll()
	if tl.Len() != 0 {
		t.Fatalf("len after flush = %d", tl.Len())
	}
}

func TestSystemShootdown(t *testing.T) {
	costs := sim.DefaultCosts()
	s := NewSystem(costs, 4)
	for cpu := 0; cpu < 4; cpu++ {
		s.CPU(cpu).Insert(10, Entry{})
		s.CPU(cpu).Insert(11, Entry{})
	}
	clk := sim.NewClock()
	s.ShootdownPages(clk, []uint64{10})
	if clk.Now() != costs.TLBShootdownPerPage {
		t.Fatalf("shootdown cost %v", clk.Now())
	}
	for cpu := 0; cpu < 4; cpu++ {
		if _, ok := s.CPU(cpu).Lookup(10); ok {
			t.Fatalf("cpu %d still caches shot-down page", cpu)
		}
		if _, ok := s.CPU(cpu).Lookup(11); !ok {
			t.Fatalf("cpu %d lost unrelated entry", cpu)
		}
	}
}

func TestSystemFullFlush(t *testing.T) {
	costs := sim.DefaultCosts()
	s := NewSystem(costs, 2)
	s.CPU(0).Insert(1, Entry{})
	s.CPU(1).Insert(2, Entry{})
	clk := sim.NewClock()
	s.FullFlush(clk)
	if clk.Now() != costs.TLBFullFlush {
		t.Fatalf("flush cost %v", clk.Now())
	}
	if s.CPU(0).Len() != 0 || s.CPU(1).Len() != 0 {
		t.Fatal("flush left entries")
	}
}

func TestInvalidatePolicyThreshold(t *testing.T) {
	costs := sim.DefaultCosts()
	s := NewSystem(costs, 1)

	small := make([]uint64, costs.TLBFlushThreshold-1)
	for i := range small {
		small[i] = uint64(i)
	}
	clk := sim.NewClock()
	s.Invalidate(clk, small)
	wantSmall := costs.TLBShootdownPerPage * time.Duration(len(small))
	if clk.Now() != wantSmall {
		t.Fatalf("small invalidate cost %v, want %v (per-page path)", clk.Now(), wantSmall)
	}

	large := make([]uint64, costs.TLBFlushThreshold)
	clk2 := sim.NewClock()
	s.Invalidate(clk2, large)
	if clk2.Now() != costs.TLBFullFlush {
		t.Fatalf("large invalidate cost %v, want full flush %v", clk2.Now(), costs.TLBFullFlush)
	}
}

func TestSystemCPUWraps(t *testing.T) {
	s := NewSystem(nil, 3)
	if len(s.cpus) != 3 {
		t.Fatalf("ncpus = %d", len(s.cpus))
	}
	if s.CPU(0) != s.CPU(3) {
		t.Fatal("CPU index does not wrap")
	}
}

func TestCapacityInvariantProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		tl := New(16)
		for _, op := range ops {
			vpn := uint64(op % 64)
			switch op % 3 {
			case 0, 1:
				tl.Insert(vpn, Entry{Writable: op&4 != 0})
			case 2:
				tl.InvalidatePage(vpn)
			}
			if tl.Len() > 16 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
