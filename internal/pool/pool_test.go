package pool

import (
	"testing"
)

func TestPagePoolRecycles(t *testing.T) {
	pp := NewPagePool(4096)
	pg := pp.Get()
	if len(pg.Data) != 4096 {
		t.Fatalf("page len = %d", len(pg.Data))
	}
	pg.Data[0] = 0xAB
	pg.Release()
	st := pp.Stats()
	if st.Gets != 1 || st.Puts != 1 || st.InUse() != 0 {
		t.Fatalf("stats after balanced cycle: %+v", st)
	}
	// The released page comes back (same handle via the sync.Pool's
	// per-P cache in a single-goroutine test).
	pg2 := pp.Get()
	if len(pg2.Data) != 4096 {
		t.Fatalf("recycled page len = %d", len(pg2.Data))
	}
	pg2.Release()
	// sync.Pool randomly drops Puts under -race, so the recycled hit
	// is only observable in a normal build.
	if !raceEnabled && pg2 != pg {
		t.Fatal("the second Get allocated: the released page did not come back")
	}
}

func TestPagePoolNilRelease(t *testing.T) {
	var pg *Page
	pg.Release() // must not panic
	(&Page{Data: []byte{1}}).Release()
}

func TestSlicePoolRecyclesCapacity(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool randomly drops Puts under -race; recycling is not observable")
	}
	p := NewSlicePool[int]()
	s := p.Get(4)
	s = append(s, 1, 2, 3, 4, 5, 6, 7, 8)
	c := cap(s)
	p.Put(s)
	s2 := p.Get(1)
	if len(s2) != 0 {
		t.Fatalf("recycled slice len = %d, want 0", len(s2))
	}
	if cap(s2) != c {
		t.Fatalf("recycled slice cap = %d, want %d", cap(s2), c)
	}
	st := p.Stats()
	if st.Gets != 2 || st.Puts != 1 || st.InUse() != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestSlicePoolClearsReferences(t *testing.T) {
	p := NewSlicePool[*int]()
	v := 7
	s := p.Get(2)
	s = append(s, &v)
	p.Put(s)
	s2 := p.Get(1)
	s2 = s2[:cap(s2)]
	for i, e := range s2 {
		if e != nil {
			t.Fatalf("element %d retained a reference after Put", i)
		}
	}
}

func TestSlicePoolDropsZeroCap(t *testing.T) {
	p := NewSlicePool[byte]()
	p.Put(nil)
	if st := p.Stats(); st.Puts != 0 {
		t.Fatalf("nil Put counted: %+v", st)
	}
}

// TestSteadyStateAllocFree pins the zero-allocation property the
// persist hot path depends on: warm Get/Put cycles allocate nothing.
func TestSteadyStateAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is unreliable under -race")
	}
	pp := NewPagePool(4096)
	sp := NewSlicePool[int64]()
	// Warm both pools.
	pg := pp.Get()
	pg.Release()
	sp.Put(sp.Get(16))
	avg := testing.AllocsPerRun(100, func() {
		pg := pp.Get()
		pg.Data[0]++
		pg.Release()
		s := sp.Get(16)
		s = append(s, 1)
		sp.Put(s)
	})
	if avg != 0 {
		t.Fatalf("warm Get/Put cycle allocates %.1f/op, want 0", avg)
	}
}

// TestPageRetainTwoHolders: a retained page goes back to the pool
// exactly once, with the last Release, whichever holder that is.
func TestPageRetainTwoHolders(t *testing.T) {
	for _, order := range []string{"first_holder_last", "second_holder_last"} {
		t.Run(order, func(t *testing.T) {
			pp := NewPagePool(4096)
			base := pp.Stats().InUse()
			first := pp.Get()
			second := first // the same handle, held twice
			second.Retain()
			a, b := first, second
			if order == "first_holder_last" {
				a, b = second, first
			}
			a.Release()
			if st := pp.Stats(); st.Puts != 0 || st.InUse() != base+1 {
				t.Fatalf("page returned while a holder remains: %+v", st)
			}
			b.Data[0] = 0x5C // still the holder's to use
			b.Release()
			if st := pp.Stats(); st.Gets != 1 || st.Puts != 1 || st.InUse() != base {
				t.Fatalf("stats after both holders released: %+v", st)
			}
			// A recycled page starts over with one holder.
			pg := pp.Get()
			pg.Release()
			if st := pp.Stats(); st.Puts != 2 || st.InUse() != base {
				t.Fatalf("recycled page did not return on its single Release: %+v", st)
			}
		})
	}
}

// TestPageDoubleReleasePanics: a Release past the last holder panics
// instead of putting the page into the pool a second time, where two
// Gets would hand out one buffer.
func TestPageDoubleReleasePanics(t *testing.T) {
	pp := NewPagePool(64)
	pg := pp.Get()
	pg.Retain()
	pg.Release()
	pg.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("a third Release of a page held twice did not panic")
		}
		if st := pp.Stats(); st.Puts != 1 {
			t.Fatalf("page returned %d times, want once: %+v", st.Puts, st)
		}
	}()
	pg.Release()
}

// TestPageRetainAcrossGoroutines releases a page's holders from
// different goroutines (the capture worker and an async sender do).
func TestPageRetainAcrossGoroutines(t *testing.T) {
	pp := NewPagePool(64)
	const holders = 8
	for round := 0; round < 200; round++ {
		pg := pp.Get()
		done := make(chan struct{})
		for h := 1; h < holders; h++ {
			pg.Retain()
			go func() {
				_ = pg.Data[0]
				pg.Release()
				done <- struct{}{}
			}()
		}
		pg.Release()
		for h := 1; h < holders; h++ {
			<-done
		}
		if st := pp.Stats(); st.InUse() != 0 || st.Puts != int64(round+1) {
			t.Fatalf("round %d: %+v, want every page back exactly once", round, st)
		}
	}
}

// TestSlicePoolClearsOnlyPointerTypes: Put zeroes element types that
// can pin other objects and leaves pointer-free ones alone.
func TestSlicePoolClearsOnlyPointerTypes(t *testing.T) {
	type extent struct{ Off, Len uint16 }
	type carrier struct {
		N    int
		Data []byte
	}
	if p := NewSlicePool[byte](); p.clearOnPut {
		t.Error("[]byte pool clears on Put")
	}
	if p := NewSlicePool[extent](); p.clearOnPut {
		t.Error("pool of a pointer-free struct clears on Put")
	}
	if p := NewSlicePool[[4]uint64](); p.clearOnPut {
		t.Error("pool of a pointer-free array clears on Put")
	}
	for name, clears := range map[string]bool{
		"*int":       NewSlicePool[*int]().clearOnPut,
		"carrier":    NewSlicePool[carrier]().clearOnPut,
		"[2]carrier": NewSlicePool[[2]carrier]().clearOnPut,
		"string":     NewSlicePool[string]().clearOnPut,
		"any":        NewSlicePool[any]().clearOnPut,
		"func()":     NewSlicePool[func()]().clearOnPut,
	} {
		if !clears {
			t.Errorf("pool of %s does not clear on Put", name)
		}
	}
	if raceEnabled {
		return // sync.Pool drops Puts under -race; recycling is not observable
	}
	p := NewSlicePool[carrier]()
	s := append(p.Get(2), carrier{N: 1, Data: []byte{1}}, carrier{N: 2, Data: []byte{2}})
	p.Put(s)
	for i, e := range p.Get(1)[:2] {
		if e.N != 0 || e.Data != nil {
			t.Fatalf("element %d came back as %+v after Put/Get, want zeroed", i, e)
		}
	}
}

// BenchmarkSlicePoolPutBytes: a []byte pool's Put/Get cycle costs the
// same whatever capacity the buffer grew to (Put used to clear
// cap(s)).
func BenchmarkSlicePoolPutBytes(b *testing.B) {
	for _, bc := range []struct {
		name string
		cap  int
	}{{"4KiB", 4 << 10}, {"1MiB", 1 << 20}} {
		b.Run(bc.name, func(b *testing.B) {
			p := NewSlicePool[byte]()
			p.Put(make([]byte, 0, bc.cap))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s := p.Get(bc.cap)
				s = append(s, 1)
				p.Put(s)
			}
		})
	}
}
