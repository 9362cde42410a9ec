package tlb

import (
	"testing"

	"memsnap/internal/mem"
)

// The two shapes the persist and fault paths put on a TLB: a per-page
// shootdown across a machine on which one CPU caches the page and the
// others never saw it, and an insert into a full TLB. Both run against
// warmed-up state, so the steady state allocates nothing; the
// AllocsPerRun tests beside them gate that.

// shootdown8 returns a closure that caches one more page on CPU 0 of
// an 8-CPU system and shoots it down, per call: through ShootdownPage
// when one is set, else through ShootdownPages. Every CPU holds a
// 1,024-page working set of its own throughout, as eight shard workers
// do; the shot page is CPU 0's newest entry and CPUs 1-7 never saw it.
func shootdown8(one bool) func() {
	s := NewSystem(nil, 8)
	e := Entry{Page: new(mem.Page), Writable: true}
	for cpu := 0; cpu < 8; cpu++ {
		for vpn := uint64(0); vpn < 1024; vpn++ {
			s.CPU(cpu).Insert(uint64(cpu)<<20|vpn, e)
		}
	}
	vpns := make([]uint64, 1)
	next := uint64(1 << 30)
	return func() {
		next++
		vpns[0] = next
		s.CPU(0).Insert(next, e)
		if one {
			s.ShootdownPage(nil, next)
		} else {
			s.ShootdownPages(nil, vpns)
		}
	}
}

func BenchmarkShootdown8CPU(b *testing.B) {
	op := shootdown8(false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}

func TestShootdownSteadyStateZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	for _, one := range []bool{false, true} {
		if n := testing.AllocsPerRun(500, shootdown8(one)); n != 0 {
			t.Errorf("steady-state shootdown (single page %v) allocates %v times per op, want 0", one, n)
		}
	}
}

// insertEvict returns a closure inserting one never-seen page into a
// full default-capacity TLB per call, so every insert evicts.
func insertEvict() func() {
	tl := New(0)
	e := Entry{Page: new(mem.Page)}
	next := uint64(0)
	op := func() {
		next++
		tl.Insert(next, e)
	}
	for i := 0; i < 2*DefaultCapacity; i++ {
		op()
	}
	return op
}

func BenchmarkInsertEvict(b *testing.B) {
	op := insertEvict()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}

func TestInsertEvictSteadyStateZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	if n := testing.AllocsPerRun(5000, insertEvict()); n != 0 {
		t.Fatalf("steady-state evicting insert allocates %v times per op, want 0", n)
	}
}
