package objstore

import (
	"testing"

	"memsnap/internal/disk"
	"memsnap/internal/sim"
)

// commit16 returns a warmed-up closure committing 16 random blocks of a
// 16384-block (64 MiB) object per call — the object-store share of the
// paper's 64 KiB msnap_persist — each commit issued when the previous
// one is durable.
func commit16(tb testing.TB) func() {
	costs := sim.DefaultCosts()
	arr := disk.NewArray(costs, 2, 256<<20)
	s, at, err := Format(costs, arr, 0)
	if err != nil {
		tb.Fatal(err)
	}
	o, at, err := s.CreateObject(at, "bench", 16384*BlockSize)
	if err != nil {
		tb.Fatal(err)
	}
	rng := sim.NewRNG(1)
	data := make([]byte, BlockSize)
	writes := make([]BlockWrite, 16)
	op := func() {
		for i := range writes {
			writes[i] = BlockWrite{Index: rng.Int63n(16384), Data: data}
		}
		if _, at, err = o.Commit(at, writes); err != nil {
			tb.Fatal(err)
		}
	}
	// 4000 commits reach steady state: every leaf node exists, and the
	// allocator's free list, the commit scratch and the disk's block
	// free lists have grown to their working size.
	for i := 0; i < 4000; i++ {
		op()
	}
	return op
}

func BenchmarkCommit16Random(b *testing.B) {
	op := commit16(b)
	b.ReportAllocs()
	b.SetBytes(16 * BlockSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}

func TestCommitSteadyStateZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	op := commit16(t)
	if n := testing.AllocsPerRun(500, op); n != 0 {
		t.Fatalf("steady-state 16-block Commit allocates %v times per op, want 0", n)
	}
}
