package objstore

import (
	"sync"
	"testing"
	"time"

	"memsnap/internal/disk"
	"memsnap/internal/sim"
)

// benchStore returns a fresh store on a two-device array of 256 MiB
// per device, and the time it is durable.
func benchStore(tb testing.TB) (*Store, time.Duration) {
	costs := sim.DefaultCosts()
	s, at, err := Format(costs, disk.NewArray(costs, 2, 256<<20), 0)
	if err != nil {
		tb.Fatal(err)
	}
	return s, at
}

// commit16 returns a warmed-up closure committing 16 random blocks of a
// new 16384-block (64 MiB) object of s per call — the object-store
// share of the paper's 64 KiB msnap_persist — each commit issued when
// the previous one is durable.
func commit16(tb testing.TB, s *Store, at time.Duration, name string, seed uint64) func() error {
	o, at, err := s.CreateObject(at, name, 16384*BlockSize)
	if err != nil {
		tb.Fatal(err)
	}
	rng := sim.NewRNG(seed)
	data := make([]byte, BlockSize)
	writes := make([]BlockWrite, 16)
	op := func() error {
		for i := range writes {
			writes[i] = BlockWrite{Index: rng.Int63n(16384), Data: data}
		}
		_, at, err = o.Commit(at, writes)
		return err
	}
	// 4000 commits reach steady state: every leaf node exists, and the
	// allocator's free list, the commit scratch, the object's spares
	// and the disk's block free lists have grown to their working size.
	for i := 0; i < 4000; i++ {
		if err := op(); err != nil {
			tb.Fatal(err)
		}
	}
	return op
}

// commit16One is commit16 on a store of its own that fails tb on error.
func commit16One(tb testing.TB) func() {
	s, at := benchStore(tb)
	op := commit16(tb, s, at, "bench", 1)
	return func() {
		if err := op(); err != nil {
			tb.Fatal(err)
		}
	}
}

func BenchmarkCommit16Random(b *testing.B) {
	op := commit16One(b)
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
	op := commit16One(t)
	if n := testing.AllocsPerRun(500, op); n != 0 {
		t.Fatalf("steady-state 16-block Commit allocates %v times per op, want 0", n)
	}
}

// BenchmarkCommitParallel runs commit16 on two objects of one store
// from two goroutines, b.N commits in all. The commits serialize only
// on Store.mu, so ns/op falls as less of a commit runs under it.
func BenchmarkCommitParallel(b *testing.B) {
	s, at := benchStore(b)
	ops := []func() error{commit16(b, s, at, "a", 1), commit16(b, s, at, "b", 2)}
	b.ReportAllocs()
	b.SetBytes(16 * BlockSize)
	b.ResetTimer()
	var wg sync.WaitGroup
	for g, op := range ops {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			for i := 0; i < n; i++ {
				if err := op(); err != nil {
					b.Error(err)
					return
				}
			}
		}((b.N + g) / len(ops))
	}
	wg.Wait()
}
