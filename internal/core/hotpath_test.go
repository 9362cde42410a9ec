package core

import (
	"runtime"
	"sync"
	"testing"

	"memsnap/internal/obs"
	"memsnap/internal/vm"
)

// TestPersistErrorPathReleasesHold is the regression test for the
// checkpoint hold leak: when Persist fails because a dirty page belongs
// to a mapping that is not a region, the hold taken by
// MarkCheckpointPages must be released (holds dropped, buffer
// recycled), not abandoned.
func TestPersistErrorPathReleasesHold(t *testing.T) {
	sys := newSys(t)
	p := sys.NewProcess()
	ctx := p.NewContext(0)
	r, err := p.Open(ctx, "data", 1<<20)
	if err != nil {
		t.Fatal(err)
	}

	// A tracked mapping outside any region: its dirty pages cannot be
	// committed anywhere.
	foreign := &vm.Mapping{Name: "foreign", Start: 1 << 40, Pages: 4, Tracked: true}
	if err := p.as.Map(foreign); err != nil {
		t.Fatal(err)
	}
	ctx.th.Write(foreign.Start, []byte("x"))
	ctx.WriteAt(r, 0, []byte("y"))

	if _, err := ctx.Persist(nil, MSSync); err == nil {
		t.Fatal("Persist succeeded with a dirty non-region mapping")
	}
	if got := len(ctx.pending); got != 0 {
		t.Fatalf("failed Persist left %d pending checkpoints", got)
	}
	if got := len(ctx.holdFree); got != 1 {
		t.Fatalf("failed Persist recycled %d hold buffers, want 1 (hold leaked)", got)
	}

	// The context still persists normally afterwards, and the recycled
	// hold buffer is reused rather than grown.
	ctx.WriteAt(r, 0, []byte("z"))
	if _, err := ctx.Persist(r, MSSync); err != nil {
		t.Fatalf("Persist after recovered error: %v", err)
	}
	if got := len(ctx.holdFree); got != 1 {
		t.Fatalf("hold free list = %d buffers after clean persist, want 1", got)
	}
}

// TestPersistSteadyStateZeroAlloc pins the tentpole criterion: once
// pools and scratch buffers are warm, a Persist of a fixed dirty set
// performs zero heap allocations per call. The traced case attaches a
// span recorder, so persist-stage spans and fault instants land in the
// ring every call: tracing must stay free to leave enabled.
func TestPersistSteadyStateZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is unreliable under -race")
	}
	for _, traced := range []bool{false, true} {
		name := "untraced"
		if traced {
			name = "traced"
		}
		t.Run(name, func(t *testing.T) {
			sys := newSys(t)
			p := sys.NewProcess()
			ctx := p.NewContext(0)
			if traced {
				ctx.SetRecorder(obs.NewRecorder(4096), obs.ShardTrack(0))
			}
			r, err := p.Open(ctx, "data", 1<<20)
			if err != nil {
				t.Fatal(err)
			}
			op := func() {
				for i := int64(0); i < 8; i++ {
					pg := ctx.PageForWrite(r, i*PageSize)
					pg[0]++
				}
				if _, err := ctx.Persist(r, MSSync); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 64; i++ {
				op() // warm pools, map buckets, scratch capacities
			}
			if got := testing.AllocsPerRun(200, op); got > 0 {
				t.Fatalf("steady-state Persist allocates %.1f times per call, want 0", got)
			}
		})
	}
}

// TestPersistSteadyStateHeapFlat: a context that persists for a long
// time holds no more memory than one that has just warmed up. Each
// Persist records its latency into a fixed-size histogram, so the live
// heap may not grow with the number of calls; the bound leaves room for
// the runtime's own noise and is far under the 8 B a retained sample
// per call would cost over this run (1.6 MB).
func TestPersistSteadyStateHeapFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("heap accounting is unreliable under -race")
	}
	sys := newSys(t)
	p := sys.NewProcess()
	ctx := p.NewContext(0)
	r, err := p.Open(ctx, "data", 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	live := func(persists int) int64 {
		for i := 0; i < persists; i++ {
			ctx.PageForWrite(r, 0)[0]++
			if _, err := ctx.Persist(r, MSSync); err != nil {
				t.Fatal(err)
			}
		}
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	warm := live(2_000)
	if grown := live(200_000) - warm; grown > 256<<10 {
		t.Errorf("live heap grew %d B over 200 K steady-state Persists", grown)
	}
	if n := ctx.PersistLatency.Snapshot().Count; n != 202_000 {
		t.Errorf("PersistLatency holds %d samples, want 202000", n)
	}
}

// TestCapturePoolNoLeak drives the capture pipeline end to end and
// checks every pooled page and slice returns: the pool's in-use count
// is unchanged after all captured commits are released.
func TestCapturePoolNoLeak(t *testing.T) {
	pages0, slices0 := CapturePoolStats()
	sys := newSys(t)
	p := sys.NewProcess()
	ctx := p.NewContext(0)
	r, err := p.Open(ctx, "data", 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	ctx.CaptureCommits(true)
	for round := 0; round < 50; round++ {
		for i := int64(0); i < 8; i++ {
			pg := ctx.PageForWrite(r, i*PageSize)
			pg[0]++
		}
		if _, err := ctx.Persist(r, MSSync); err != nil {
			t.Fatal(err)
		}
		pages := ctx.TakeCaptured()
		if len(pages) != 8 {
			t.Fatalf("captured %d pages, want 8", len(pages))
		}
		ReleasePages(pages)
	}
	ctx.CaptureCommits(false)
	ctx.Wait(nil, 0)
	pages1, slices1 := CapturePoolStats()
	if pages1.InUse() != pages0.InUse() {
		t.Fatalf("capture page pool leaked: in-use %d -> %d", pages0.InUse(), pages1.InUse())
	}
	if slices1.InUse() != slices0.InUse() {
		t.Fatalf("captured-pages slice pool leaked: in-use %d -> %d", slices0.InUse(), slices1.InUse())
	}
	if pages1.Gets == pages0.Gets {
		t.Fatal("capture page pool was never exercised")
	}
}

// TestPersistGlobalConcurrentStress hammers MSGlobal persists from a
// dedicated context while other contexts dirty and persist their own
// regions — the interleaving the scratch-buffer reuse and hold
// machinery must survive. Run with -race in CI.
func TestPersistGlobalConcurrentStress(t *testing.T) {
	const writers = 3
	sys, err := NewSystem(Options{CPUs: writers + 1})
	if err != nil {
		t.Fatal(err)
	}
	p := sys.NewProcess()
	var wg sync.WaitGroup
	errs := make(chan error, writers+1)

	regions := make([]*Region, writers)
	ctxs := make([]*Context, writers)
	for w := 0; w < writers; w++ {
		ctxs[w] = p.NewContext(w)
		r, err := p.Open(ctxs[w], "data"+string(rune('0'+w)), 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		regions[w] = r
	}
	gctx := p.NewContext(writers)

	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx, r := ctxs[w], regions[w]
			for i := 0; i < 150; i++ {
				for pg := int64(0); pg < 4; pg++ {
					b := ctx.PageForWrite(r, pg*PageSize)
					b[i%PageSize]++
				}
				flags := MSSync
				if i%3 == 0 {
					flags = MSAsync
				}
				if _, err := ctx.Persist(r, flags); err != nil {
					errs <- err
					return
				}
			}
			ctx.Wait(nil, 0)
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			if _, err := gctx.Persist(nil, MSGlobal|MSSync); err != nil {
				errs <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if n := gctx.OutstandingCheckpoints(); n != 0 {
		t.Fatalf("global context left %d outstanding checkpoints", n)
	}
}
