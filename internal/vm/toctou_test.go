package vm

import (
	"sync"
	"testing"

	"memsnap/internal/mem"
	"memsnap/internal/sim"
	"memsnap/internal/tlb"
)

// TestWriteCheckpointTOCTOU is the regression test for the
// cross-address-space translate-then-copy race: one process hammers a
// shared region with full-page uniform-pattern writes while another
// process repeatedly checkpoints it (mark → protect → snapshot). With
// the old unlocked copy in Thread.Write, the page could be marked and
// snapshotted between the writer's fault and its copy, so the copy
// raced the snapshot read (-race) and the captured frame could tear
// (mixed patterns). With the locked translate+copy, every captured
// page is a complete pattern and the test is -race clean.
func TestWriteCheckpointTOCTOU(t *testing.T) {
	const (
		pages  = 4
		rounds = 300
	)
	costs := sim.DefaultCosts()
	phys := mem.New(costs)
	tlbs := tlb.NewSystem(costs, 2)
	as1 := NewAddressSpace(costs, phys, tlbs)
	as2 := NewAddressSpace(costs, phys, tlbs)

	shared := make([]*mem.Page, pages)
	m1 := &Mapping{Name: "shm", Start: 0x100000, Pages: pages, Tracked: true, SharedPages: shared}
	m2 := &Mapping{Name: "shm", Start: 0x100000, Pages: pages, Tracked: true, SharedPages: shared}
	if err := as1.Map(m1); err != nil {
		t.Fatal(err)
	}
	if err := as2.Map(m2); err != nil {
		t.Fatal(err)
	}
	writer := as1.NewThread(sim.NewClock(), 0)
	ckpt := as2.NewThread(sim.NewClock(), 1)

	var wg sync.WaitGroup
	stop := make(chan struct{})

	// Shared-memory applications (the pgdb configuration) serialize
	// writes to a page with their own locks; the checkpoint capture is
	// the OS-transparent part that must be race-free WITHOUT them.
	var pageLocks [pages]sync.Mutex

	// Process 1: full-page uniform writes to seeded-random pages. A
	// page's content is therefore always one byte value repeated —
	// unless a copy interleaves with a checkpoint capture.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := sim.NewRNG(42)
		var buf [PageSize]byte
		for i := 1; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			pat := byte(i%255 + 1)
			for j := range buf {
				buf[j] = pat
			}
			pageIdx := uint64(rng.Intn(pages))
			pageLocks[pageIdx].Lock()
			writer.Write(m1.Start+pageIdx*PageSize, buf[:])
			pageLocks[pageIdx].Unlock()
		}
	}()

	// Process 2: dirty every page with its own pattern, then run the
	// mark → protect → snapshot → verify → clear checkpoint sequence.
	tornErr := make(chan string, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		var buf [PageSize]byte
		for r := 1; r <= rounds; r++ {
			pat := byte(r % 256)
			for j := range buf {
				buf[j] = pat
			}
			for p := uint64(0); p < pages; p++ {
				pageLocks[p].Lock()
				ckpt.Write(m2.Start+p*PageSize, buf[:])
				pageLocks[p].Unlock()
			}
			records := ckpt.TakeDirty(m2)
			if len(records) == 0 {
				continue
			}
			hold := as2.MarkCheckpointPages(records, nil)
			vpns := as2.ResetProtectionsTrace(ckpt.Clock(), records)
			tlbs.Invalidate(ckpt.Clock(), vpns)
			snaps := as2.SnapshotPagesInto(records, nil)
			for i, snap := range snaps {
				first := snap[0]
				for _, b := range snap {
					if b != first {
						select {
						case tornErr <- "torn page captured: page " +
							string(rune('0'+records[i].VPN%10)) +
							" mixes byte patterns":
						default:
						}
						return
					}
				}
			}
			as2.RetireCheckpointPages(hold)
		}
	}()

	wg.Wait()
	select {
	case msg := <-tornErr:
		t.Fatal(msg)
	default:
	}
}
