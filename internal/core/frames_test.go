package core

import (
	"encoding/binary"
	"testing"
)

// TestOverlappingCheckpointsKeepCOW has two processes of a shared
// region persist the same page asynchronously, so two uCheckpoints hold
// it at once. After the first retires, a third process writes the page:
// the write must still take the in-flight COW path, because the second
// uCheckpoint's IO reads the frame it pinned and that frame must keep
// its pre-write image until the second one retires too.
func TestOverlappingCheckpointsKeepCOW(t *testing.T) {
	const off = 3 * PageSize
	sys := newSys(t)
	ctxA := sys.NewProcess().NewContext(0)
	rA, err := ctxA.proc.Open(ctxA, "data", 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	ctxB := sys.NewProcess().NewContext(1)
	rB, err := ctxB.proc.OpenShared(ctxB, rA)
	if err != nil {
		t.Fatal(err)
	}
	ctxC := sys.NewProcess().NewContext(2)
	rC, err := ctxC.proc.OpenShared(ctxC, rA)
	if err != nil {
		t.Fatal(err)
	}
	var word [8]byte
	put := func(ctx *Context, r *Region, v uint64) {
		binary.LittleEndian.PutUint64(word[:], v)
		ctx.WriteAt(r, off, word[:])
	}
	put(ctxA, rA, 1)
	put(ctxB, rB, 2) // same frame: both processes now track the page
	ctxC.ReadAt(rC, off, word[:])

	epochA, err := ctxA.Persist(rA, MSAsync)
	if err != nil {
		t.Fatal(err)
	}
	epochB, err := ctxB.Persist(rB, MSAsync)
	if err != nil {
		t.Fatal(err)
	}
	// The second uCheckpoint's IO reads these bytes: its snapshot
	// aliases the frame it holds.
	snap := ctxB.snaps
	if len(snap) != 1 {
		t.Fatalf("second uCheckpoint snapshots %d pages, want 1", len(snap))
	}
	ctxA.Wait(rA, epochA) // the first uCheckpoint retires

	put(ctxC, rC, 3)
	if got := ctxC.proc.as.Stats().COWFaults; got != 1 {
		t.Errorf("third writer took %d COW faults, want 1: the first retire released the second uCheckpoint's page", got)
	}
	if got := binary.LittleEndian.Uint64(snap[0][off%PageSize:]); got != 2 {
		t.Fatalf("second uCheckpoint's frame reads %d after the third write, want its pre-write image 2", got)
	}
	ctxB.Wait(rB, epochB)
	ctxC.ReadAt(rC, off, word[:])
	if got := binary.LittleEndian.Uint64(word[:]); got != 3 {
		t.Fatalf("third writer reads back %d, want 3", got)
	}
}

// TestCOWFrameReturnedOnRetire runs the shard worker's cycle — write,
// Persist(MSAsync), write the same page again while the uCheckpoint is
// in flight (an in-flight COW), Wait — ten thousand times and holds
// physical memory to the size it had after the second round: the frame
// each COW displaces goes back to the allocator when its uCheckpoint
// retires, and the next COW reuses it.
//
// "shared" maps the region into a second process that touched the page
// first. The frame the first COW displaces is then still mapped there,
// so it must NOT be freed — the second process keeps reading the bytes
// it held at that instant, never a recycled frame — while every later
// displaced frame, mapped by nobody, is.
func TestCOWFrameReturnedOnRetire(t *testing.T) {
	const rounds = 10000
	const off = 5 * PageSize
	for _, shared := range []bool{false, true} {
		name := "private"
		if shared {
			name = "shared"
		}
		t.Run(name, func(t *testing.T) {
			sys := newSys(t)
			p := sys.NewProcess()
			ctx := p.NewContext(0)
			r, err := p.Open(ctx, "data", 1<<20)
			if err != nil {
				t.Fatal(err)
			}
			var word [8]byte
			put := func(v uint64) {
				binary.LittleEndian.PutUint64(word[:], v)
				ctx.WriteAt(r, off, word[:])
			}
			put(1)
			if _, err := ctx.Persist(r, MSSync); err != nil {
				t.Fatal(err)
			}

			wantLive := 1
			var ctx2 *Context
			var r2 *Region
			if shared {
				ctx2 = sys.NewProcess().NewContext(1)
				if r2, err = ctx2.proc.OpenShared(ctx2, r); err != nil {
					t.Fatal(err)
				}
				ctx2.ReadAt(r2, off, word[:])
				wantLive = 2
			}

			// Two rounds reach the steady size: the first COW has no free
			// frame to take, and in the shared case the frame it displaces
			// stays mapped, so the second has none either.
			var steady int
			for round := uint64(1); round <= rounds; round++ {
				put(2 * round)
				epoch, err := ctx.Persist(r, MSAsync)
				if err != nil {
					t.Fatal(err)
				}
				put(2*round + 1) // in-flight COW
				ctx.Wait(r, epoch)

				st := sys.Phys().Stats()
				if round <= 2 {
					steady = st.TotalFrames
				} else if st.TotalFrames != steady {
					t.Fatalf("round %d: physical memory grew to %d frames from %d", round, st.TotalFrames, steady)
				}
				if live := st.TotalFrames - st.FreeFrames; live != wantLive {
					t.Fatalf("round %d: %d live frames, want %d", round, live, wantLive)
				}
			}
			if got := p.as.Stats().COWFaults; got != rounds {
				t.Fatalf("COW faults = %d, want %d: the cycle did not exercise the in-flight path", got, rounds)
			}
			ctx.ReadAt(r, off, word[:])
			if got := binary.LittleEndian.Uint64(word[:]); got != 2*rounds+1 {
				t.Fatalf("contents = %d, want %d", got, 2*rounds+1)
			}
			if shared {
				ctx2.ReadAt(r2, off, word[:])
				if got := binary.LittleEndian.Uint64(word[:]); got != 2 {
					t.Fatalf("second process reads %d from the frame it still maps, want the 2 it held when displaced", got)
				}
			}
		})
	}
}
