package memsnap_test

import (
	"fmt"
	"log"

	"memsnap"
	"memsnap/internal/sim"
)

// Example_quickstart is the MemSnap programming model in one function:
// open a persistent region, mutate it in place, call Persist — no
// files, no WAL, no serialization. Then crash the machine and recover
// everything from the μCheckpoints.
func Example_quickstart() {
	// A Store is a simulated machine: memory, TLBs and a two-SSD
	// array with a COW object store.
	store, err := memsnap.NewStore(memsnap.Config{})
	if err != nil {
		log.Fatal(err)
	}

	proc := store.NewProcess()
	ctx := proc.NewContext(0) // one application thread

	// Regions map at the same virtual address on every open, so
	// in-region pointers survive reboots.
	region, err := proc.Open(ctx, "guestbook", 1<<20)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("region %q mapped at %#x (%d KiB)\n", region.Name(), region.Addr(), region.Len()>>10)

	// Mutate memory in place...
	ctx.WriteAt(region, 0, []byte("hello, fearless persistence"))
	ctx.WriteAt(region, 64<<10, []byte("page-granular dirty tracking"))

	// ...and persist the dirty set as one atomic uCheckpoint.
	epoch, err := ctx.Persist(region, memsnap.Sync)
	if err != nil {
		log.Fatal(err)
	}
	b := ctx.LastBreakdown
	fmt.Printf("persisted epoch %d: %d pages in %v (reset %v, IO %v)\n",
		epoch, b.Pages, b.Total, b.ResetTracking, b.WaitIO)

	// Unpersisted writes exist only in memory...
	ctx.WriteAt(region, 0, []byte("THIS WRITE WILL BE LOST..."))

	// ...because now the machine loses power.
	crashTime := ctx.Clock().Now()
	store.Array().CutPower(crashTime, sim.NewRNG(42))
	fmt.Printf("power cut at %v\n", crashTime)

	// Reboot: recover the store from the same disks.
	store2, at, err := memsnap.RecoverStore(memsnap.Config{}, store.Array(), crashTime)
	if err != nil {
		log.Fatal(err)
	}
	proc2 := store2.NewProcess()
	ctx2 := proc2.NewContext(0)
	ctx2.Clock().AdvanceTo(at)

	region2, err := proc2.Open(ctx2, "guestbook", 1<<20)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("region remapped at the same address: %v\n", region2.Addr() == region.Addr())

	buf := make([]byte, 28)
	ctx2.ReadAt(region2, 0, buf)
	fmt.Printf("recovered offset 0:   %q\n", buf)
	ctx2.ReadAt(region2, 64<<10, buf)
	fmt.Printf("recovered offset 64K: %q\n", buf)
	fmt.Printf("recovered epoch:      %d\n", region2.Epoch())

	// Output:
	// region "guestbook" mapped at 0x700000000000 (1024 KiB)
	// persisted epoch 1: 2 pages in 43.136µs (reset 560ns, IO 34.916µs)
	// power cut at 114.532µs
	// region remapped at the same address: true
	// recovered offset 0:   "hello, fearless persistence\x00"
	// recovered offset 64K: "page-granular dirty tracking"
	// recovered epoch:      1
}
