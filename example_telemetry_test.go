package memsnap_test

import (
	"encoding/binary"
	"fmt"
	"log"
	"sync"

	"memsnap"
)

// Example_telemetry shows per-thread dirty sets and asynchronous
// uCheckpoints. Several collector threads append fixed-size records
// into disjoint lanes of one region. Each thread persists only its own
// dirty pages — MemSnap tracks dirty sets per thread, so one
// collector's commit never drags along another's half-written batch
// (the isolation that fsync/msync cannot provide, §2). A batch of
// records fills exactly one page, so each collector persists one page
// per batch.
//
// Collectors use Async persists and overlap record generation with
// the previous batch's IO, calling Wait one batch behind. The
// collectors share one disk queue, so their virtual elapsed times
// depend on goroutine timing; the example prints only what does not.
func Example_telemetry() {
	const (
		collectors    = 4
		batches       = 20
		recordsPerBat = 64
		recordSize    = 64
		laneBytes     = 1 << 20 // region slice per collector
	)
	store, err := memsnap.NewStore(memsnap.Config{})
	if err != nil {
		log.Fatal(err)
	}
	proc := store.NewProcess()
	region, err := proc.Open(proc.NewContext(0), "telemetry", collectors*laneBytes)
	if err != nil {
		log.Fatal(err)
	}

	pages := make([]int, collectors)
	var wg sync.WaitGroup
	for c := 0; c < collectors; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			ctx := proc.NewContext(c)
			base := int64(c) * laneBytes
			rec := make([]byte, recordSize)
			var lastEpoch memsnap.Epoch
			for b := 0; b < batches; b++ {
				for r := 0; r < recordsPerBat; r++ {
					binary.LittleEndian.PutUint64(rec, uint64(c))
					binary.LittleEndian.PutUint64(rec[8:], uint64(b*recordsPerBat+r))
					ctx.WriteAt(region, base+int64((b*recordsPerBat+r)*recordSize), rec)
				}
				// Initiate the IO and keep collecting; durability is
				// awaited one batch behind.
				if lastEpoch != 0 {
					ctx.Wait(region, lastEpoch)
				}
				epoch, err := ctx.Persist(region, memsnap.Async)
				if err != nil {
					log.Fatal(err)
				}
				pages[c] += ctx.LastBreakdown.Pages
				lastEpoch = epoch
			}
			ctx.Wait(region, lastEpoch)
		}(c)
	}
	wg.Wait()

	fmt.Printf("%d collectors x %d batches x %d records (%d B each), async uCheckpoints:\n",
		collectors, batches, recordsPerBat, recordSize)
	for c, n := range pages {
		fmt.Printf("collector %d: %d pages persisted\n", c, n)
	}

	// Audit: every record from every collector is durable.
	check := proc.NewContext(0)
	buf := make([]byte, 16)
	bad := 0
	for c := 0; c < collectors; c++ {
		for i := 0; i < batches*recordsPerBat; i++ {
			check.ReadAt(region, int64(c)*laneBytes+int64(i*recordSize), buf)
			if binary.LittleEndian.Uint64(buf) != uint64(c) ||
				binary.LittleEndian.Uint64(buf[8:]) != uint64(i) {
				bad++
			}
		}
	}
	fmt.Printf("audit: %d corrupt records out of %d\n", bad, collectors*batches*recordsPerBat)

	// Output:
	// 4 collectors x 20 batches x 64 records (64 B each), async uCheckpoints:
	// collector 0: 20 pages persisted
	// collector 1: 20 pages persisted
	// collector 2: 20 pages persisted
	// collector 3: 20 pages persisted
	// audit: 0 corrupt records out of 5120
}
