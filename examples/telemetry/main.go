// telemetry: per-thread dirty sets and asynchronous uCheckpoints.
//
// Several collector threads append fixed-size telemetry records into
// disjoint slices of one region. Each thread persists only ITS OWN
// dirty pages — MemSnap tracks dirty sets per thread, so one
// collector's commit never drags along another's half-written batch
// (the isolation that fsync/msync fundamentally cannot provide, §2).
//
// Collectors use Async persists and overlap record generation with
// the previous batch's IO, calling Wait only at batch boundaries.
//
//	go run ./examples/telemetry
package main

import (
	"encoding/binary"
	"fmt"
	"log"
	"sync"

	"memsnap"
)

const (
	collectors    = 4
	batches       = 20
	recordsPerBat = 64
	recordSize    = 64
	laneBytes     = 1 << 20 // region slice per collector
)

func main() {
	store, err := memsnap.NewStore(memsnap.Config{})
	if err != nil {
		log.Fatal(err)
	}
	proc := store.NewProcess()
	setup := proc.NewContext(0)
	region, err := proc.Open(setup, "telemetry", collectors*laneBytes)
	if err != nil {
		log.Fatal(err)
	}

	var wg sync.WaitGroup
	type stats struct {
		batches int
		elapsed float64
		asyncUs float64
	}
	results := make([]stats, collectors)

	for c := 0; c < collectors; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			ctx := proc.NewContext(c)
			base := int64(c) * laneBytes
			rec := make([]byte, recordSize)
			start := ctx.Clock().Now()

			var lastEpoch memsnap.Epoch
			for b := 0; b < batches; b++ {
				for r := 0; r < recordsPerBat; r++ {
					binary.LittleEndian.PutUint64(rec, uint64(c))
					binary.LittleEndian.PutUint64(rec[8:], uint64(b*recordsPerBat+r))
					off := base + int64((b*recordsPerBat+r)*recordSize)
					ctx.WriteAt(region, off, rec)
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
				lastEpoch = epoch
			}
			ctx.Wait(region, lastEpoch)

			results[c] = stats{
				batches: batches,
				elapsed: (ctx.Clock().Now() - start).Seconds() * 1000,
				asyncUs: float64(ctx.PersistLatency.Snapshot().Mean().Microseconds()),
			}
		}(c)
	}
	wg.Wait()

	fmt.Printf("%d collectors x %d batches x %d records (%d B each), async uCheckpoints:\n\n",
		collectors, batches, recordsPerBat, recordSize)
	for c, st := range results {
		fmt.Printf("collector %d: %d batches in %6.2f ms virtual, mean persist call %5.1f us (async return)\n",
			c, st.batches, st.elapsed, st.asyncUs)
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
	fmt.Printf("\naudit: %d corrupt records out of %d\n", bad, collectors*batches*recordsPerBat)
	if bad > 0 {
		log.Fatal("per-thread isolation failed")
	}
}
