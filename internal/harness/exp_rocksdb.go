package harness

import (
	"fmt"
	"sync"
	"time"

	"memsnap/internal/aurora"
	"memsnap/internal/core"
	"memsnap/internal/disk"
	"memsnap/internal/fs"
	"memsnap/internal/obs"
	"memsnap/internal/rockskv"
	"memsnap/internal/sim"
	"memsnap/internal/workload"
)

// mixGraphRun drives the MixGraph workload against a rockskv store
// with the given number of worker threads and returns per-op latency
// plus the final virtual time (max across workers).
func mixGraphRun(db *rockskv.DB, threads, opsPerThread int, keys int64, seed uint64, fill int) (obs.HistSnapshot, time.Duration, error) {
	// Fill phase (single worker; not measured).
	filler := db.NewSession(0)
	fillGen := workload.NewMixGraph(seed, keys)
	for i := 0; i < fill; i++ {
		req := fillGen.Next()
		if err := filler.Put(req.Key, make([]byte, 100)); err != nil {
			return obs.HistSnapshot{}, 0, err
		}
	}
	fillEnd := filler.Clock().Now()

	var lat obs.Histogram
	var wg sync.WaitGroup
	errs := make(chan error, threads)
	clocks := make([]*sim.Clock, threads)
	for th := 0; th < threads; th++ {
		wg.Add(1)
		go func(th int) {
			defer wg.Done()
			s := db.NewSession(th)
			s.Clock().AdvanceTo(fillEnd)
			clocks[th] = s.Clock()
			gen := workload.NewMixGraph(seed+uint64(th)+1, keys)
			for i := 0; i < opsPerThread; i++ {
				req := gen.Next()
				start := s.Clock().Now()
				switch req.Op {
				case workload.OpGet:
					s.Get(req.Key)
				case workload.OpPut:
					if err := s.Put(req.Key, req.Value); err != nil {
						errs <- err
						return
					}
				case workload.OpSeek:
					s.Seek(req.Key, req.ScanLen)
				}
				lat.Record(s.Clock().Now() - start)
			}
		}(th)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		return obs.HistSnapshot{}, 0, err
	}
	var end time.Duration
	for _, c := range clocks {
		if c != nil && c.Now() > end {
			end = c.Now()
		}
	}
	return lat.Snapshot(), end - fillEnd, nil
}

// Table9 reproduces the RocksDB three-way comparison under MixGraph.
func Table9(opts Options) (*Result, error) {
	opts = opts.fill()
	costs := sim.DefaultCosts()
	threads := opts.Threads
	opsPerThread := opts.scaled(2500)
	keys := int64(opts.scaled(20000)) // paper: 20M keys
	fill := opts.scaled(5000)

	res := &Result{
		ID:     "table9",
		Title:  "RocksDB MixGraph: throughput and latency by persistence design",
		Header: []string{"Configuration", "Kops/s", "Avg (us)", "99th (us)"},
		Notes: []string{
			fmt.Sprintf("scaled: %d keys, %d threads x %d ops (paper: 20M keys, 12 threads)", keys, threads, opsPerThread),
		},
	}

	configs := []struct {
		name string
		mk   func() (*rockskv.DB, error)
	}{
		{"memsnap", func() (*rockskv.DB, error) {
			sys, err := core.NewSystem(core.Options{DiskBytesEach: 2 << 30})
			if err != nil {
				return nil, err
			}
			proc := sys.NewProcess()
			ctx := proc.NewContext(0)
			return rockskv.NewMemSnap(proc, ctx, "memtable", 1<<30)
		}},
		{"baseline+WAL", func() (*rockskv.DB, error) {
			fsys := fs.New(costs, disk.NewArray(costs, 2, 4<<30), fs.FFS)
			return rockskv.NewWAL(fsys, sim.NewClock(), rockskv.Config{MemTableLimit: 4 << 20}), nil
		}},
		{"aurora", func() (*rockskv.DB, error) {
			arr := disk.NewArray(costs, 2, 4<<30)
			region := aurora.NewRegion(costs, arr, 0, 1<<30)
			return rockskv.NewAurora(region, rockskv.Config{}), nil
		}},
	}

	for _, cfg := range configs {
		db, err := cfg.mk()
		if err != nil {
			return nil, err
		}
		lat, elapsed, err := mixGraphRun(db, threads, opsPerThread, keys, opts.Seed, fill)
		if err != nil {
			return nil, err
		}
		kops := float64(lat.Count) / elapsed.Seconds() / 1000
		res.Rows = append(res.Rows, []string{
			cfg.name,
			fmt.Sprintf("%.1f", kops),
			us(lat.Mean()),
			us(lat.P99()),
		})
	}
	return res, nil
}

// Table1 reproduces the baseline RocksDB CPU breakdown under
// MixGraph: most CPU goes to persistence, not the in-memory
// transaction.
func Table1(opts Options) (*Result, error) {
	opts = opts.fill()
	costs := sim.DefaultCosts()
	ops := opts.scaled(20000)
	keys := int64(opts.scaled(20000))

	fsys := fs.New(costs, disk.NewArray(costs, 2, 4<<30), fs.FFS)
	kernel := sim.NewTimeBuckets()
	fsys.Buckets = kernel
	db := rockskv.NewWAL(fsys, sim.NewClock(), rockskv.Config{MemTableLimit: 4 << 20})
	user := sim.NewTimeBuckets()
	db.Buckets = user

	s := db.NewSession(0)
	gen := workload.NewMixGraph(opts.Seed, keys)
	for i := 0; i < ops; i++ {
		req := gen.Next()
		switch req.Op {
		case workload.OpGet:
			s.Get(req.Key)
		case workload.OpPut:
			if err := s.Put(req.Key, req.Value); err != nil {
				return nil, err
			}
		case workload.OpSeek:
			s.Seek(req.Key, req.ScanLen)
		}
	}
	total := s.Clock().Now()

	frac := func(d time.Duration) string { return pct(float64(d) / float64(total)) }
	// Kernel buckets and device IO are first-class; the remaining
	// userspace time is everything not charged to a specific bucket.
	// The "log" and "io generation" user buckets wrap kernel calls,
	// so they are reported inclusively in the notes instead of as
	// disjoint rows.
	kernelCPU := kernel.Get("syscall") + kernel.Get("vfs") + kernel.Get("buffer cache") + kernel.Get("file system")
	ioWait := kernel.Get("data io")
	txMem := user.Get("tx memory")
	ser := user.Get("serialization")
	other := total - txMem - ser - kernelCPU - ioWait
	if other < 0 {
		other = 0
	}

	res := &Result{
		ID:     "table1",
		Title:  "Baseline RocksDB execution-time breakdown (MixGraph)",
		Header: []string{"Task", "% Time"},
		Rows: [][]string{
			{"Userspace: Tx Memory", frac(txMem)},
			{"Userspace: Serialization", frac(ser)},
			{"Userspace: Other (log mgmt, LSM)", frac(other)},
			{"Kernel: Syscall", frac(kernel.Get("syscall"))},
			{"Kernel: VFS", frac(kernel.Get("vfs"))},
			{"Kernel: Buffer Cache", frac(kernel.Get("buffer cache"))},
			{"Kernel: File System", frac(kernel.Get("file system"))},
			{"Device IO wait", frac(ioWait)},
		},
		Notes: []string{
			fmt.Sprintf("scaled: %d MixGraph ops over %d keys", ops, keys),
			fmt.Sprintf("WAL logging path (incl. kernel+IO): %s; SSTable flush/compaction: %s",
				pct(float64(user.Get("log"))/float64(total)),
				pct(float64(user.Get("io generation"))/float64(total))),
			"paper Table 1: only 18.3% of time is the in-memory transaction; the rest is persistence",
		},
	}
	return res, nil
}
