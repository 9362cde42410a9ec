package harness

import (
	"fmt"
	"time"

	"memsnap/internal/core"
	"memsnap/internal/disk"
	"memsnap/internal/fs"
	"memsnap/internal/litedb"
	"memsnap/internal/sim"
	"memsnap/internal/workload"
)

// dbbenchRun executes the §7.1 dbbench workload against a litedb
// instance and returns measurement hooks.
type dbbenchEnv struct {
	db    *litedb.DB
	clk   *sim.Clock
	fsys  *fs.FS        // WAL mode only
	ctx   *core.Context // MemSnap mode only
	sys   *core.System
	txLat *sim.LatencyRecorder
}

// newDBBenchEnv builds a database in the given mode.
func newDBBenchEnv(memsnapMode bool, buckets *sim.TimeBuckets) (*dbbenchEnv, error) {
	costs := sim.DefaultCosts()
	env := &dbbenchEnv{txLat: sim.NewLatencyRecorder()}
	if memsnapMode {
		sys, err := core.NewSystem(core.Options{DiskBytesEach: 1 << 30})
		if err != nil {
			return nil, err
		}
		proc := sys.NewProcess()
		ctx := proc.NewContext(0)
		if buckets != nil {
			ctx.Thread().Buckets = buckets
		}
		db, err := litedb.OpenMemSnap(proc, ctx, "dbbench", 512<<20)
		if err != nil {
			return nil, err
		}
		env.db, env.ctx, env.sys, env.clk = db, ctx, sys, ctx.Clock()
	} else {
		fsys := fs.New(costs, disk.NewArray(costs, 2, 4<<30), fs.FFS)
		fsys.Buckets = buckets
		clk := sim.NewClock()
		env.db, env.fsys, env.clk = litedb.CreateWAL(fsys, clk, "dbbench"), fsys, clk
	}
	tx := env.db.Begin()
	if err := tx.CreateTable("kv"); err != nil {
		tx.Rollback()
		return nil, err
	}
	tx.Commit()
	return env, nil
}

// runDBBench pushes totalWrites key-value writes through in
// txBytes-sized transactions.
func (env *dbbenchEnv) run(seed uint64, keys int64, txBytes, totalWrites int, random bool) error {
	gen := workload.NewDBBench(seed, keys, 128, txBytes, random)
	written := 0
	for written < totalWrites {
		start := env.clk.Now()
		tx := env.db.Begin()
		for _, kv := range gen.NextTx() {
			if err := tx.Put("kv", kv.Key, kv.Value); err != nil {
				tx.Rollback()
				return err
			}
			written++
		}
		tx.Commit()
		env.txLat.Record(env.clk.Now() - start)
	}
	return nil
}

// Table7 reproduces the persistence-syscall accounting of dbbench:
// msnap_persist vs fsync/write/read counts and latencies.
func Table7(opts Options) (*Result, error) {
	opts = opts.fill()
	totalWrites := opts.scaled(40000) // paper: 2M KV writes
	res := &Result{
		ID:     "table7",
		Title:  "Persistence-related system calls during dbbench",
		Header: []string{"Tx size", "Pattern", "memsnap lat", "memsnap ops", "fsync lat", "fsync ops", "write lat", "write ops", "read lat", "read ops"},
		Notes: []string{
			fmt.Sprintf("scaled: %d total 128 B writes per cell (paper: 2M); latencies in us", totalWrites),
			"memsnap makes only msnap_persist calls; the baseline adds WAL write/read traffic and checkpoint fsyncs",
		},
	}
	for _, random := range []bool{true, false} {
		pattern := "rand"
		if !random {
			pattern = "seq"
		}
		for _, txBytes := range []int{4 << 10, 64 << 10, 1 << 20} {
			// MemSnap run.
			envM, err := newDBBenchEnv(true, nil)
			if err != nil {
				return nil, err
			}
			if err := envM.run(opts.Seed, 1<<20, txBytes, totalWrites, random); err != nil {
				return nil, err
			}
			persistLat := envM.ctx.PersistLatency.Snapshot().Mean()
			persistOps := envM.ctx.Persists

			// Baseline run.
			envB, err := newDBBenchEnv(false, nil)
			if err != nil {
				return nil, err
			}
			if err := envB.run(opts.Seed, 1<<20, txBytes, totalWrites, random); err != nil {
				return nil, err
			}
			fsys := envB.fsys
			res.Rows = append(res.Rows, []string{
				fmtSize(txBytes), pattern,
				us(persistLat), countK(persistOps),
				us(fsys.FsyncStats.Latency.Mean()), countK(fsys.FsyncStats.Count()),
				us(fsys.WriteStats.Latency.Mean()), countK(fsys.WriteStats.Count()),
				us(fsys.ReadStats.Latency.Mean()), countK(fsys.ReadStats.Count()),
			})
		}
	}
	return res, nil
}

// Table8 reproduces the CPU usage and wall-clock comparison.
func Table8(opts Options) (*Result, error) {
	opts = opts.fill()
	totalWrites := opts.scaled(40000)
	res := &Result{
		ID:     "table8",
		Title:  "CPU usage and total dbbench execution time",
		Header: []string{"Pattern", "Config", "userspace", "persistence", "page faults", "wall (virtual)"},
		Notes: []string{
			fmt.Sprintf("scaled: %d writes, 64 KiB transactions", totalWrites),
			"persistence = fsync+write+read kernel time (baseline) or msnap_persist time (memsnap)",
		},
	}
	for _, random := range []bool{true, false} {
		pattern := "rand"
		if !random {
			pattern = "seq"
		}
		// Baseline.
		buckets := sim.NewTimeBuckets()
		envB, err := newDBBenchEnv(false, buckets)
		if err != nil {
			return nil, err
		}
		if err := envB.run(opts.Seed, 1<<20, 64<<10, totalWrites, random); err != nil {
			return nil, err
		}
		wallB := envB.clk.Now()
		kernelB := buckets.Total() + bucketIO(buckets)
		userB := wallB - kernelB
		if userB < 0 {
			userB = 0
		}
		res.Rows = append(res.Rows, []string{
			pattern, "baseline",
			pct(float64(userB) / float64(wallB)),
			pct(float64(kernelB) / float64(wallB)),
			"0.0%",
			fmt.Sprintf("%.2fms", wallB.Seconds()*1000),
		})

		// MemSnap.
		bucketsM := sim.NewTimeBuckets()
		envM, err := newDBBenchEnv(true, bucketsM)
		if err != nil {
			return nil, err
		}
		if err := envM.run(opts.Seed, 1<<20, 64<<10, totalWrites, random); err != nil {
			return nil, err
		}
		wallM := envM.clk.Now()
		persistM := envM.ctx.PersistLatency.Snapshot().Sum
		faultM := bucketsM.Get("page faults")
		userM := wallM - persistM - faultM
		if userM < 0 {
			userM = 0
		}
		res.Rows = append(res.Rows, []string{
			pattern, "memsnap",
			pct(float64(userM) / float64(wallM)),
			pct(float64(persistM) / float64(wallM)),
			pct(float64(faultM) / float64(wallM)),
			fmt.Sprintf("%.2fms", wallM.Seconds()*1000),
		})
	}
	return res, nil
}

// bucketIO returns the data-io bucket (already included in Total; this
// keeps the helper obvious at call sites that want kernel time only).
func bucketIO(*sim.TimeBuckets) time.Duration { return 0 }

// Figure4 reproduces average and p99 transaction latency by
// transaction size.
func Figure4(opts Options) (*Result, error) {
	opts = opts.fill()
	totalWrites := opts.scaled(20000)
	res := &Result{
		ID:     "fig4",
		Title:  "dbbench transaction latency: MemSnap vs WAL+checkpoint",
		Header: []string{"Tx size", "Pattern", "memsnap avg (us)", "memsnap p99", "baseline avg", "baseline p99"},
		Notes:  []string{fmt.Sprintf("scaled: %d writes per cell (paper: 2M)", totalWrites)},
	}
	for _, random := range []bool{true, false} {
		pattern := "rand"
		if !random {
			pattern = "seq"
		}
		for _, txBytes := range []int{4 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20} {
			envM, err := newDBBenchEnv(true, nil)
			if err != nil {
				return nil, err
			}
			if err := envM.run(opts.Seed, 1<<20, txBytes, totalWrites, random); err != nil {
				return nil, err
			}
			sm := envM.txLat.Summarize()

			envB, err := newDBBenchEnv(false, nil)
			if err != nil {
				return nil, err
			}
			if err := envB.run(opts.Seed, 1<<20, txBytes, totalWrites, random); err != nil {
				return nil, err
			}
			sb := envB.txLat.Summarize()

			res.Rows = append(res.Rows, []string{
				fmtSize(txBytes), pattern,
				usK(sm.Mean), usK(sm.P99), usK(sb.Mean), usK(sb.P99),
			})
		}
	}
	return res, nil
}

// Figure5 reproduces TATP throughput versus database size.
func Figure5(opts Options) (*Result, error) {
	opts = opts.fill()
	txCount := opts.scaled(8000)
	res := &Result{
		ID:     "fig5",
		Title:  "TATP throughput vs database size",
		Header: []string{"Subscribers", "baseline tx/s", "memsnap tx/s", "memsnap speedup"},
		Notes: []string{
			fmt.Sprintf("scaled: %d transactions per point, 60 s in the paper; sizes scaled from 1K-1M", txCount),
			"throughput in transactions per simulated second",
		},
	}
	// Below scale 1 the largest size shrinks onto (or under) 10000; a
	// point no larger than its predecessor would repeat a row.
	sizes := []int64{1000, 10000}
	if big := int64(opts.scaled(100000)); big > 10000 {
		sizes = append(sizes, big)
	}
	for _, subs := range sizes {
		run := func(memsnapMode bool) (float64, error) {
			env, err := newDBBenchEnv(memsnapMode, nil)
			if err != nil {
				return 0, err
			}
			d, err := newTATPDriver(env.db, subs)
			if err != nil {
				return 0, err
			}
			gen := workload.NewTATP(opts.Seed, subs)
			start := env.clk.Now()
			for i := 0; i < txCount; i++ {
				if _, err := d.run(gen.Next()); err != nil {
					return 0, err
				}
			}
			elapsed := env.clk.Now() - start
			return float64(txCount) / elapsed.Seconds(), nil
		}
		base, err := run(false)
		if err != nil {
			return nil, err
		}
		ms, err := run(true)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, []string{
			fmt.Sprintf("%d", subs),
			fmt.Sprintf("%.0f", base),
			fmt.Sprintf("%.0f", ms),
			fmt.Sprintf("%.2fx", ms/base),
		})
	}
	return res, nil
}
