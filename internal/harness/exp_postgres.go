package harness

import (
	"fmt"
	"sync"
	"time"

	"memsnap/internal/core"
	"memsnap/internal/disk"
	"memsnap/internal/fs"
	"memsnap/internal/pgdb"
	"memsnap/internal/sim"
	"memsnap/internal/workload"
)

// Figure6 reproduces the PostgreSQL TPC-C comparison across the four
// storage variants: transactions per second, disk write throughput,
// and IOs per second.
func Figure6(opts Options) (*Result, error) {
	opts = opts.fill()
	warehouses := int64(4)
	backends := opts.Threads
	txPerBackend := opts.scaled(400)

	res := &Result{
		ID:     "fig6",
		Title:  "PostgreSQL TPC-C across storage variants",
		Header: []string{"Variant", "tx/s", "disk MB/s", "KB/tx", "IO/s", "rel. tx/s"},
		Notes: []string{
			fmt.Sprintf("scaled: %d warehouses, %d backends x %d transactions (paper: 150 warehouses, 24 connections, 2 min)", warehouses, backends, txPerBackend),
			"paper Figure 6: mmap -15-25% vs baseline; memsnap ~+1.5% tx/s with ~80% less disk write throughput",
		},
	}

	var baselineTPS float64
	for _, variant := range []pgdb.Variant{pgdb.VarFFS, pgdb.VarMmap, pgdb.VarMmapBufDirect, pgdb.VarMemSnap} {
		tps, mbps, iops, err := runTPCC(variant, opts, warehouses, backends, txPerBackend)
		if err != nil {
			return nil, err
		}
		if variant == pgdb.VarFFS {
			baselineTPS = tps
		}
		res.Rows = append(res.Rows, []string{
			variant.String(),
			fmt.Sprintf("%.0f", tps),
			fmt.Sprintf("%.1f", mbps),
			fmt.Sprintf("%.1f", mbps*1024/tps),
			fmt.Sprintf("%.0f", iops),
			fmt.Sprintf("%.2fx", tps/baselineTPS),
		})
	}
	return res, nil
}

// runTPCC executes the workload on one variant and reports
// throughput plus disk statistics per simulated second.
func runTPCC(variant pgdb.Variant, opts Options, warehouses int64, backends, txPerBackend int) (tps, mbps, iops float64, err error) {
	costs := sim.DefaultCosts()
	// The paper's 30 GiB database checkpoints every few seconds under
	// TPC-C; scale the WAL checkpoint interval with the database so
	// full-page-write and checkpoint traffic keep their real ratios.
	cfg := pgdb.Config{Variant: variant, Costs: costs, RegionBytes: 128 << 20, CheckpointWAL: 1 << 20}
	var arr *disk.Array
	if variant == pgdb.VarMemSnap {
		sys, err := core.NewSystem(core.Options{DiskBytesEach: 2 << 30})
		if err != nil {
			return 0, 0, 0, err
		}
		cfg.Sys = sys
		arr = sys.Array()
	} else {
		arr = disk.NewArray(costs, 2, 4<<30)
		cfg.Fsys = fs.New(costs, arr, fs.FFS)
	}
	c, err := pgdb.NewCluster(cfg)
	if err != nil {
		return 0, 0, 0, err
	}
	loader, err := c.NewBackend(0)
	if err != nil {
		return 0, 0, 0, err
	}
	d, err := pgdb.NewTPCC(c, loader, warehouses)
	_ = d
	if err != nil {
		return 0, 0, 0, err
	}
	loadEnd := loader.Clock().Now()
	statsBefore := arr.Stats()

	var wg sync.WaitGroup
	errCh := make(chan error, backends)
	clocks := make([]*sim.Clock, backends)
	for i := 0; i < backends; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			b, err := c.NewBackend(i + 1)
			if err != nil {
				errCh <- err
				return
			}
			b.Clock().AdvanceTo(loadEnd)
			clocks[i] = b.Clock()
			gen := workload.NewTPCC(opts.Seed+uint64(i), warehouses)
			for t := 0; t < txPerBackend; t++ {
				if err := d.Run(b, gen.Next()); err != nil {
					errCh <- err
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		return 0, 0, 0, err
	}

	var end time.Duration
	for _, clk := range clocks {
		if clk != nil && clk.Now() > end {
			end = clk.Now()
		}
	}
	elapsed := (end - loadEnd).Seconds()
	statsAfter := arr.Stats()
	totalTx := float64(backends * txPerBackend)
	tps = totalTx / elapsed
	mbps = float64(statsAfter.BytesWritten-statsBefore.BytesWritten) / elapsed / (1 << 20)
	iops = float64(statsAfter.Writes-statsBefore.Writes) / elapsed
	return tps, mbps, iops, nil
}
