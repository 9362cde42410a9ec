package harness

import (
	"fmt"
	"time"

	"memsnap/internal/aurora"
	"memsnap/internal/core"
	"memsnap/internal/disk"
	"memsnap/internal/fs"
	"memsnap/internal/sim"
	"memsnap/internal/vm"
)

// ioSizes are the write sizes of Table 6 / Figures 1 and 3.
var ioSizes = []int{
	4 << 10, 8 << 10, 16 << 10, 32 << 10, 64 << 10,
	128 << 10, 256 << 10, 512 << 10, 1 << 20, 2 << 20, 4 << 20,
}

// Table2 reproduces the Aurora region-checkpoint breakdown: a 64 KiB
// dirty set in a ~1 GiB region, most latency in shadow management.
func Table2(opts Options) (*Result, error) {
	opts = opts.fill()
	costs := sim.DefaultCosts()
	arr := disk.NewArray(costs, 2, 2<<30)
	region := aurora.NewRegion(costs, arr, 0, 1<<30)
	clk := sim.NewClock()
	region.Write(clk, 0, make([]byte, 64<<10))
	b := region.Checkpoint(clk)
	return &Result{
		ID:     "table2",
		Title:  "Latency breakdown for synchronous Aurora region checkpointing (64 KiB dirty)",
		Header: []string{"Operation", "Aurora (us)"},
		Rows: [][]string{
			{"Waiting for Calls", us(b.WaitingForCalls)},
			{"Applying COW", us(b.ApplyingCOW)},
			{"Flush IO", us(b.FlushIO)},
			{"Removing COW", us(b.RemovingCOW)},
			{"Total", us(b.Total)},
		},
		Notes: []string{"paper: 26.7 / 79.8 / 27.9 / 91.7 / 208.1 us (Table 2)"},
	}, nil
}

// Figure1 compares the three protection-reset strategies over dirty
// sets from one page to 4 MiB inside a 1 GiB mapping.
func Figure1(opts Options) (*Result, error) {
	opts = opts.fill()
	costs := sim.DefaultCosts()
	res := &Result{
		ID:     "fig1",
		Title:  "Cost of re-applying read protection (1 GiB mapping)",
		Header: []string{"Dirty set", "Full scan (us)", "Per-page walk (us)", "Trace buffer (us)"},
		Notes:  []string{"paper Figure 1: trace buffer is flat and near zero; scan dominated by mapping size"},
	}
	for _, size := range []int{4 << 10, 64 << 10, 512 << 10, 4 << 20} {
		pages := size / vm.PageSize
		mk := func() (*vm.AddressSpace, *vm.Mapping, *vm.Thread, []vm.DirtyRecord) {
			as := vm.NewAddressSpace(costs, nil, nil)
			m := &vm.Mapping{Name: "m", Start: 0x10000000, Pages: 1 << 18, Tracked: true}
			if err := as.Map(m); err != nil {
				panic(err)
			}
			th := as.NewThread(nil, 0)
			rng := sim.NewRNG(opts.Seed)
			for i := 0; i < pages; i++ {
				vpn := uint64(rng.Int63n(1 << 18))
				th.Write(0x10000000+vpn*vm.PageSize, []byte{1})
			}
			return as, m, th, th.TakeDirty(nil)
		}

		as, m, _, _ := mk()
		scanClk := sim.NewClock()
		as.ResetProtectionsScan(scanClk, m)

		as, _, _, recs := mk()
		walkClk := sim.NewClock()
		as.ResetProtectionsWalk(walkClk, recs)

		as, _, _, recs = mk()
		traceClk := sim.NewClock()
		as.ResetProtectionsTrace(traceClk, recs)

		res.Rows = append(res.Rows, []string{
			fmtSize(size), us(scanClk.Now()), us(walkClk.Now()), us(traceClk.Now()),
		})
	}
	return res, nil
}

// table5Persists is how many 64 KiB persists Table 5 averages: two
// stripe phases (a persist allocates 64 KiB, half the 2 × 64 KiB stripe
// cycle) times the 127 commits of a log cycle (126 one-sector deltas of
// 16 entries fill the object's log, the 127th flushes), so the mean
// covers every phase of both.
const table5Persists = 2 * 127

// Table5 reproduces the msnap_persist breakdown for a 64 KiB dirty
// set. One persist's IO wait depends on where the allocator left the
// stripe and on whether the commit flushes the record's leaf entries,
// so each cell is the mean of table5Persists persists, each of the
// next 64 KiB of the region, with their min and max.
func Table5(opts Options) (*Result, error) {
	opts = opts.fill()
	sys, err := core.NewSystem(core.Options{})
	if err != nil {
		return nil, err
	}
	proc := sys.NewProcess()
	ctx := proc.NewContext(0)
	r, err := proc.Open(ctx, "data", 64<<20)
	if err != nil {
		return nil, err
	}
	// Warm the region so the measured persists have no page-in costs;
	// this persist is larger than the whole log, so it flushes and the
	// first measured one starts a cycle.
	ctx.WriteAt(r, 0, make([]byte, 64<<20))
	ctx.Persist(r, core.MSSync)
	var phases [4][]time.Duration
	for i := 0; i < table5Persists; i++ {
		ctx.WriteAt(r, int64(i)*64<<10, make([]byte, 64<<10))
		if _, err := ctx.Persist(r, core.MSSync); err != nil {
			return nil, err
		}
		b := ctx.LastBreakdown
		for j, d := range []time.Duration{b.ResetTracking, b.InitiateWrites, b.WaitIO, b.Total} {
			phases[j] = append(phases[j], d)
		}
	}
	res := &Result{
		ID:     "table5",
		Title:  "Breakdown of an msnap_persist call (64 KiB dirty)",
		Header: []string{"Operation", "Overhead (us)", "Min (us)", "Max (us)"},
		Notes: []string{
			"paper: 5.1 / 6.5 / 39.7 / 51.4 us (Table 5)",
			fmt.Sprintf("mean of %d persists of successive 64 KiB: both stripe phases, two log flushes", table5Persists),
		},
	}
	for j, name := range []string{"Resetting Tracking", "Initiating Writes", "Waiting on IO", "Total"} {
		mean, lo, hi := meanMinMax(phases[j])
		res.Rows = append(res.Rows, []string{name, us(mean), us(lo), us(hi)})
	}
	return res, nil
}

// Table6 reproduces the persistence-API latency comparison.
func Table6(opts Options) (*Result, error) {
	opts = opts.fill()
	costs := sim.DefaultCosts()

	res := &Result{
		ID:    "table6",
		Title: "Latency of persistence APIs by write size",
		Header: []string{"Size", "Disk (us)", "ffs seq", "zfs seq", "ffs rand",
			"zfs rand", "memsnap sync", "memsnap async"},
		Notes: []string{
			"disk = one direct QD1 write (N/A beyond 64 KiB, as in the paper)",
			"fsync columns flush the given amount of dirty file data",
			"memsnap columns persist a random page-granularity dirty set",
		},
	}

	fsyncLat := func(kind fs.Kind, bytes int, random bool) time.Duration {
		arr := disk.NewArray(costs, 2, 2<<30)
		fsys := fs.New(costs, arr, kind)
		clk := sim.NewClock()
		blocks := bytes / fs.BlockSize
		var file *fs.File
		if random {
			file = fsys.Create(clk, "db")
			// Preload an established 64 MiB file.
			chunk := make([]byte, 256<<10)
			for off := int64(0); off < 64<<20; off += int64(len(chunk)) {
				file.Write(clk, off, chunk)
			}
			file.Fsync(clk)
			rng := sim.NewRNG(opts.Seed)
			blockBuf := make([]byte, fs.BlockSize)
			for i := 0; i < blocks; i++ {
				file.Write(clk, rng.Int63n(16384)*fs.BlockSize, blockBuf)
			}
		} else {
			file = fsys.Create(clk, "log")
			blockBuf := make([]byte, fs.BlockSize)
			for i := 0; i < blocks; i++ {
				file.Write(clk, int64(i)*fs.BlockSize, blockBuf)
			}
		}
		start := clk.Now()
		file.Fsync(clk)
		return clk.Now() - start
	}

	memsnapLat := func(bytes int, async bool) time.Duration {
		sys, _ := core.NewSystem(core.Options{DiskBytesEach: 512 << 20})
		proc := sys.NewProcess()
		ctx := proc.NewContext(0)
		r, _ := proc.Open(ctx, "data", 128<<20)
		// Warm all pages we will touch.
		rng := sim.NewRNG(opts.Seed)
		pages := bytes / core.PageSize
		offs := make([]int64, pages)
		for i := range offs {
			offs[i] = rng.Int63n(16384) * core.PageSize
		}
		for _, off := range offs {
			ctx.WriteAt(r, off, []byte{1})
		}
		ctx.Persist(r, core.MSSync)
		for _, off := range offs {
			ctx.WriteAt(r, off, []byte{2})
		}
		start := ctx.Clock().Now()
		flags := core.MSSync
		if async {
			flags = core.MSAsync
		}
		ctx.Persist(r, flags)
		lat := ctx.Clock().Now() - start
		if async {
			ctx.Wait(r, 0)
		}
		return lat
	}

	for _, size := range ioSizes {
		row := []string{fmtSize(size)}
		if size <= 64<<10 {
			row = append(row, usK(costs.IOCost(size)))
		} else {
			row = append(row, "N/A")
		}
		row = append(row,
			usK(fsyncLat(fs.FFS, size, false)),
			usK(fsyncLat(fs.CoWFS, size, false)),
			usK(fsyncLat(fs.FFS, size, true)),
			usK(fsyncLat(fs.CoWFS, size, true)),
			usK(memsnapLat(size, false)),
			usK(memsnapLat(size, true)),
		)
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Figure3 compares MemSnap against Aurora's region and application
// checkpointing across dirty-set sizes.
func Figure3(opts Options) (*Result, error) {
	opts = opts.fill()
	costs := sim.DefaultCosts()
	res := &Result{
		ID:     "fig3",
		Title:  "Synchronous persistence latency: MemSnap vs Aurora (random dirty sets)",
		Header: []string{"Dirty set", "memsnap (us)", "aurora region (us)", "aurora app (us)"},
		Notes:  []string{"paper Figure 3: memsnap ~7x faster than region, ~60x faster than app checkpoints for small IOs"},
	}

	for _, size := range []int{4 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20, 4 << 20} {
		// MemSnap.
		sys, _ := core.NewSystem(core.Options{DiskBytesEach: 512 << 20})
		proc := sys.NewProcess()
		ctx := proc.NewContext(0)
		r, _ := proc.Open(ctx, "data", 128<<20)
		rng := sim.NewRNG(opts.Seed)
		pages := size / core.PageSize
		offs := make([]int64, pages)
		for i := range offs {
			offs[i] = rng.Int63n(16384) * core.PageSize
		}
		for _, off := range offs {
			ctx.WriteAt(r, off, []byte{1})
		}
		ctx.Persist(r, core.MSSync)
		for _, off := range offs {
			ctx.WriteAt(r, off, []byte{2})
		}
		start := ctx.Clock().Now()
		ctx.Persist(r, core.MSSync)
		msLat := ctx.Clock().Now() - start

		// Aurora region (1 GiB mapping, like the RocksDB case).
		arr := disk.NewArray(costs, 2, 2<<30)
		region := aurora.NewRegion(costs, arr, 0, 1<<30)
		clk := sim.NewClock()
		rng = sim.NewRNG(opts.Seed)
		for i := 0; i < pages; i++ {
			region.Write(clk, rng.Int63n(16384)*4096, make([]byte, 4096))
		}
		regLat := region.Checkpoint(clk).Total

		// Aurora application checkpoint (region + 2 GiB of app state).
		arr2 := disk.NewArray(costs, 2, 4<<30)
		region2 := aurora.NewRegion(costs, arr2, 0, 1<<30)
		app := aurora.NewApp(costs, []*aurora.Region{region2}, 2<<30)
		clk2 := sim.NewClock()
		rng = sim.NewRNG(opts.Seed)
		for i := 0; i < pages; i++ {
			region2.Write(clk2, rng.Int63n(16384)*4096, make([]byte, 4096))
		}
		appLat := app.Checkpoint(clk2).Total

		res.Rows = append(res.Rows, []string{
			fmtSize(size), us(msLat), us(regLat), us(appLat),
		})
	}
	return res, nil
}

// Table10 contrasts the MemSnap and Aurora persistence breakdowns for
// a 64 KiB operation side by side.
func Table10(opts Options) (*Result, error) {
	t5, err := Table5(opts)
	if err != nil {
		return nil, err
	}
	t2, err := Table2(opts)
	if err != nil {
		return nil, err
	}
	// t5 rows: reset/initiate/waitIO/total; t2 rows: waiting/cow/io/collapse/total.
	return &Result{
		ID:     "table10",
		Title:  "Breakdown of MemSnap vs Aurora persistence cost (64 KiB)",
		Header: []string{"Operation", "MemSnap (us)", "Aurora (us)"},
		Rows: [][]string{
			{"Waiting for Calls", "N/A", t2.Rows[0][1]},
			{"Applying COW", t5.Rows[0][1], t2.Rows[1][1]},
			{"Flush IO", sumUS(t5.Rows[1][1], t5.Rows[2][1]), t2.Rows[2][1]},
			{"Removing COW", "N/A", t2.Rows[3][1]},
			{"Total", t5.Rows[3][1], t2.Rows[4][1]},
		},
		Notes: []string{"paper Table 10: 5.1/46.3/51.4 vs 26.7/79.8/27.9/91.7/208.1 us"},
	}, nil
}

// sumUS adds two "N.N" microsecond strings.
func sumUS(a, b string) string {
	var x, y float64
	fmt.Sscanf(a, "%f", &x)
	fmt.Sscanf(b, "%f", &y)
	return fmt.Sprintf("%.1f", x+y)
}

// fmtSize renders byte sizes like the paper ("4 KiB", "1 MiB").
func fmtSize(n int) string {
	if n >= 1<<20 {
		return fmt.Sprintf("%d MiB", n>>20)
	}
	return fmt.Sprintf("%d KiB", n>>10)
}
