package harness

import (
	"fmt"
	"time"

	"memsnap/internal/core"
	"memsnap/internal/disk"
	"memsnap/internal/objstore"
	"memsnap/internal/rockskv"
	"memsnap/internal/sim"
	"memsnap/internal/workload"
)

// AblationTLBThreshold sweeps the per-page-shootdown vs full-flush
// crossover that MemSnap's protection reset uses.
func AblationTLBThreshold(opts Options) (*Result, error) {
	opts = opts.fill()
	res := &Result{
		ID:     "ablation-tlb",
		Title:  "Ablation: TLB invalidation strategy after a uCheckpoint",
		Header: []string{"Dirty pages", "Per-page shootdown (us)", "Full flush (us)", "Chosen policy"},
		Notes:  []string{"the policy switches to a full flush above TLBFlushThreshold pages"},
	}
	costs := sim.DefaultCosts()
	for _, pages := range []int{1, 4, 8, 16, 32, 64, 256} {
		perPage := costs.TLBShootdownPerPage * time.Duration(pages)
		full := costs.TLBFullFlush
		policy := "shootdown"
		if pages >= costs.TLBFlushThreshold {
			policy = "full flush"
		}
		res.Rows = append(res.Rows, []string{
			fmt.Sprintf("%d", pages), us(perPage), us(full), policy,
		})
	}
	return res, nil
}

// AblationStoreBackend compares the COW radix store's commit against
// a naive backend that rewrites the entire object per checkpoint.
func AblationStoreBackend(opts Options) (*Result, error) {
	opts = opts.fill()
	costs := sim.DefaultCosts()
	res := &Result{
		ID:     "ablation-store",
		Title:  "Ablation: COW radix object store vs whole-object rewrite",
		Header: []string{"Object size", "Dirty", "COW commit (us)", "Full rewrite (us)"},
		Notes:  []string{"full rewrite models a store without block-level COW: every checkpoint writes the whole object"},
	}
	for _, objBytes := range []int{1 << 20, 16 << 20, 64 << 20} {
		arr := disk.NewArray(costs, 2, 512<<20)
		store, at, err := objstore.Format(costs, arr, 0)
		if err != nil {
			return nil, err
		}
		obj, at, err := store.CreateObject(at, "o", int64(objBytes))
		if err != nil {
			return nil, err
		}
		// Populate, then measure a 16 KiB dirty commit.
		blocks := objBytes / objstore.BlockSize
		var fill []objstore.BlockWrite
		for i := 0; i < blocks; i += 64 {
			fill = append(fill, objstore.BlockWrite{Index: int64(i), Data: make([]byte, objstore.BlockSize)})
		}
		_, at, _ = obj.Commit(at, fill)
		dirty := []objstore.BlockWrite{
			{Index: 0, Data: make([]byte, objstore.BlockSize)},
			{Index: 1, Data: make([]byte, objstore.BlockSize)},
			{Index: 2, Data: make([]byte, objstore.BlockSize)},
			{Index: 3, Data: make([]byte, objstore.BlockSize)},
		}
		_, done, err := obj.Commit(at, dirty)
		if err != nil {
			return nil, err
		}
		cowLat := done - at

		// Whole-object rewrite: one sequential write of the object
		// plus a commit record.
		arr2 := disk.NewArray(costs, 2, 512<<20)
		rwDone := arr2.Write(0, 0, make([]byte, objBytes))
		rwDone = arr2.Write(rwDone, int64(objBytes), make([]byte, 512))

		res.Rows = append(res.Rows, []string{
			fmtSize(objBytes), "16 KiB", us(cowLat), us(rwDone),
		})
	}
	return res, nil
}

// AblationSkipPointers measures the cost of persisting skip pointers
// versus rebuilding them at recovery (the paper's §7.2 optimization).
func AblationSkipPointers(opts Options) (*Result, error) {
	opts = opts.fill()
	n := opts.scaled(2000)
	res := &Result{
		ID:     "ablation-skip",
		Title:  "Ablation: persistent skip pointers vs rebuild-on-recovery",
		Header: []string{"Metric", "Volatile skip pointers (shipped)", "Persistent towers (modeled)"},
		Notes: []string{
			"persisting towers dirties every predecessor at each level (~1.33 extra pages/insert on average)",
			fmt.Sprintf("measured over %d inserts", n),
		},
	}

	sys, err := core.NewSystem(core.Options{DiskBytesEach: 2 << 30})
	if err != nil {
		return nil, err
	}
	proc := sys.NewProcess()
	ctx := proc.NewContext(0)
	db, err := rockskv.NewMemSnap(proc, ctx, "memtable", 512<<20)
	if err != nil {
		return nil, err
	}
	s := db.NewSession(0)
	start := s.Clock().Now()
	var persisted int64 = 0
	for i := 0; i < n; i++ {
		if err := s.Put(workload.Key16(int64(i*7919%n)), make([]byte, 100)); err != nil {
			return nil, err
		}
	}
	elapsed := s.Clock().Now() - start
	persisted = sys.Array().Stats().BytesWritten

	// Modeled persistent towers: expected extra dirty pages per
	// insert = sum over levels of p^level = 1/(1-1/4)-1 = 1/3 extra
	// predecessors, each its own page, plus tower updates in the new
	// node (already counted). Extra IO = extra pages * (4 KiB + tree
	// overhead); extra latency = extra per-page persist cost.
	extraPagesPerInsert := 1.0 / 3.0
	costs := sys.Costs()
	extraLatency := time.Duration(float64(n) * extraPagesPerInsert * float64(costs.IOCost(4096)) / 2)
	extraBytes := int64(float64(n) * extraPagesPerInsert * 4096 * 1.1)

	res.Rows = append(res.Rows, []string{"total insert time", fmt.Sprintf("%.2fms", elapsed.Seconds()*1000), fmt.Sprintf("%.2fms", (elapsed+extraLatency).Seconds()*1000)})
	res.Rows = append(res.Rows, []string{"disk bytes written", fmtSize(int(persisted)), fmtSize(int(persisted + extraBytes))})

	// Recovery cost of the shipped design (index rebuild).
	crashAt := s.Clock().Now()
	sys2, doneAt, err := core.Recover(core.Options{DiskBytesEach: 2 << 30}, sys.Array(), crashAt)
	if err != nil {
		return nil, err
	}
	proc2 := sys2.NewProcess()
	ctx2 := proc2.NewContext(0)
	ctx2.Clock().AdvanceTo(doneAt)
	recStart := ctx2.Clock().Now()
	if _, err := rockskv.NewMemSnap(proc2, ctx2, "memtable", 512<<20); err != nil {
		return nil, err
	}
	rebuild := ctx2.Clock().Now() - recStart
	res.Rows = append(res.Rows, []string{"recovery index rebuild", fmt.Sprintf("%.2fms", rebuild.Seconds()*1000), "0 (towers on disk)"})
	return res, nil
}

// AblationWriteAmp quantifies page-granularity write amplification
// versus value size (§5's limitation discussion).
func AblationWriteAmp(opts Options) (*Result, error) {
	opts = opts.fill()
	res := &Result{
		ID:     "ablation-writeamp",
		Title:  "Ablation: uCheckpoint write amplification vs value size",
		Header: []string{"Value size", "Dirty bytes", "Disk bytes", "Amplification"},
		Notes:  []string{"MemSnap flushes whole 4 KiB pages; small values pay proportionally more (§5)"},
	}
	for _, valSize := range []int{64, 256, 1024, 4096} {
		sys, err := core.NewSystem(core.Options{DiskBytesEach: 1 << 30})
		if err != nil {
			return nil, err
		}
		proc := sys.NewProcess()
		ctx := proc.NewContext(0)
		r, _ := proc.Open(ctx, "data", 64<<20)
		// Count only the persists: Open formats the object's ring.
		setup := sys.Array().Stats().BytesWritten
		const writes = 64
		for i := 0; i < writes; i++ {
			ctx.WriteAt(r, int64(i)*core.PageSize, make([]byte, valSize))
			ctx.Persist(r, core.MSSync)
		}
		disk := sys.Array().Stats().BytesWritten - setup
		logical := int64(writes * valSize)
		res.Rows = append(res.Rows, []string{
			fmt.Sprintf("%d B", valSize),
			fmtSize(int(logical)),
			fmtSize(int(disk)),
			fmt.Sprintf("%.1fx", float64(disk)/float64(logical)),
		})
	}
	return res, nil
}

// AblationTraceBuffer contrasts trace-buffer protection reset against
// the per-page walk as the dirty set grows (the design choice behind
// Figure 1, isolated).
func AblationTraceBuffer(opts Options) (*Result, error) {
	opts = opts.fill()
	costs := sim.DefaultCosts()
	res := &Result{
		ID:     "ablation-trace",
		Title:  "Ablation: trace-buffer reset vs per-page walk",
		Header: []string{"Dirty pages", "Trace buffer (us)", "Per-page walk (us)", "Walk / trace"},
	}
	for _, pages := range []int{1, 16, 256, 1024, 4096} {
		trace := costs.PTEWrite * time.Duration(pages)
		walk := (costs.PageWalk + costs.PTEWrite) * time.Duration(pages)
		res.Rows = append(res.Rows, []string{
			fmt.Sprintf("%d", pages), us(trace), us(walk),
			fmt.Sprintf("%.1fx", float64(walk)/float64(trace)),
		})
	}
	return res, nil
}
