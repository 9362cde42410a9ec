package memsnap_test

// Benchmark harness: one testing.B benchmark per paper table/figure.
// Each benchmark drives the corresponding harness experiment at a
// small scale and reports headline values as custom metrics
// (simulated microseconds / operations per simulated second), so
// `go test -bench=. -benchmem` regenerates the paper's evaluation in
// summary form. For full tables run `go run ./cmd/memsnap-bench all`.

import (
	"bytes"
	"strconv"
	"strings"
	"testing"

	"memsnap"
	"memsnap/internal/harness"
	"memsnap/internal/sim"
)

// benchOpts keeps bench runs short; b.N loops re-run the experiment.
func benchOpts() harness.Options { return harness.Options{Scale: 0.05, Threads: 2, Seed: 1} }

// reportCell parses a numeric table cell (possibly with K suffix) as
// a custom metric.
func reportCell(b *testing.B, res *harness.Result, row, col int, name string) {
	b.Helper()
	cell := res.Rows[row][col]
	mult := 1.0
	s := strings.TrimSuffix(cell, "K")
	if s != cell {
		mult = 1000
	}
	s = strings.TrimSuffix(s, "x")
	s = strings.TrimSuffix(s, "%")
	s = strings.TrimSuffix(s, "ms")
	v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
	if err != nil {
		b.Fatalf("cell %q: %v", cell, err)
	}
	b.ReportMetric(v*mult, name)
}

func runExperiment(b *testing.B, id string) *harness.Result {
	b.Helper()
	e, ok := harness.Find(id)
	if !ok {
		b.Fatalf("experiment %s not registered", id)
	}
	var res *harness.Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = e.Run(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
	}
	return res
}

// BenchmarkTable1_RocksDBCPUBreakdown regenerates Table 1.
func BenchmarkTable1_RocksDBCPUBreakdown(b *testing.B) {
	res := runExperiment(b, "table1")
	reportCell(b, res, 0, 1, "txmem_pct")
}

// BenchmarkTable2_AuroraBreakdown regenerates Table 2.
func BenchmarkTable2_AuroraBreakdown(b *testing.B) {
	res := runExperiment(b, "table2")
	reportCell(b, res, 4, 1, "total_us")
	reportCell(b, res, 1, 1, "shadow_us")
}

// BenchmarkFigure1_ProtectionReset regenerates Figure 1.
func BenchmarkFigure1_ProtectionReset(b *testing.B) {
	res := runExperiment(b, "fig1")
	reportCell(b, res, 0, 1, "scan4K_us")
	reportCell(b, res, 0, 3, "trace4K_us")
}

// BenchmarkTable5_PersistBreakdown regenerates Table 5.
func BenchmarkTable5_PersistBreakdown(b *testing.B) {
	res := runExperiment(b, "table5")
	reportCell(b, res, 3, 1, "total_us")
	reportCell(b, res, 0, 1, "reset_us")
}

// BenchmarkTable6_PersistenceAPIs regenerates Table 6.
func BenchmarkTable6_PersistenceAPIs(b *testing.B) {
	res := runExperiment(b, "table6")
	reportCell(b, res, 0, 6, "memsnap4K_sync_us")
	reportCell(b, res, 0, 4, "ffs4K_rand_us")
	reportCell(b, res, 4, 6, "memsnap64K_sync_us")
}

// BenchmarkFigure3_MemSnapVsAurora regenerates Figure 3.
func BenchmarkFigure3_MemSnapVsAurora(b *testing.B) {
	res := runExperiment(b, "fig3")
	reportCell(b, res, 0, 1, "memsnap4K_us")
	reportCell(b, res, 0, 2, "aurora_region4K_us")
	reportCell(b, res, 0, 3, "aurora_app4K_us")
}

// BenchmarkTable7_SQLiteSyscalls regenerates Table 7.
func BenchmarkTable7_SQLiteSyscalls(b *testing.B) {
	res := runExperiment(b, "table7")
	reportCell(b, res, 0, 2, "persist4Krand_us")
	reportCell(b, res, 0, 4, "fsync4Krand_us")
}

// BenchmarkTable8_SQLiteCPU regenerates Table 8.
func BenchmarkTable8_SQLiteCPU(b *testing.B) {
	res := runExperiment(b, "table8")
	reportCell(b, res, 0, 5, "baseline_rand_wall_ms")
	reportCell(b, res, 1, 5, "memsnap_rand_wall_ms")
}

// BenchmarkFigure4_SQLiteLatency regenerates Figure 4.
func BenchmarkFigure4_SQLiteLatency(b *testing.B) {
	res := runExperiment(b, "fig4")
	reportCell(b, res, 0, 2, "memsnap4Krand_avg_us")
	reportCell(b, res, 0, 4, "baseline4Krand_avg_us")
}

// BenchmarkFigure5_TATP regenerates Figure 5.
func BenchmarkFigure5_TATP(b *testing.B) {
	res := runExperiment(b, "fig5")
	reportCell(b, res, 0, 1, "baseline1K_tps")
	reportCell(b, res, 0, 2, "memsnap1K_tps")
}

// BenchmarkTable9_RocksDBThroughput regenerates Table 9.
func BenchmarkTable9_RocksDBThroughput(b *testing.B) {
	res := runExperiment(b, "table9")
	reportCell(b, res, 0, 1, "memsnap_kops")
	reportCell(b, res, 2, 1, "aurora_kops")
}

// BenchmarkTable10_PersistVsAurora regenerates Table 10.
func BenchmarkTable10_PersistVsAurora(b *testing.B) {
	res := runExperiment(b, "table10")
	reportCell(b, res, 4, 1, "memsnap_total_us")
	reportCell(b, res, 4, 2, "aurora_total_us")
}

// BenchmarkFigure6_PostgresTPCC regenerates Figure 6.
func BenchmarkFigure6_PostgresTPCC(b *testing.B) {
	res := runExperiment(b, "fig6")
	reportCell(b, res, 0, 1, "ffs_tps")
	reportCell(b, res, 3, 1, "memsnap_tps")
	reportCell(b, res, 3, 3, "memsnap_kb_per_tx")
}

// BenchmarkAblation_TLBFlushThreshold regenerates the TLB policy
// ablation (DESIGN.md §5).
func BenchmarkAblation_TLBFlushThreshold(b *testing.B) {
	res := runExperiment(b, "ablation-tlb")
	reportCell(b, res, 0, 1, "shootdown1_us")
}

// BenchmarkAblation_StoreBackend regenerates the store-backend
// ablation.
func BenchmarkAblation_StoreBackend(b *testing.B) {
	res := runExperiment(b, "ablation-store")
	reportCell(b, res, 0, 2, "cow_commit_us")
	reportCell(b, res, 0, 3, "rewrite_us")
}

// BenchmarkAblation_SkipPointers regenerates the skip-pointer
// ablation.
func BenchmarkAblation_SkipPointers(b *testing.B) {
	runExperiment(b, "ablation-skip")
}

// BenchmarkAblation_WriteAmp regenerates the write-amplification
// ablation.
func BenchmarkAblation_WriteAmp(b *testing.B) {
	runExperiment(b, "ablation-writeamp")
}

// BenchmarkAblation_GroupCommitBatch regenerates the shard service's
// group-commit batch ablation: 8-shard throughput with batch caps of
// 1, 16 and 64 (rows 3-5 of the shardsvc grid).
func BenchmarkAblation_GroupCommitBatch(b *testing.B) {
	res := runExperiment(b, "shardsvc")
	reportCell(b, res, 3, 2, "batch1_kops")
	reportCell(b, res, 4, 2, "batch16_kops")
	reportCell(b, res, 5, 2, "batch64_kops")
	reportCell(b, res, 5, 3, "batch64_occupancy")
}

// BenchmarkRawPersist4K measures the core uCheckpoint path directly
// (no experiment harness): one dirty page, synchronous persist.
func BenchmarkRawPersist4K(b *testing.B) {
	store, err := memsnap.NewStore(memsnap.Config{DiskBytesEach: 1 << 30})
	if err != nil {
		b.Fatal(err)
	}
	proc := store.NewProcess()
	ctx := proc.NewContext(0)
	region, err := proc.Open(ctx, "bench", 64<<20)
	if err != nil {
		b.Fatal(err)
	}
	payload := bytes.Repeat([]byte{1}, 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx.WriteAt(region, int64(i%1000)*memsnap.PageSize, payload)
		if _, err := ctx.Persist(region, memsnap.Sync); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(ctx.PersistLatency.Snapshot().Mean().Microseconds()), "sim_us/persist")
}

// BenchmarkRawTrackingFault measures the simulated minor-fault path.
func BenchmarkRawTrackingFault(b *testing.B) {
	store, _ := memsnap.NewStore(memsnap.Config{DiskBytesEach: 1 << 30})
	proc := store.NewProcess()
	ctx := proc.NewContext(0)
	region, _ := proc.Open(ctx, "bench", 256<<20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx.WriteAt(region, int64(i%60000)*memsnap.PageSize, []byte{1})
		if i%4096 == 4095 {
			// Reset tracking so faults keep firing.
			ctx.Persist(region, memsnap.Async)
			ctx.Wait(region, 0)
		}
	}
}

// BenchmarkRawRNG keeps the simulation substrate honest about its own
// real-world overheads.
func BenchmarkRawRNG(b *testing.B) {
	rng := sim.NewRNG(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += rng.Uint64()
	}
	_ = sink
}
