package harness

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite golden files under testdata")

// tiny returns options small enough for CI.
func tiny() Options { return Options{Scale: 0.08, Threads: 1, Seed: 3} }

// checkGolden holds a single-threaded table to testdata/<id>.golden
// byte for byte, so a change that moves a paper number shows it in its
// diff. Rerun with -update-golden after an intentional change.
func checkGolden(t *testing.T, res *Result) {
	t.Helper()
	golden := filepath.Join("testdata", res.ID+".golden")
	got := []byte(res.Format())
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from %s (rerun with -update-golden after an intentional change)\n--- got ---\n%s\n--- want ---\n%s",
			res.ID, golden, got, want)
	}
}

// TestGoldenFiguresRepeat runs the two case-study figures twice in one
// process on one thread: every cell must repeat, or their goldens could
// not pin them. A loop over a Go map that reaches the clock or the disk
// layout (litedb's page cache and WAL, pgdb's commit and checkpoint)
// shows up here as a cell that differs.
func TestGoldenFiguresRepeat(t *testing.T) {
	opts := Options{Scale: 0.1, Threads: 1, Seed: 3}
	for _, run := range []func(Options) (*Result, error){Figure5, Figure6} {
		a, err := run(opts)
		if err != nil {
			t.Fatal(err)
		}
		b, err := run(opts)
		if err != nil {
			t.Fatal(err)
		}
		if a.Format() != b.Format() {
			t.Errorf("%s differs between two runs:\n%s\n%s", a.ID, a.Format(), b.Format())
		}
	}
}

// parseUS parses a "N.N" or "N.NK" microsecond cell.
func parseUS(t *testing.T, cell string) float64 {
	t.Helper()
	mult := 1.0
	s := strings.TrimSuffix(cell, "K")
	if s != cell {
		mult = 1000
	}
	v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
	if err != nil {
		t.Fatalf("cell %q: %v", cell, err)
	}
	return v * mult
}

func parsePct(t *testing.T, cell string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(cell, "%"), 64)
	if err != nil {
		t.Fatalf("cell %q: %v", cell, err)
	}
	return v
}

func TestRegistryComplete(t *testing.T) {
	want := []string{"table1", "table2", "fig1", "table5", "table6", "fig3",
		"table7", "table8", "fig4", "fig5", "table9", "table10", "fig6",
		"shardsvc", "replica"}
	for _, id := range want {
		if _, ok := Find(id); !ok {
			t.Errorf("experiment %s missing from registry", id)
		}
	}
	if len(Registry()) < len(want) {
		t.Fatal("registry too small")
	}
}

func TestTable2Shape(t *testing.T) {
	res, err := Table2(tiny())
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, res)
	total := parseUS(t, res.Rows[4][1])
	if total < 100 || total > 420 {
		t.Fatalf("aurora total %v us, paper 208.1", total)
	}
	shadowing := parseUS(t, res.Rows[0][1]) + parseUS(t, res.Rows[1][1]) + parseUS(t, res.Rows[3][1])
	if shadowing < 0.6*total {
		t.Fatalf("shadow overhead %.1f not dominant of %.1f", shadowing, total)
	}
}

func TestFigure1Shape(t *testing.T) {
	res, err := Figure1(tiny())
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, res)
	for _, row := range res.Rows {
		scan, walk, trace := parseUS(t, row[1]), parseUS(t, row[2]), parseUS(t, row[3])
		if !(trace < walk && walk < scan) {
			t.Fatalf("row %v: ordering violated", row)
		}
	}
	// Trace buffer cost for one page is near zero (paper: "almost
	// nothing").
	if v := parseUS(t, res.Rows[0][3]); v > 1 {
		t.Fatalf("trace reset of 4 KiB costs %.2f us", v)
	}
}

func TestTable5Shape(t *testing.T) {
	res, err := Table5(tiny())
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, res)
	total := parseUS(t, res.Rows[3][1])
	if total < 25 || total > 110 {
		t.Fatalf("persist total %.1f us, paper 51.4", total)
	}
	wait := parseUS(t, res.Rows[2][1])
	if wait < 0.5*total {
		t.Fatalf("IO wait %.1f should dominate total %.1f", wait, total)
	}
}

func TestTable6Shape(t *testing.T) {
	res, err := Table6(tiny())
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, res)
	if len(res.Rows) != len(ioSizes) {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// 4 KiB row: memsnap sync within ~3x of disk; ffs random much
	// slower; async far below sync.
	row := res.Rows[0]
	disk := parseUS(t, row[1])
	ffsRand := parseUS(t, row[4])
	msSync := parseUS(t, row[6])
	msAsync := parseUS(t, row[7])
	if msSync > 3*disk {
		t.Fatalf("memsnap 4K sync %.1f vs disk %.1f: overhead too high", msSync, disk)
	}
	if ffsRand < 3*msSync {
		t.Fatalf("ffs random %.1f not >> memsnap %.1f", ffsRand, msSync)
	}
	if msAsync > msSync/2 {
		t.Fatalf("async %.1f not well below sync %.1f", msAsync, msSync)
	}
	// Large-size row: memsnap stays an order below random fsync.
	last := res.Rows[len(res.Rows)-1]
	if parseUS(t, last[4]) < 5*parseUS(t, last[6]) {
		t.Fatalf("4 MiB: ffs rand %s vs memsnap %s", last[4], last[6])
	}
}

func TestFigure3Shape(t *testing.T) {
	res, err := Figure3(tiny())
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, res)
	for i, row := range res.Rows {
		ms := parseUS(t, row[1])
		region := parseUS(t, row[2])
		app := parseUS(t, row[3])
		if !(ms < region && region < app) {
			t.Fatalf("row %d (%s): memsnap %.1f, region %.1f, app %.1f", i, row[0], ms, region, app)
		}
	}
	// Small-IO advantage is large (paper: 7x vs region, up to 60x vs
	// app).
	first := res.Rows[0]
	if parseUS(t, first[2]) < 3*parseUS(t, first[1]) {
		t.Fatalf("4K: region %s not >> memsnap %s", first[2], first[1])
	}
	if parseUS(t, first[3]) < 20*parseUS(t, first[1]) {
		t.Fatalf("4K: app %s not >>> memsnap %s", first[3], first[1])
	}
}

func TestTable7Shape(t *testing.T) {
	res, err := Table7(Options{Scale: 0.05, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, res)
	if len(res.Rows) != 6 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		persistLat := parseUS(t, row[2])
		fsyncLat := parseUS(t, row[4])
		if persistLat >= fsyncLat {
			t.Fatalf("%s %s: persist %.1f not cheaper than fsync %.1f", row[0], row[1], persistLat, fsyncLat)
		}
		if row[7] == "0" {
			t.Fatalf("baseline made no write() calls")
		}
	}
}

func TestTable8Shape(t *testing.T) {
	res, err := Table8(Options{Scale: 0.05, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, res)
	// Rows come in baseline/memsnap pairs per pattern; memsnap must
	// finish faster.
	for i := 0; i < len(res.Rows); i += 2 {
		base := res.Rows[i]
		ms := res.Rows[i+1]
		var wb, wm float64
		if _, err := parse2(base[5], &wb); err != nil {
			t.Fatal(err)
		}
		if _, err := parse2(ms[5], &wm); err != nil {
			t.Fatal(err)
		}
		if wm >= wb {
			t.Fatalf("%s: memsnap wall %.2fms not faster than baseline %.2fms", base[0], wm, wb)
		}
	}
}

func parse2(s string, out *float64) (int, error) {
	v, err := strconv.ParseFloat(strings.TrimSuffix(s, "ms"), 64)
	*out = v
	return 1, err
}

func TestFigure4Shape(t *testing.T) {
	res, err := Figure4(Options{Scale: 0.05, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, res)
	for _, row := range res.Rows {
		msAvg := parseUS(t, row[2])
		baseAvg := parseUS(t, row[4])
		if msAvg >= baseAvg {
			t.Fatalf("%s %s: memsnap avg %.0f not below baseline %.0f", row[0], row[1], msAvg, baseAvg)
		}
	}
}

func TestFigure5Shape(t *testing.T) {
	res, err := Figure5(Options{Scale: 0.05, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, res)
	// MemSnap wins at every size and the gap grows with DB size.
	var firstSpeedup, lastSpeedup float64
	for i, row := range res.Rows {
		sp, _ := strconv.ParseFloat(strings.TrimSuffix(row[3], "x"), 64)
		if sp <= 1 {
			t.Fatalf("size %s: memsnap speedup %.2f <= 1", row[0], sp)
		}
		if i == 0 {
			firstSpeedup = sp
		}
		lastSpeedup = sp
	}
	if lastSpeedup <= firstSpeedup*0.8 {
		t.Fatalf("speedup did not hold with DB size: %.2f -> %.2f", firstSpeedup, lastSpeedup)
	}
}

func TestTable9Shape(t *testing.T) {
	res, err := Table9(Options{Scale: 0.05, Threads: 3, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	kops := map[string]float64{}
	avg := map[string]float64{}
	for _, row := range res.Rows {
		k, _ := strconv.ParseFloat(row[1], 64)
		kops[row[0]] = k
		avg[row[0]] = parseUS(t, row[2])
	}
	if kops["memsnap"] <= kops["aurora"] {
		t.Fatalf("memsnap %.1f Kops not above aurora %.1f", kops["memsnap"], kops["aurora"])
	}
	if kops["memsnap"] <= kops["baseline+WAL"]*0.9 {
		t.Fatalf("memsnap %.1f Kops well below baseline %.1f", kops["memsnap"], kops["baseline+WAL"])
	}
	if avg["aurora"] <= avg["memsnap"] {
		t.Fatal("aurora latency not above memsnap")
	}
}

func TestTable10Shape(t *testing.T) {
	res, err := Table10(tiny())
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, res)
	ms := parseUS(t, res.Rows[4][1])
	aurora := parseUS(t, res.Rows[4][2])
	if aurora < 2*ms {
		t.Fatalf("aurora %.1f not well above memsnap %.1f", aurora, ms)
	}
}

func TestTable1Shape(t *testing.T) {
	res, err := Table1(Options{Scale: 0.2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, res)
	var txMem, total float64
	for _, row := range res.Rows {
		v := parsePct(t, row[1])
		total += v
		if row[0] == "Userspace: Tx Memory" {
			txMem = v
		}
	}
	// The paper's headline: the in-memory transaction is a minority
	// of total time.
	if txMem > 40 {
		t.Fatalf("tx memory %.1f%% — persistence should dominate", txMem)
	}
	if total < 90 || total > 110 {
		t.Fatalf("breakdown sums to %.1f%%", total)
	}
}

func TestFigure6Shape(t *testing.T) {
	// One thread: the tx/s and KB/tx columns asserted below repeat
	// exactly from run to run. With two, the interleaving is the host
	// scheduler's and the tps comparison failed about once in 18 runs
	// ("memsnap 203 tps below baseline 224"). Restore the 2-thread
	// assertion once ROADMAP item 5 makes multi-threaded runs
	// replayable.
	res, err := Figure6(Options{Scale: 0.2, Threads: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, res)
	tps := map[string]float64{}
	kbtx := map[string]float64{}
	for _, row := range res.Rows {
		v, _ := strconv.ParseFloat(row[1], 64)
		tps[row[0]] = v
		m, _ := strconv.ParseFloat(row[3], 64)
		kbtx[row[0]] = m
	}
	// Figure 6 shape: mmap variants below baseline; memsnap at or
	// above baseline tx/s with less disk write volume per tx.
	if tps["ffs-mmap-bd"] >= tps["ffs"] {
		t.Fatalf("bufdirect %.0f tps not below baseline %.0f", tps["ffs-mmap-bd"], tps["ffs"])
	}
	if tps["ffs-mmap"] >= tps["ffs"]*1.05 {
		t.Fatalf("mmap %.0f tps above baseline %.0f", tps["ffs-mmap"], tps["ffs"])
	}
	if tps["memsnap"] < 0.95*tps["ffs"] {
		t.Fatalf("memsnap %.0f tps below baseline %.0f", tps["memsnap"], tps["ffs"])
	}
	if kbtx["memsnap"] >= 0.95*kbtx["ffs"] {
		t.Fatalf("memsnap %.1f KB/tx not below baseline %.1f", kbtx["memsnap"], kbtx["ffs"])
	}
}

func TestAblations(t *testing.T) {
	for _, id := range []string{"ablation-tlb", "ablation-store", "ablation-skip", "ablation-writeamp", "ablation-trace"} {
		e, ok := Find(id)
		if !ok {
			t.Fatalf("%s not registered", id)
		}
		res, err := e.Run(Options{Scale: 0.1, Seed: 3})
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(res.Rows) == 0 {
			t.Fatalf("%s: empty result", id)
		}
		checkGolden(t, res)
	}
}

func TestResultFormat(t *testing.T) {
	r := &Result{
		ID:     "x",
		Title:  "demo",
		Header: []string{"a", "bb"},
		Rows:   [][]string{{"1", "2"}},
		Notes:  []string{"n"},
	}
	out := r.Format()
	for _, want := range []string{"demo", "a ", "bb", "1", "note: n"} {
		if !strings.Contains(out, want) {
			t.Fatalf("format missing %q:\n%s", want, out)
		}
	}
}

func TestHelpers(t *testing.T) {
	if us(1500*time.Nanosecond) != "1.5" {
		t.Fatal(us(1500 * time.Nanosecond))
	}
	if usK(20*time.Millisecond) != "20.0K" {
		t.Fatal(usK(20 * time.Millisecond))
	}
	if countK(63100) != "63.1 K" {
		t.Fatal(countK(63100))
	}
	if fmtSize(4096) != "4 KiB" || fmtSize(1<<20) != "1 MiB" {
		t.Fatal("fmtSize")
	}
}

func TestShardSvcShape(t *testing.T) {
	res, err := ShardSvc(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 9 {
		t.Fatalf("shardsvc grid has %d rows, want 9 (3 shard counts x 3 batch sizes)", len(res.Rows))
	}
	parse := func(cell string) float64 {
		v, err := strconv.ParseFloat(cell, 64)
		if err != nil {
			t.Fatalf("cell %q: %v", cell, err)
		}
		return v
	}
	// Rows 3-5 are the 8-shard series: batch 1, 16, 64. Group commit
	// must beat per-op commits on throughput and coalesce >1 write.
	kops1, kops64 := parse(res.Rows[3][2]), parse(res.Rows[5][2])
	if kops64 <= kops1 {
		t.Fatalf("batch=64 throughput %.1f not above batch=1 %.1f", kops64, kops1)
	}
	if occ := parse(res.Rows[4][3]); occ <= 1.0 {
		t.Fatalf("batch=16 occupancy %.1f, want > 1", occ)
	}
	if occ := parse(res.Rows[3][3]); occ != 1.0 {
		t.Fatalf("batch=1 occupancy %.1f, want exactly 1", occ)
	}
}

func TestReplicaShape(t *testing.T) {
	res, err := Replica(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("replica grid has %d rows, want 4 (2 modes x 2 windows)", len(res.Rows))
	}
	parse := func(cell string) float64 {
		v, err := strconv.ParseFloat(cell, 64)
		if err != nil {
			t.Fatalf("cell %q: %v", cell, err)
		}
		return v
	}
	for _, row := range res.Rows {
		// On a clean link every delta is acked exactly once, but the
		// async sender coalesces consecutive deltas into batched link
		// messages, so messages shipped can be fewer than deltas acked.
		// Sync mode never batches: there the counts match exactly.
		shipped, acked := parse(row[5]), parse(row[6])
		if shipped <= 0 || shipped > acked {
			t.Fatalf("%s/%s: shipped %v acked %v, want 0 < shipped <= acked after flush on a clean link",
				row[0], row[1], shipped, acked)
		}
		if row[0] == "sync" && shipped != acked {
			t.Fatalf("sync/%s: shipped %v acked %v, want equal (no batching in sync mode)",
				row[1], shipped, acked)
		}
		if snaps := parse(row[9]); snaps != 0 {
			t.Fatalf("%s/%s: %v snapshots on a clean link, want 0", row[0], row[1], snaps)
		}
		if row[0] == "sync" {
			if lag := parse(row[8]); lag != 0 {
				t.Fatalf("sync/%s: max lag %v, want 0 (client acks wait for follower acks)", row[1], lag)
			}
		}
	}
	// Rows 0-1 async, 2-3 sync at the same windows: shipping off the
	// critical path must not be slower than holding client acks.
	if a, s := parse(res.Rows[0][2]), parse(res.Rows[2][2]); a < s {
		t.Fatalf("async throughput %.1f below sync %.1f", a, s)
	}
}
