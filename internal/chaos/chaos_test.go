package chaos

import (
	"slices"
	"strings"
	"testing"
)

// TestParseCellIDRoundTrip checks the printed cell ID parses back to
// the same cell.
func TestParseCellIDRoundTrip(t *testing.T) {
	cells := []Cell{
		{Seed: 1, Schedule: "steady", Topology: TopoSingle},
		{Seed: 18446744073709551615, Schedule: "cutrace", Topology: TopoReplica},
		{Seed: 42, Schedule: "drain", Topology: TopoNet},
	}
	for _, c := range cells {
		got, err := ParseCellID(c.ID())
		if err != nil {
			t.Fatalf("ParseCellID(%q): %v", c.ID(), err)
		}
		if got != c {
			t.Fatalf("round trip %q: got %+v, want %+v", c.ID(), got, c)
		}
	}
	if _, err := ParseCellID("seed=zzz/sched=a/topo=b"); err == nil {
		t.Fatal("bad seed accepted")
	}
	if _, err := ParseCellID("seed=1/sched=a"); err == nil {
		t.Fatal("two-part ID accepted")
	}
}

// TestCellDeterminism reruns one faulted replica cell and requires a
// bit-identical outcome, digests included: the cell ID alone must be a
// complete reproducer. One steady cell per workload reruns too, so
// every generator must replay from its seed.
func TestCellDeterminism(t *testing.T) {
	for _, wl := range Workloads() {
		wcfg := Config{MinOps: 200, Workload: wl}
		cell := Cell{Seed: 7, Schedule: "steady", Topology: TopoSingle}
		a, b := RunCell(wcfg, cell), RunCell(wcfg, cell)
		if !a.Pass {
			t.Fatalf("%s cell %s failed:\n%s", wl, a.ID, strings.Join(a.Violations, "\n"))
		}
		if !slices.Equal(a.Digests, b.Digests) || a.Ops != b.Ops {
			t.Errorf("%s rerun diverged: %d ops %v vs %d ops %v", wl, a.Ops, a.Digests, b.Ops, b.Digests)
		}
	}

	cfg := Config{MinOps: 200}
	cell := Cell{Seed: 7, Schedule: "powercut", Topology: TopoReplica}
	a := RunCell(cfg, cell)
	b := RunCell(cfg, cell)
	if !a.Pass {
		t.Fatalf("cell %s failed:\n%s", a.ID, strings.Join(a.Violations, "\n"))
	}
	if a.Ops != b.Ops || a.Responses != b.Responses || a.LinkDown != b.LinkDown ||
		a.Recoveries != b.Recoveries || a.VirtualEnd != b.VirtualEnd {
		t.Fatalf("rerun diverged: %+v vs %+v", a, b)
	}
	if len(a.Digests) != len(b.Digests) {
		t.Fatalf("digest count diverged: %v vs %v", a.Digests, b.Digests)
	}
	for i := range a.Digests {
		if a.Digests[i] != b.Digests[i] {
			t.Fatalf("shard %d digest diverged: %s vs %s", i, a.Digests[i], b.Digests[i])
		}
	}

	// Drain's pipelined burst may shift batching (and so virtual
	// time) between runs, but the surviving state must not move.
	da := RunCell(cfg, Cell{Seed: 7, Schedule: "drain", Topology: TopoSingle})
	db := RunCell(cfg, Cell{Seed: 7, Schedule: "drain", Topology: TopoSingle})
	if !da.Pass {
		t.Fatalf("cell %s failed:\n%s", da.ID, strings.Join(da.Violations, "\n"))
	}
	for i := range da.Digests {
		if da.Digests[i] != db.Digests[i] {
			t.Fatalf("drain shard %d digest diverged: %s vs %s", i, da.Digests[i], db.Digests[i])
		}
	}
}

// TestGridSmoke sweeps a small grid across every schedule and
// topology and requires every cell to pass. This is the tier-1 face
// of the chaos matrix; the msnap-chaos command runs bigger grids.
// ycsb-f and tpcc issue adds, so the model's add check runs here too.
func TestGridSmoke(t *testing.T) {
	for _, wl := range []string{"ycsb-a", "tatp", "ycsb-f", "tpcc"} {
		rep, err := Run(Config{Seeds: []uint64{1, 42}, Workload: wl, MinOps: 200})
		if err != nil {
			t.Fatalf("workload %s: %v", wl, err)
		}
		if rep.Failed > 0 {
			t.Errorf("workload %s:\n%s", wl, rep.Matrix())
		}
		if rep.Total < 2*7 { // 2 seeds × at least one topo per schedule
			t.Errorf("workload %s: only %d cells", wl, rep.Total)
		}
	}
}

// TestOutageComposesWithClampedPowerCut is the regression pinning the
// interaction of a replica.Link outage window with the gcFloor-clamped
// Array.CutPower: the cutrace schedule fires both at the same virtual
// instant, and the cell must still recover onto a manifest-committed
// epoch on every device with the follower converging afterwards.
func TestOutageComposesWithClampedPowerCut(t *testing.T) {
	for _, seed := range []uint64{1, 7, 42} {
		res := RunCell(Config{MinOps: 200}, Cell{Seed: seed, Schedule: "cutrace", Topology: TopoReplica})
		if !res.Pass {
			t.Errorf("cell %s:\n  %s", res.ID, strings.Join(res.Violations, "\n  "))
		}
		if res.FaultsFired < 2 {
			t.Errorf("cell %s: only %d faults fired, want outage + power cut", res.ID, res.FaultsFired)
		}
		if res.Recoveries < 2 {
			t.Errorf("cell %s: %d recoveries, want failover + final audit", res.ID, res.Recoveries)
		}
	}
}

// TestDiffCrashTearsSubPageApply pins the diffcrash schedule: two
// follower crashes tear sub-page-patched µCheckpoint applies (the
// replica topology ships extent frames by default) around a link
// outage, and every cell must converge: the follower resumes at its
// manifest position, and the replayed or snapshotted deltas carry
// literal bytes that rewrite whatever the tear left.
func TestDiffCrashTearsSubPageApply(t *testing.T) {
	for _, seed := range []uint64{1, 7, 42} {
		res := RunCell(Config{MinOps: 200}, Cell{Seed: seed, Schedule: "diffcrash", Topology: TopoReplica})
		if !res.Pass {
			t.Errorf("cell %s:\n  %s", res.ID, strings.Join(res.Violations, "\n  "))
		}
		if res.FaultsFired != 3 {
			t.Errorf("cell %s: %d faults fired, want 2 follower crashes + outage", res.ID, res.FaultsFired)
		}
		if res.Recoveries < 3 {
			t.Errorf("cell %s: %d recoveries, want 2 follower rebuilds + final audit", res.ID, res.Recoveries)
		}
	}
}

// TestRunRejectsUnknownAxes checks sweep validation.
func TestRunRejectsUnknownAxes(t *testing.T) {
	if _, err := Run(Config{Schedules: []string{"nope"}}); err == nil {
		t.Fatal("unknown schedule accepted")
	}
	if _, err := Run(Config{Workload: "nope"}); err == nil {
		t.Fatal("unknown workload accepted")
	}
	res := RunCell(Config{}, Cell{Seed: 1, Schedule: "linkflap", Topology: TopoSingle})
	if res.Pass {
		t.Fatal("unsupported schedule/topology pair passed")
	}
}
