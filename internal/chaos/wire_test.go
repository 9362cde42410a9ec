package chaos

import "testing"

// TestSubPageWireReduction holds sub-page delta shipping to its floors
// on a synchronously replicated cluster: the shipper puts more than 3x
// fewer bytes on the link than full pages would for TATP and TPC-C, and
// fewer for YCSB-A. The full-page baseline is arithmetic: a delta's
// full-page framing is its encoded size plus the bytes the encoder
// counted as saved, so WireBytes + DiffSavedBytes. Every number is
// virtual-time deterministic, so this is a hard gate.
func TestSubPageWireReduction(t *testing.T) {
	// The first touch of a page ships a full frame (no pre-image yet):
	// cold-start cost, not the steady-state wire cost, so the counters
	// are read after a warmup.
	const warmup, ops = 400, 1200
	for _, tc := range []struct {
		workload string
		floor    float64
	}{{"tatp", 3}, {"tpcc", 3}, {"ycsb-a", 1}} {
		src, err := newSource(tc.workload, 1)
		if err != nil {
			t.Fatal(err)
		}
		cl, err := buildCluster(Cell{Seed: 1, Topology: TopoReplica}, 2, 1<<18)
		if err != nil {
			t.Fatal(err)
		}
		var base []int64
		for i := 0; i < warmup+ops; i++ {
			if i == warmup {
				for _, st := range cl.ship.Stats() {
					base = append(base, st.WireBytes, st.DiffSavedBytes)
				}
			}
			op := src.Next()
			if r := cl.do(op); r.Err != nil {
				t.Fatalf("%s op %d (%v %q): %v", tc.workload, i, op.Kind, op.Key, r.Err)
			}
		}
		var res CellResult
		cl.checkConverged(&res)
		cl.teardown()
		for _, v := range res.Violations {
			t.Errorf("%s: %s", tc.workload, v)
		}

		var wire, saved int64
		for sh, st := range cl.ship.Stats() {
			wire += st.WireBytes - base[2*sh]
			saved += st.DiffSavedBytes - base[2*sh+1]
		}
		if wire <= 0 {
			t.Fatalf("%s: no replication traffic measured", tc.workload)
		}
		red := float64(wire+saved) / float64(wire)
		t.Logf("%-6s wire %8d B  full-page %9d B  reduction %.2fx", tc.workload, wire, wire+saved, red)
		if red <= tc.floor {
			t.Errorf("%s: sub-page reduction %.2fx, want above %.0fx", tc.workload, red, tc.floor)
		}
	}
}
