package chaos

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"memsnap/internal/shard"
)

// TestFailingCellEmitsBundle pins the flight-recorder contract: a cell
// that records violations writes one self-contained JSON bundle whose
// trace section holds the cell's recent span history.
func TestFailingCellEmitsBundle(t *testing.T) {
	dir := t.TempDir()
	cell := Cell{Seed: 1, Schedule: "steady", Topology: TopoSingle}
	rg, err := buildRig(cell, 2, 1<<18)
	if err != nil {
		t.Fatalf("build rig: %v", err)
	}
	for i := 0; i < 16; i++ {
		r := rg.do(shard.Op{Kind: shard.OpPut, Tenant: "acme", Key: "k", Value: uint64(i)})
		if r.Err != nil {
			t.Fatalf("op %d: %v", i, r.Err)
		}
	}
	rg.teardown()

	res := CellResult{ID: cell.ID()}
	res.fail("synthetic violation: flight bundle test")
	writeCellBundle(dir, rg, &res)
	if res.BundlePath == "" {
		t.Fatalf("no bundle path recorded; violations: %v", res.Violations)
	}
	raw, err := os.ReadFile(res.BundlePath)
	if err != nil {
		t.Fatalf("read bundle: %v", err)
	}
	var doc struct {
		Reason   string `json:"reason"`
		Recorder struct {
			Recorded uint64 `json:"recorded"`
		} `json:"recorder"`
		Metrics string `json:"metrics"`
		Trace   struct {
			TraceEvents []json.RawMessage `json:"traceEvents"`
		} `json:"trace"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("bundle is not valid JSON: %v", err)
	}
	if doc.Reason == "" {
		t.Error("bundle has no reason")
	}
	if doc.Recorder.Recorded == 0 {
		t.Error("bundle recorder saw no events")
	}
	if len(doc.Trace.TraceEvents) == 0 {
		t.Error("bundle trace is empty")
	}
	if doc.Metrics == "" {
		t.Error("bundle has no metrics exposition")
	}
}

// TestPassingCellWritesNoBundle pins that BundleDir is failure-only.
func TestPassingCellWritesNoBundle(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Seeds: []uint64{1}, MinOps: 50, BundleDir: dir}
	res := RunCell(cfg, Cell{Seed: 1, Schedule: "steady", Topology: TopoSingle})
	if !res.Pass {
		t.Fatalf("steady cell failed: %v", res.Violations)
	}
	if res.BundlePath != "" {
		t.Fatalf("passing cell recorded a bundle path %q", res.BundlePath)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		t.Fatalf("passing cell left files in the bundle dir: %v", ents)
	}
}

func TestBundleFileName(t *testing.T) {
	got := bundleFileName("seed=7/sched=powercut/topo=replica")
	want := "seed-7_sched-powercut_topo-replica.flight.json"
	if got != want {
		t.Fatalf("bundleFileName = %q, want %q", got, want)
	}
	if filepath.Base(got) != got {
		t.Fatalf("bundle name %q is not a bare file name", got)
	}
}
