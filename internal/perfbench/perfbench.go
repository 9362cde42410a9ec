// Package perfbench measures the real-machine persist hot path: heap
// allocations, bytes allocated, and wall-clock throughput of the
// Persist pipeline, plus its virtual-time latency distribution. The
// simulation's virtual clocks make the *modeled* cost deterministic;
// this package tracks the orthogonal axis ROADMAP names — how fast the
// simulator itself runs on real hardware — so regressions in the hot
// path show up as numbers, not vibes.
//
// Run produces a machine-readable Report (serialized by memsnap-bench
// -json into BENCH_persist.json). PreChangeBaseline pins the numbers
// measured immediately before the zero-allocation rework, giving every
// future run a fixed trajectory origin.
package perfbench

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"memsnap/internal/core"
	"memsnap/internal/obs"
	"memsnap/internal/replica"
)

// pagesPerOp is the dirty-set size each benchmark op persists: big
// enough that per-page work dominates, small enough to stay a
// "uCheckpoint", matching the paper's 64 KiB working set (Table 5).
const pagesPerOp = 16

// regionBytes sizes the benchmark region (and the follower's replica
// of it).
const regionBytes int64 = 4 << 20

// SteadyStateAllocCeiling is the committed CI ceiling for the
// persist_steady and persist_steady_traced scenarios: steady-state
// Persist must stay allocation-free — with lifecycle tracing enabled
// too (testing.AllocsPerRun reports whole allocations per op, so any
// value below 1 means zero).
const SteadyStateAllocCeiling = 0.5

// Scenario is one measured benchmark configuration.
type Scenario struct {
	Name        string  `json:"name"`
	Description string  `json:"description"`
	DirtyPages  int     `json:"dirty_pages_per_op"`
	Ops         int     `json:"ops_measured"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	// RealOpsPerSec is wall-clock throughput of the measured loop on
	// the machine running the benchmark (the one deliberately
	// non-deterministic number in the repo).
	RealOpsPerSec float64 `json:"real_ops_per_sec"`
	// VirtualP50Us/VirtualP99Us summarize the simulated Persist
	// latency (microseconds of virtual time) — deterministic.
	VirtualP50Us float64 `json:"virtual_persist_p50_us"`
	VirtualP99Us float64 `json:"virtual_persist_p99_us"`
}

// BaselineEntry pins one scenario's pre-change allocation numbers.
type BaselineEntry struct {
	Name        string  `json:"name"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
}

// Report is the full benchmark output.
type Report struct {
	Note      string          `json:"note"`
	Scale     float64         `json:"scale"`
	Baseline  []BaselineEntry `json:"pre_change_baseline"`
	Scenarios []Scenario      `json:"scenarios"`
}

// PreChangeBaseline returns the allocation numbers measured on the
// commit immediately before the zero-allocation persist rework
// (3804cb1, scale 1). These are committed constants, not re-measured:
// they are the fixed origin every future BENCH_persist.json compares
// against.
func PreChangeBaseline() []BaselineEntry {
	return []BaselineEntry{
		{Name: "persist_steady", AllocsPerOp: 109, BytesPerOp: 89740},
		{Name: "persist_capture", AllocsPerOp: 131, BytesPerOp: 156317},
		{Name: "persist_capture_replicated", AllocsPerOp: 240, BytesPerOp: 246312},
	}
}

// Run executes every scenario at the given scale (scale multiplies the
// measured-loop op count; allocation measurements use a fixed run
// count) and returns the report.
func Run(scale float64) (*Report, error) {
	if scale <= 0 {
		scale = 1
	}
	ops := int(1500 * scale)
	if ops < 50 {
		ops = 50
	}
	r := &Report{
		Note:     "real-machine persist hot path; see EXPERIMENTS.md (Real-machine hot path)",
		Scale:    scale,
		Baseline: PreChangeBaseline(),
	}
	for _, fn := range []func(int) (Scenario, error){steady, steadyTraced, capture, captureReplicated} {
		sc, err := fn(ops)
		if err != nil {
			return nil, err
		}
		r.Scenarios = append(r.Scenarios, sc)
	}
	return r, nil
}

// CheckCeilings validates the report against the committed CI
// ceilings: the steady-state scenario must be allocation-free.
func CheckCeilings(r *Report) error {
	for _, sc := range r.Scenarios {
		if (sc.Name == "persist_steady" || sc.Name == "persist_steady_traced") &&
			sc.AllocsPerOp > SteadyStateAllocCeiling {
			return fmt.Errorf("perfbench: %s allocs/op = %g exceeds ceiling %g",
				sc.Name, sc.AllocsPerOp, SteadyStateAllocCeiling)
		}
	}
	return nil
}

// rig is one benchmark's system-under-test: a process with one region
// and one context.
type rig struct {
	sys    *core.System
	ctx    *core.Context
	region *core.Region
}

func newRig() (*rig, error) {
	sys, err := core.NewSystem(core.Options{CPUs: 4})
	if err != nil {
		return nil, err
	}
	p := sys.NewProcess()
	ctx := p.NewContext(0)
	region, err := p.Open(ctx, "bench", regionBytes)
	if err != nil {
		return nil, err
	}
	return &rig{sys: sys, ctx: ctx, region: region}, nil
}

// dirtyAndPersist is the core benchmark op: dirty pagesPerOp pages,
// persist them synchronously.
func (r *rig) dirtyAndPersist() error {
	for i := 0; i < pagesPerOp; i++ {
		pg := r.ctx.PageForWrite(r.region, int64(i)*core.PageSize)
		pg[0]++
	}
	_, err := r.ctx.Persist(r.region, core.MSSync)
	return err
}

// measure runs op through the three instruments: AllocsPerRun for
// allocs/op, MemStats for bytes/op, and a wall-clock loop for real
// throughput.
func measure(name, desc string, ops int, lat *obs.Histogram, op func() error) (Scenario, error) {
	// Warm up: fault every page in, populate pools and map buckets.
	var opErr error
	for i := 0; i < 64; i++ {
		if err := op(); err != nil {
			return Scenario{}, err
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := op(); err != nil {
			opErr = err
		}
	})
	if opErr != nil {
		return Scenario{}, opErr
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now() //lint:allow walltime real-machine throughput is the measurement here
	for i := 0; i < ops; i++ {
		if err := op(); err != nil {
			return Scenario{}, err
		}
	}
	elapsed := time.Since(start) //lint:allow walltime real-machine throughput is the measurement here
	runtime.ReadMemStats(&m1)
	sum := lat.Snapshot()
	return Scenario{
		Name:          name,
		Description:   desc,
		DirtyPages:    pagesPerOp,
		Ops:           ops,
		AllocsPerOp:   allocs,
		BytesPerOp:    float64(m1.TotalAlloc-m0.TotalAlloc) / float64(ops),
		RealOpsPerSec: float64(ops) / elapsed.Seconds(),
		VirtualP50Us:  float64(sum.P50()) / float64(time.Microsecond),
		VirtualP99Us:  float64(sum.P99()) / float64(time.Microsecond),
	}, nil
}

// steady measures the bare persist loop: no capture, no replication —
// the path the zero-allocation criterion pins at 0 allocs/op.
func steady(ops int) (Scenario, error) {
	r, err := newRig()
	if err != nil {
		return Scenario{}, err
	}
	return measure("persist_steady",
		"dirty 16 pages + Persist(MSSync), warm pools, no capture",
		ops, &r.ctx.PersistLatency, r.dirtyAndPersist)
}

// steadyTraced is steady with observability on: a span recorder
// attached to the context (persist-stage spans and fault instants land
// in the ring every op). Held to the same zero-allocation ceiling as
// persist_steady — tracing must be free to leave enabled.
func steadyTraced(ops int) (Scenario, error) {
	r, err := newRig()
	if err != nil {
		return Scenario{}, err
	}
	rec := obs.NewRecorder(4096)
	r.ctx.SetRecorder(rec, obs.ShardTrack(0))
	return measure("persist_steady_traced",
		"dirty 16 pages + Persist(MSSync) with span recorder enabled",
		ops, &r.ctx.PersistLatency, r.dirtyAndPersist)
}

// capture measures persist with commit capture on: every op also
// drains and releases the captured delta, the primary's half of the
// replication pipeline.
func capture(ops int) (Scenario, error) {
	r, err := newRig()
	if err != nil {
		return Scenario{}, err
	}
	r.ctx.CaptureCommits(true)
	var caps []core.CapturedCommit
	op := func() error {
		if err := r.dirtyAndPersist(); err != nil {
			return err
		}
		caps = r.ctx.TakeCaptured()
		releaseCaptured(caps)
		return nil
	}
	return measure("persist_capture",
		"dirty 16 pages + Persist(MSSync) + TakeCaptured + release",
		ops, &r.ctx.PersistLatency, op)
}

// captureReplicated measures the full replication round: persist with
// capture, build the delta, apply it on a follower (one MSSync
// uCheckpoint there too), release.
func captureReplicated(ops int) (Scenario, error) {
	r, err := newRig()
	if err != nil {
		return Scenario{}, err
	}
	r.ctx.CaptureCommits(true)
	sysB, err := core.NewSystem(core.Options{CPUs: 4})
	if err != nil {
		return Scenario{}, err
	}
	fol, err := replica.NewFollower(sysB, replica.FollowerConfig{Shards: 1, RegionBytes: regionBytes})
	if err != nil {
		return Scenario{}, err
	}
	var seq uint64
	var d replica.Delta
	var flat []core.CommittedPage
	var caps []core.CapturedCommit
	op := func() error {
		if err := r.dirtyAndPersist(); err != nil {
			return err
		}
		caps = r.ctx.TakeCaptured()
		flat = flat[:0]
		for _, cc := range caps {
			flat = append(flat, cc.Pages...)
		}
		seq++
		d = replica.Delta{Shard: 0, Seq: seq, Pages: flat}
		_, st := fol.Apply(r.ctx.Clock().Now(), &d)
		if st.Code != replica.ApplyOK {
			return fmt.Errorf("perfbench: follower apply seq %d: code %d", seq, st.Code)
		}
		releaseCaptured(caps)
		return nil
	}
	return measure("persist_capture_replicated",
		"dirty 16 pages + Persist(MSSync) + capture + follower Apply (MSSync) + release",
		ops, &r.ctx.PersistLatency, op)
}

// releaseCaptured returns every captured page to the capture pool.
func releaseCaptured(caps []core.CapturedCommit) {
	for i := range caps {
		caps[i].Release()
	}
}
