// Command benchmark is the repository's one performance benchmark:
// five closed-loop workloads over the serving stack, reported in two
// clocks (host time and the simulation's virtual time), with a traced
// run that splits the cost by layer. See README.md for the glossary
// and BENCHMARK.json at the repository root for the contract the
// driver holds it to.
//
// With -workload it makes one run in this process and prints the
// result as the last line of its standard output; without, it runs the
// whole suite in child processes, three interleaved rounds a workload,
// and prints medians.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	"memsnap/internal/obs"
)

// bench is one assembled system under test.
type bench interface {
	setup() error
	// drive runs closed-loop clients against the system until the
	// meter says stop, and returns when every client has finished.
	drive(m *meter)
	// read fills the layer counters the system has.
	read(c *counters)
	// verify is the end-of-round correctness and durability check.
	verify() error
	// extra adds the metrics only this bench can measure, after verify.
	extra(out map[string]float64)
	// recorder is the system's own trace recorder in a traced run.
	recorder() *obs.Recorder
	close() error
}

// workload names one of the five and says how to build it. twin, when
// set, builds the same operation stream with one layer taken out, for
// self times by difference.
type workload struct {
	name    string
	why     string
	seconds float64 // measured window in suite mode
	spec    kvSpec  // zero for persist_64k
	twin    func(kvSpec) kvSpec
}

var workloads = []workload{
	{
		name:    "net_get95_d16",
		why:     "real TCP, 2 connections x depth 16, 95% get: wire-bound, so proto and netsvc syscalls do most of the work",
		seconds: 7,
		spec:    kvSpec{shards: 8, regionBytes: 4 << 20, tenants: 4, keys: 10000, getPct: 95, via: viaTCP, clients: 2, depth: 16},
		twin:    func(s kvSpec) kvSpec { s.via = viaTagged; return s },
	},
	{
		name:    "net_write_d1",
		why:     "same server, 2 connections x depth 1, 100% add: every op is a lone round trip plus its own group commit, latency-bound",
		seconds: 7,
		spec:    kvSpec{shards: 8, regionBytes: 4 << 20, tenants: 4, keys: 10000, getPct: 0, via: viaTCP, clients: 2, depth: 1},
		twin:    func(s kvSpec) kvSpec { s.via = viaTagged; return s },
	},
	{
		name:    "shard_rw50_d16",
		why:     "in-process DoTagged, 2 submitters x 16 in flight, 50% add: bypasses the wire; queueing, group commit, COW faults and disk do the work",
		seconds: 7,
		spec:    kvSpec{shards: 8, regionBytes: 4 << 20, tenants: 4, keys: 10000, getPct: 50, via: viaTagged, clients: 2, depth: 16},
	},
	{
		name:    "persist_64k",
		why:     "one thread on the core API: dirty 16 random pages of a 64 MiB region, Persist(MSSync); the paper's Table 5/6 operation",
		seconds: 4,
	},
	{
		name:    "replica_sync_rw50",
		why:     "one blocking caller, 2 shards, synchronous sub-page replication to a follower: capture, diff, encode, ship and apply do the work",
		seconds: 4,
		spec:    kvSpec{shards: 2, regionBytes: 16 << 20, tenants: 1, keys: 50000, getPct: 50, via: viaDo, clients: 1, depth: 1, replicated: true},
		twin:    func(s kvSpec) kvSpec { s.replicated = false; return s },
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

func (w *workload) build(spec kvSpec, o options, traced bool) bench {
	if w.name == "persist_64k" {
		return newPersist(o.seed, traced)
	}
	return newKV(spec, o.seed, traced, o.ops > 0)
}

// options are the command line.
type options struct {
	workload   string
	seed       uint64
	seconds    float64
	trace      int
	ops        int64
	only       string
	aa         bool
	full       bool
	cpuProfile string
	memProfile string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run this one workload in this process and print its result (the driver's mode)")
	flag.Uint64Var(&o.seed, "seed", 1, "seed of the generated operation streams")
	flag.Float64Var(&o.seconds, "seconds", 0, "measured window in seconds (default: the workload's own)")
	flag.IntVar(&o.trace, "trace", 0, "1: traced run, prints the per-layer metrics; 0: untraced run, prints the end-to-end metrics")
	flag.Int64Var(&o.ops, "ops", 0, "end the measured phase after this many operations instead of -seconds: single-threaded workloads then replay bit for bit")
	flag.StringVar(&o.only, "only", "", "suite mode: run only this workload")
	flag.BoolVar(&o.aa, "aa", false, "suite mode: run the untraced pass twice and compare the medians against the bounds")
	flag.BoolVar(&o.full, "full", false, "with -workload: widen the result line to every metric measured, with its clock")
	flag.StringVar(&o.cpuProfile, "cpuprofile", "", "write a CPU profile of the run (suite mode: forwarded to each child, suffixed)")
	flag.StringVar(&o.memProfile, "memprofile", "", "write a heap profile at the end of the run (suite mode: forwarded, suffixed)")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "benchmark: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}
	var err error
	if o.workload != "" {
		err = runSingle(o, os.Stdout)
	} else {
		err = runSuite(o, os.Stdout)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		os.Exit(1)
	}
}

// result is the last line of a single run's output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	// Env rides along only with -full.
	Env *fingerprint `json:"env,omitempty"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Clock string  `json:"clock,omitempty"`
}

// pass is the outcome of one set-up, warm-up, measured phase and
// verification of one bench.
type pass struct {
	host      hostStats
	vals      map[string]float64
	attempted int64
	failed    int64
	traces    []*tracer
	err       error // verification failure: the pass is incorrect
}

// passSpec says how to make a pass.
type passSpec struct {
	mk     func() bench
	length time.Duration
	maxOps int64 // when positive, ends the measured phase instead of length
	// repeatSetup makes the pass set its system up several times, so
	// that setup_s is a median: at least minSetups times, and quick
	// set-ups further, up to maxSetups or setupBudget of host time (a
	// 0.1 s set-up timed five times is mostly noise). Only the last
	// system is measured.
	repeatSetup bool
	// after, when set, runs on the live system between the measured
	// phase and verification (micro passes that need the system).
	after func(bench, map[string]float64) error
	// obsOut, when set, receives the events of the system's own
	// obs.Recorder as Chrome trace JSON.
	obsOut string
}

// warmup is the longest warm-up; a short measured phase gets a shorter
// one.
const warmup = time.Second

const (
	minSetups   = 5
	maxSetups   = 15
	setupBudget = 2 * time.Second
)

// outDir is where a traced run leaves its trace files.
var outDir = "out"

func runPass(ps passSpec) (*pass, error) {
	var b bench
	var setupS []float64
	var spent time.Duration
	for i := 0; i == 0 || (ps.repeatSetup && (i < minSetups || (i < maxSetups && spent < setupBudget))); i++ {
		if b != nil {
			if err := b.close(); err != nil {
				return nil, fmt.Errorf("close: %w", err)
			}
		}
		start := now()
		b = ps.mk()
		if err := b.setup(); err != nil {
			b.close()
			return nil, fmt.Errorf("set-up: %w", err)
		}
		d := time.Since(start) //lint:allow walltime setup_s is host time
		spent += d
		setupS = append(setupS, d.Seconds())
	}
	p, err := measure(b, ps)
	if cerr := b.close(); err == nil && cerr != nil {
		err = fmt.Errorf("close: %w", cerr)
	}
	if err != nil {
		return nil, err
	}
	p.vals["setup_s"] = median(setupS)
	return p, nil
}

// measure warms b up, measures one phase with the layer counters read
// on both sides of it, and verifies the outcome.
func measure(b bench, ps passSpec) (*pass, error) {
	warm := newMeter(min(warmup, ps.length/2), ps.maxOps/4)
	warm.begin()
	b.drive(warm)

	var c0, c1 counters
	readProcess(&c0)
	b.read(&c0)
	m := newMeter(ps.length, ps.maxOps)
	cpu0 := cpuTime()
	m.begin()
	done := make(chan struct{})
	sampled := m.sampleCPU(done)
	b.drive(m)
	close(done)
	<-sampled
	cpu1 := cpuTime()
	b.read(&c1)
	readProcess(&c1)

	p := &pass{host: m.summarize(), vals: map[string]float64{}, attempted: warm.attempted + m.attempted, failed: warm.failed + m.failed, traces: m.traces}
	if p.host.ops == 0 {
		return nil, fmt.Errorf("no operation completed in the measured phase")
	}
	if p.host.cpuPerOp == 0 { // the phase was shorter than one window
		p.host.cpuPerOp = us(cpu1-cpu0) / float64(p.host.ops)
	}
	countMetrics(&c0, &c1, p.host.ops, m.writes, p.vals)
	p.vals["ops_per_s"] = p.host.opsPerS
	p.vals["lat_p50_us"] = p.host.p50Us
	p.vals["lat_p90_us"] = p.host.p90Us
	p.vals["cpu_us_per_op"] = p.host.cpuPerOp
	p.vals["client.lat_p99_us"] = p.host.p99Us
	p.vals["client.lat_p999_us"] = p.host.p999Us
	p.vals["client.lat_max_us"] = p.host.maxUs
	p.vals["client.samples"] = float64(p.host.ops)
	p.vals["client.window_cv"] = p.host.windowCV
	if ps.after != nil {
		if err := ps.after(b, p.vals); err != nil {
			return nil, err
		}
	}
	p.err = b.verify()
	b.extra(p.vals)
	if rec := b.recorder(); rec != nil && ps.obsOut != "" {
		err := writeFile(ps.obsOut, func(w io.Writer) error { return obs.WriteTrace(w, rec.Drain()) })
		if err != nil {
			return nil, err
		}
	}
	return p, nil
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// runSingle is the driver's mode: one workload, one process, one
// result line.
func runSingle(o options, stdout io.Writer) error {
	w := findWorkload(o.workload)
	if w == nil {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.seconds <= 0 {
		o.seconds = w.seconds
	}
	if o.cpuProfile != "" {
		f, err := os.Create(o.cpuProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	env := takeFingerprint()
	fmt.Fprintf(stdout, "# %s seed=%d seconds=%g trace=%d | %s\n", w.name, o.seed, o.seconds, o.trace, env)

	var res result
	var report []metric
	var err error
	if o.trace == 0 {
		res, err = runUntraced(w, o)
		report = endToEnd
	} else {
		res, err = runTraced(w, o, stdout)
		report = perLayer
	}
	if err != nil {
		return err
	}
	if o.memProfile != "" {
		f, err := os.Create(o.memProfile)
		if err != nil {
			return err
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}

	printTable(stdout, w.name, res.Metrics)
	fmt.Fprintf(stdout, "ops_attempted %d  ops_failed %d  correct %v\n", res.Attempted, res.Failed, res.Correct)
	if !o.full {
		// The driver's contract: exactly the listed metrics, value and
		// unit only.
		listed := make(map[string]metricValue, len(report))
		for _, d := range report {
			v := res.Metrics[d.name]
			listed[d.name] = metricValue{Value: v.Value, Unit: d.unit}
		}
		res.Metrics = listed
	} else {
		res.Env = &env
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}

// describe attaches unit and clock to the measured values. A value
// that is not finite (a ratio over nothing) reads zero.
func describe(vals map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(vals))
	for _, defs := range [][]metric{endToEnd, perLayer} {
		for _, d := range defs {
			v, ok := vals[d.name]
			if !ok {
				continue
			}
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			out[d.name] = metricValue{Value: v, Unit: d.unit, Clock: d.clock}
		}
	}
	return out
}

// printTable prints every measured metric that applies to the
// workload, by name, with its unit and clock.
func printTable(w io.Writer, workload string, ms map[string]metricValue) {
	for _, defs := range [][]metric{endToEnd, perLayer} {
		for _, d := range defs {
			if v, ok := ms[d.name]; ok && d.appliesTo(workload) {
				fmt.Fprintf(w, "%-42s %16.4f %-6s %s\n", d.name, v.Value, v.Unit, v.Clock)
			}
		}
	}
}

func runUntraced(w *workload, o options) (result, error) {
	p, err := runPass(passSpec{
		mk:     func() bench { return w.build(w.spec, o, false) },
		length: seconds(o.seconds), maxOps: o.ops,
		repeatSetup: o.ops == 0, // an exact-replay run is not about set-up time
	})
	if err != nil {
		return result{}, err
	}
	if p.err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: verification failed: %v\n", w.name, p.err)
	}
	return result{Correct: p.err == nil && p.failed == 0, Attempted: p.attempted, Failed: p.failed, Metrics: describe(p.vals)}, nil
}

// runTraced makes the traced run. Its window is split between an
// untraced reference pass (the baseline of the tracing overhead, and
// the source of the workload-specific end-to-end metrics), the traced
// pass proper, the twin pass where the workload has one, and the micro
// passes. End-to-end metrics are never taken from here.
func runTraced(w *workload, o options, stdout io.Writer) (result, error) {
	share := func(f float64, spec kvSpec, traced bool) passSpec {
		return passSpec{
			mk:     func() bench { return w.build(spec, o, traced) },
			length: seconds(o.seconds * f), maxOps: int64(float64(o.ops) * f),
		}
	}
	ref, err := runPass(share(0.3, w.spec, false))
	if err != nil {
		return result{}, fmt.Errorf("reference pass: %w", err)
	}
	ps := share(0.4, w.spec, true)
	ps.after = func(b bench, out map[string]float64) error { return microPasses(b, o.seed, out) }
	ps.obsOut = filepath.Join(outDir, "obs-"+w.name+".json")
	tr, err := runPass(ps)
	if err != nil {
		return result{}, fmt.Errorf("traced pass: %w", err)
	}
	vals := tr.vals
	for _, d := range workloadSpecific {
		vals[d.name] = ref.vals[d.name]
	}
	vals["obs.trace_overhead_share"] = 1 - ratio(tr.host.opsPerS, ref.host.opsPerS)
	passes := []*pass{ref, tr}
	if w.twin != nil {
		twin, err := runPass(share(0.2, w.twin(w.spec), false))
		if err != nil {
			return result{}, fmt.Errorf("twin pass: %w", err)
		}
		passes = append(passes, twin)
		if w.spec.via == viaTCP {
			vals["netsvc.wire_self_us_per_op"] = ref.host.cpuPerOp - twin.host.cpuPerOp
			vals["netsvc.wire_self_lat_p50_us"] = ref.host.p50Us - twin.host.p50Us
		} else {
			vals["replica.self_us_per_op"] = ref.host.cpuPerOp - twin.host.cpuPerOp
		}
	}

	if err := writeChromeTrace(filepath.Join(outDir, "trace-"+w.name+".json"), tr.traces); err != nil {
		return result{}, err
	}
	fmt.Fprintf(stdout, "%-28s %10s %14s %14s\n", "span", "count", "mean_us", "self_mean_us")
	for name, a := range mergeAggs(tr.traces) {
		if a.count > 0 {
			fmt.Fprintf(stdout, "%-28s %10d %14.3f %14.3f\n", spanLabels[name], a.count,
				float64(a.totalNs)/float64(a.count)/1e3, float64(a.selfNs)/float64(a.count)/1e3)
		}
	}

	res := result{Correct: true}
	for i, p := range passes {
		res.Attempted += p.attempted
		res.Failed += p.failed
		if p.err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: pass %d: verification failed: %v\n", w.name, i, p.err)
		}
		if p.err != nil || p.failed > 0 {
			res.Correct = false
		}
	}
	// A traced run reports every per-layer metric; the ones whose layer
	// the workload does not run read zero.
	for _, d := range perLayer {
		if _, ok := vals[d.name]; !ok {
			vals[d.name] = 0
		}
	}
	for _, d := range endToEnd {
		delete(vals, d.name)
	}
	res.Metrics = describe(vals)
	return res, nil
}

// microPasses runs the isolated passes of the layers b has, on the
// live system where a pass needs one.
func microPasses(b bench, seed uint64, out map[string]float64) error {
	microDisk(seed, out)
	if err := microObjstore(seed, out); err != nil {
		return fmt.Errorf("objstore micro pass: %w", err)
	}
	kv, ok := b.(*kvBench)
	if !ok {
		return nil
	}
	microGen(kv.gen(1<<21), out)
	if err := microShardRead(kv, out); err != nil {
		return fmt.Errorf("shard micro pass: %w", err)
	}
	if kv.spec.via == viaTCP {
		if err := microProto(kv.gen(1<<22), out); err != nil {
			return fmt.Errorf("proto micro pass: %w", err)
		}
	}
	if kv.spec.replicated {
		if err := microReplicaApply(seed, kv.spec.regionBytes, out); err != nil {
			return fmt.Errorf("replica micro pass: %w", err)
		}
	}
	return nil
}
