package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// rounds is how many times the suite runs each workload. Machine noise
// here drifts on a scale of tens of seconds, so the rounds of one
// workload are spaced out by interleaving (A B C D E, A B C D E, ...)
// and the reported value is the median of the rounds.
const rounds = 3

// tracedSeconds is the window a traced child splits between its
// passes in suite mode.
const tracedSeconds = 10

// samples holds, per workload and metric, one value per round.
type samples map[string]map[string][]float64

// child runs one workload once in a fresh process of this program, so
// runtime.MemStats, getrusage and /proc/self/io bracket that run and
// nothing else. tag makes forwarded profile paths unique.
func child(o options, w *workload, trace int, tag string) (result, error) {
	exe, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	secs := o.seconds
	if secs <= 0 {
		secs = w.seconds
		if trace == 1 {
			secs = tracedSeconds
		}
	}
	args := []string{
		"-workload", w.name, "-seed", strconv.FormatUint(o.seed, 10),
		"-seconds", strconv.FormatFloat(secs, 'g', -1, 64), "-trace", strconv.Itoa(trace), "-full",
	}
	if o.ops > 0 {
		args = append(args, "-ops", strconv.FormatInt(o.ops, 10))
	}
	if o.cpuProfile != "" {
		args = append(args, "-cpuprofile", o.cpuProfile+"."+w.name+"."+tag)
	}
	if o.memProfile != "" {
		args = append(args, "-memprofile", o.memProfile+"."+w.name+"."+tag)
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return result{}, fmt.Errorf("%s: %w", w.name, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return result{}, fmt.Errorf("%s: result line: %w", w.name, err)
	}
	if !res.Correct {
		return res, fmt.Errorf("%s: incorrect run: %d of %d operations failed or the end-of-round check did not hold", w.name, res.Failed, res.Attempted)
	}
	return res, nil
}

// suitePass runs every selected workload for the given number of
// interleaved rounds.
func suitePass(o options, ws []*workload, trace, n int, label string, stdout io.Writer) (samples, *fingerprint, error) {
	got := samples{}
	var env *fingerprint
	for r := 1; r <= n; r++ {
		for _, w := range ws {
			res, err := child(o, w, trace, fmt.Sprintf("%sr%d", label, r))
			if err != nil {
				return nil, nil, err
			}
			env = res.Env
			if got[w.name] == nil {
				got[w.name] = map[string][]float64{}
			}
			for name, v := range res.Metrics {
				got[w.name][name] = append(got[w.name][name], v.Value)
			}
			got[w.name]["ops_attempted"] = append(got[w.name]["ops_attempted"], float64(res.Attempted))
			got[w.name]["ops_failed"] = append(got[w.name]["ops_failed"], float64(res.Failed))
			fmt.Fprintf(stdout, "%s round %d/%d  %-18s %12.0f ops/s  %d ops, %d failed\n",
				label, r, n, w.name, res.Metrics["ops_per_s"].Value, res.Attempted, res.Failed)
		}
	}
	return got, env, nil
}

func selectWorkloads(only string) ([]*workload, error) {
	if only != "" {
		w := findWorkload(only)
		if w == nil {
			return nil, fmt.Errorf("unknown workload %q", only)
		}
		return []*workload{w}, nil
	}
	ws := make([]*workload, len(workloads))
	for i := range workloads {
		ws[i] = &workloads[i]
	}
	return ws, nil
}

// printSamples prints the median of each metric's rounds with min and
// max beside it. applies filters by workload.
func printSamples(w io.Writer, ws []*workload, got samples, defs []metric) {
	for _, wl := range ws {
		fmt.Fprintf(w, "\n%s\n  %-40s %14s %14s %14s  %-6s %-8s %-7s %s\n", wl.name,
			"metric", "median", "min", "max", "unit", "clock", "better", "bound")
		for _, d := range defs {
			v := got[wl.name][d.name]
			if len(v) == 0 || !d.appliesTo(wl.name) {
				continue
			}
			lo, hi := minMax(v)
			bound := ""
			if d.bound > 0 {
				bound = strconv.FormatFloat(d.bound, 'g', -1, 64)
			}
			fmt.Fprintf(w, "  %-40s %14.4f %14.4f %14.4f  %-6s %-8s %-7s %s\n",
				d.name, median(v), lo, hi, d.unit, d.clock, d.better, bound)
		}
		fmt.Fprintf(w, "  %-40s %14.0f\n  %-40s %14.0f\n", "ops_attempted", median(got[wl.name]["ops_attempted"]),
			"ops_failed", median(got[wl.name]["ops_failed"]))
	}
}

func minMax(v []float64) (lo, hi float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s[0], s[len(s)-1]
}

// suiteMetrics is what the untraced suite prints.
func suiteMetrics() []metric { return append(append([]metric(nil), endToEnd...), workloadSpecific...) }

func runSuite(o options, stdout io.Writer) error {
	ws, err := selectWorkloads(o.only)
	if err != nil {
		return err
	}
	if o.aa {
		return runAA(o, ws, stdout)
	}
	got, env, err := suitePass(o, ws, 0, rounds, "", stdout)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "environment: %s\n", env)
	printSamples(stdout, ws, got, suiteMetrics())
	if o.trace == 0 {
		return nil
	}
	traced, _, err := suitePass(o, ws, 1, 1, "traced ", stdout)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "\nper-layer metrics (traced run; traces under out/)\n")
	printSamples(stdout, ws, traced, perLayer)
	return nil
}

// aaRule is how the A/A comparison treats one metric: the relative
// bound, and the absolute difference below which it is ignored (a
// relative bound on a value near zero means nothing).
type aaRule struct {
	metric
	floor float64
}

func aaRules() []aaRule {
	var rules []aaRule
	for _, d := range endToEnd {
		r := aaRule{metric: d}
		if d.name == "setup_s" {
			r.floor = 0.2
		}
		rules = append(rules, r)
	}
	for _, d := range workloadSpecific {
		switch d.name {
		case "allocs_per_op":
			d.bound = 0.02
			rules = append(rules, aaRule{d, 0.01})
		case "heap_growth_b_per_op":
			d.bound = 0.10
			rules = append(rules, aaRule{d, 16})
		}
	}
	return rules
}

// exactMetrics must repeat bit for bit when a single-threaded workload
// replays the same seed for the same number of operations.
var exactMetrics = []string{"disk_bytes_per_op", "virt_us_per_op", "persist_virt_us", "repl_wire_bytes_per_write"}

// exactOps is the operation budget of the exact-replay check.
const exactOps = 20000

// runAA runs the untraced suite twice on the same code and holds the
// two sets of medians to the benchmark's own bounds: the tool behind
// the acceptance rule that two runs of one commit must agree.
func runAA(o options, ws []*workload, stdout io.Writer) error {
	a, env, err := suitePass(o, ws, 0, rounds, "A ", stdout)
	if err != nil {
		return err
	}
	b, _, err := suitePass(o, ws, 0, rounds, "B ", stdout)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "environment: %s\n", env)
	misses := 0
	fmt.Fprintf(stdout, "\n%-18s %-22s %14s %14s %9s %7s\n", "workload", "metric", "median A", "median B", "worse by", "bound")
	for _, w := range ws {
		for _, r := range aaRules() {
			ma, mb := median(a[w.name][r.name]), median(b[w.name][r.name])
			worse := mb - ma
			if r.better == "higher" {
				worse = ma - mb
			}
			rel := ratio(worse, math.Abs(ma))
			verdict := ""
			if math.Abs(mb-ma) >= r.floor && math.Abs(rel) > r.bound {
				verdict = "MISS"
				misses++
			}
			fmt.Fprintf(stdout, "%-18s %-22s %14.4f %14.4f %+8.2f%% %6.1f%% %s\n", w.name, r.name, ma, mb, 100*rel, 100*r.bound, verdict)
		}
	}

	fmt.Fprintf(stdout, "\nexact replay (-ops %d, same seed, two runs):\n", exactOps)
	exact := o
	exact.ops = exactOps
	for _, w := range ws {
		if w.spec.clients > 1 {
			continue // concurrent clients interleave differently every run
		}
		x, err := child(exact, w, 0, "x1")
		if err != nil {
			return err
		}
		y, err := child(exact, w, 0, "x2")
		if err != nil {
			return err
		}
		for _, name := range exactMetrics {
			vx, vy := x.Metrics[name], y.Metrics[name]
			if vx.Value == 0 && vy.Value == 0 {
				continue // not a metric of this workload
			}
			verdict := "identical"
			if vx.Value != vy.Value {
				verdict = "MISS"
				misses++
			}
			fmt.Fprintf(stdout, "%-18s %-26s %v %v %s\n", w.name, name, vx.Value, vy.Value, verdict)
		}
	}
	if misses > 0 {
		return fmt.Errorf("A/A: %d metric(s) outside their bound", misses)
	}
	fmt.Fprintln(stdout, "\nA/A: every workload x metric within its bound")
	return nil
}
