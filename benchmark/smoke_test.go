package main

import (
	"io"
	"math"
	"path/filepath"
	"testing"

	"memsnap/internal/lint"
	"memsnap/internal/sim"
)

// TestSmoke runs every workload both ways at a short window and checks
// that every named metric comes back finite with its unit and clock,
// that no operation fails and that the end-of-round checks hold.
func TestSmoke(t *testing.T) {
	outDir = t.TempDir()
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			res, err := runUntraced(w, options{seed: 1, seconds: 0.3})
			if err != nil {
				t.Fatal(err)
			}
			checkResult(t, res, endToEnd, true)

			res, err = runTraced(w, options{seed: 1, seconds: 1}, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			checkResult(t, res, perLayer, false)
			if w.name == "persist_64k" {
				m := res.Metrics
				parts := m["core.entry_virt_us"].Value + m["core.reset_virt_us"].Value + m["core.initiate_virt_us"].Value + m["core.wait_io_virt_us"].Value
				if mean := m["core.persist_virt_mean_us"].Value; math.Abs(parts-mean) > 1e-6*mean {
					t.Errorf("Persist stages sum to %v us, mean total is %v us", parts, mean)
				}
			}
		})
	}
}

func checkResult(t *testing.T, res result, defs []metric, nonZero bool) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
	for _, d := range defs {
		v, ok := res.Metrics[d.name]
		switch {
		case !ok:
			t.Errorf("%s: missing", d.name)
		case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
			t.Errorf("%s: %v is not finite", d.name, v.Value)
		case v.Unit != d.unit || v.Clock != d.clock:
			t.Errorf("%s: unit %q clock %q, want %q %q", d.name, v.Unit, v.Clock, d.unit, d.clock)
		case nonZero && v.Value <= 0:
			t.Errorf("%s: %v, an end-to-end metric is never zero", d.name, v.Value)
		}
	}
}

// TestExactReplay is the promise behind the tightest bounds: a
// single-threaded workload replayed with the same seed for the same
// number of operations reports bit-identical virtual-time and count
// metrics.
func TestExactReplay(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		if w.spec.clients > 1 {
			continue
		}
		t.Run(w.name, func(t *testing.T) {
			o := options{seed: 5, seconds: 30, ops: 1500}
			a, err := runUntraced(w, o)
			if err != nil {
				t.Fatal(err)
			}
			b, err := runUntraced(w, o)
			if err != nil {
				t.Fatal(err)
			}
			for _, name := range exactMetrics {
				va, vb := a.Metrics[name].Value, b.Metrics[name].Value
				if va != vb {
					t.Errorf("%s: %v then %v on the same seed", name, va, vb)
				}
			}
			if a.Attempted != b.Attempted {
				t.Errorf("attempted %d then %d", a.Attempted, b.Attempted)
			}
		})
	}
}

// TestSeedChangesStream checks that the operation stream is a function
// of the seed: the same seed repeats it, another seed does not.
func TestSeedChangesStream(t *testing.T) {
	stream := func(seed uint64) []kvOp {
		b := newKV(workloads[0].spec, seed, false, false)
		b.ks = newKeyspace(b.spec.tenants, b.spec.keys, seed)
		g := b.gen(0)
		ops := make([]kvOp, 200)
		for i := range ops {
			ops[i] = g.next()
		}
		return ops
	}
	same := func(a, b []kvOp) bool {
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if !same(stream(1), stream(1)) {
		t.Error("the same seed gave two different operation streams")
	}
	if same(stream(1), stream(2)) {
		t.Error("seeds 1 and 2 gave the same operation stream")
	}
	if x, y := sim.NewRNG(1).Uint64(), sim.NewRNG(2).Uint64(); x == y {
		t.Error("sim.RNG ignores its seed")
	}
}

// TestLint holds the benchmark to the repository's design rules. The
// package is loaded under a cmd/ import path so the rules scoped to
// binaries apply to it too: all randomness from sim.RNG, every
// wall-clock read annotated //lint:allow walltime with its reason, and
// sockets only through netsvc.
func TestLint(t *testing.T) {
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	loader, err := lint.NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.LoadDir(filepath.Join(root, "benchmark"), "memsnap/cmd/benchmark")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range lint.Run(pkgs, lint.Analyzers()) {
		t.Errorf("%s", d)
	}
}
