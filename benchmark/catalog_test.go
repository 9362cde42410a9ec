package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// benchmarkJSON is the driver's contract file at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

// TestBenchmarkJSONMatchesCatalogue keeps the contract file and the
// program's own tables from drifting apart.
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Paths) != 1 || bj.Paths[0] != "benchmark" {
		t.Errorf("paths %v, want [benchmark]", bj.Paths)
	}
	if bj.RunSeconds < 1 || bj.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", bj.RunSeconds)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.name || bj.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), program has %q (%q)", i, bj.Workloads[i].Name, bj.Workloads[i].Why, w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("workload %s: why is %d characters, limit 200", w.name, len(w.why))
		}
	}
	if len(bj.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end_to_end metrics in BENCHMARK.json, %d in the program", len(bj.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		got := bj.EndToEnd[i]
		if got.Name != d.name || got.Unit != d.unit || got.Better != d.better || got.Bound != d.bound {
			t.Errorf("end_to_end %d: BENCHMARK.json has %+v, program has %+v", i, got, d)
		}
		if d.bound <= 0 || d.bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.name, d.bound)
		}
	}
	if len(bj.PerLayer) != len(perLayer) {
		t.Fatalf("%d per_layer metrics in BENCHMARK.json, %d in the program", len(bj.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		got := bj.PerLayer[i]
		if got.Name != d.name || got.Unit != d.unit || got.Better != d.better {
			t.Errorf("per_layer %d: BENCHMARK.json has %+v, program has %+v", i, got, d)
		}
	}
}

// TestCatalogueNames holds names and units to the contract's limits and
// the README glossary to the catalogue.
func TestCatalogueNames(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	check := func(name string) {
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
		if len(name) == 0 || len(name) > 64 || strings.Trim(name, "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_.-") != "" {
			t.Errorf("name %q breaks the contract's naming rule", name)
		}
		if !strings.Contains(string(readme), "`"+name+"`") {
			t.Errorf("README.md does not mention `%s`", name)
		}
	}
	for _, w := range workloads {
		check(w.name)
	}
	for _, defs := range [][]metric{endToEnd, perLayer} {
		for _, d := range defs {
			check(d.name)
			if len(d.unit) == 0 || len(d.unit) > 16 || strings.Trim(d.unit, "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_/%.-") != "" {
				t.Errorf("%s: unit %q breaks the contract's rule", d.name, d.unit)
			}
			if d.clock != "host" && d.clock != "virtual" && d.clock != "count" {
				t.Errorf("%s: clock %q", d.name, d.clock)
			}
			if d.better != "lower" && d.better != "higher" {
				t.Errorf("%s: better %q", d.name, d.better)
			}
			for _, w := range d.only {
				if findWorkload(w) == nil {
					t.Errorf("%s: applies to unknown workload %q", d.name, w)
				}
			}
		}
	}
}
