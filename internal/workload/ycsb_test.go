package workload

import (
	"testing"

	"memsnap/internal/sim"
)

// TestYCSBDeterministicReplay pins that two generators built from the
// same seed and config emit identical op streams, and that a different
// seed diverges.
func TestYCSBDeterministicReplay(t *testing.T) {
	cfg := YCSBConfig{Records: 512, ReadPct: 40, UpdatePct: 30, InsertPct: 20, RMWPct: 10, Theta: 0.99}
	a := NewYCSB(42, cfg)
	b := NewYCSB(42, cfg)
	c := NewYCSB(43, cfg)
	diverged := false
	for i := 0; i < 5000; i++ {
		oa, ob, oc := a.Next(), b.Next(), c.Next()
		if oa != ob {
			t.Fatalf("op %d: same seed diverged: %+v vs %+v", i, oa, ob)
		}
		if oa != oc {
			diverged = true
		}
	}
	if !diverged {
		t.Fatalf("different seeds produced identical 5000-op streams")
	}
	if a.Keys() != b.Keys() {
		t.Fatalf("keyspace growth diverged: %d vs %d", a.Keys(), b.Keys())
	}
}

// TestYCSBMixRatios draws a large sample and checks the realized
// operation mix lands within tolerance of the configured percentages.
func TestYCSBMixRatios(t *testing.T) {
	cases := []struct {
		name string
		cfg  YCSBConfig
	}{
		{"workload-a", YCSBWorkloadA()},
		{"workload-b", YCSBWorkloadB()},
		{"workload-f", YCSBWorkloadF()},
		{"custom", YCSBConfig{ReadPct: 40, UpdatePct: 30, InsertPct: 20, RMWPct: 10}},
	}
	const n = 100000
	const tolerance = 1.5 // percentage points
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			y := NewYCSB(7, tc.cfg)
			var counts [4]int
			for i := 0; i < n; i++ {
				counts[y.Next().Kind]++
			}
			want := [4]int{tc.cfg.ReadPct, tc.cfg.UpdatePct, tc.cfg.InsertPct, tc.cfg.RMWPct}
			for k, w := range want {
				got := float64(counts[k]) * 100 / n
				if got < float64(w)-tolerance || got > float64(w)+tolerance {
					t.Errorf("%v: got %.2f%%, want %d%% ±%.1f", YCSBKind(k), got, w, tolerance)
				}
			}
		})
	}
}

// TestYCSBZipfMatchesSimZipf pins the key-choice path to sim.Zipf
// exactly: for a read-only mix (no keyspace growth), every key must be
// the sample a reference sim.Zipf draws from a replayed RNG.
func TestYCSBZipfMatchesSimZipf(t *testing.T) {
	cfg := YCSBConfig{ReadPct: 100, Theta: 0.99} // workload C: read-only
	cfg.Records = 1024
	y := NewYCSB(99, cfg)
	ref := sim.NewRNG(99)
	zipf := sim.NewZipf(1024, cfg.Theta)
	for i := 0; i < 5000; i++ {
		op := y.Next()
		if op.Kind != YCSBRead {
			t.Fatalf("op %d: workload C produced %v", i, op.Kind)
		}
		ref.Intn(100) // the generator's mix draw
		if want := zipf.Next(ref); op.Key != want {
			t.Fatalf("op %d: key %d, want sim.Zipf sample %d", i, op.Key, want)
		}
	}
}

// TestYCSBHotKeyConcentration checks zipfian skew concentrates mass on
// a small hot set — and that uniform (Theta=0) does not.
func TestYCSBHotKeyConcentration(t *testing.T) {
	const records = 1000
	const n = 50000
	mass := func(theta float64) float64 {
		cfg := YCSBConfig{Records: records, ReadPct: 100, Theta: theta}
		y := NewYCSB(5, cfg)
		counts := make([]int, records)
		for i := 0; i < n; i++ {
			counts[y.Next().Key]++
		}
		// sim.Zipf ranks keys by id: the hot set is the lowest ids.
		hot := 0
		for k := 0; k < records/100; k++ { // hottest 1%
			hot += counts[k]
		}
		return float64(hot) / n
	}
	if m := mass(0.99); m < 0.25 {
		t.Errorf("theta=0.99: hottest 1%% of keys got %.1f%% of accesses, want >= 25%%", m*100)
	}
	if m := mass(0); m > 0.05 {
		t.Errorf("uniform: hottest 1%% of keys got %.1f%% of accesses, want <= 5%%", m*100)
	}
}

// TestYCSBInsertGrowsKeyspace checks inserts extend the keyspace with
// consecutive fresh keys and later picks can land on them.
func TestYCSBInsertGrowsKeyspace(t *testing.T) {
	cfg := YCSBConfig{Records: 64, InsertPct: 50, ReadPct: 50, Theta: 0.99}
	y := NewYCSB(3, cfg)
	next := int64(64)
	sawGrownRead := false
	for i := 0; i < 2000; i++ {
		op := y.Next()
		switch op.Kind {
		case YCSBInsert:
			if op.Key != next {
				t.Fatalf("insert %d: key %d, want %d", i, op.Key, next)
			}
			next++
		case YCSBRead:
			if op.Key >= y.Keys() {
				t.Fatalf("read key %d outside keyspace %d", op.Key, y.Keys())
			}
			if op.Key >= 64 {
				sawGrownRead = true
			}
		}
	}
	if y.Keys() != next {
		t.Fatalf("Keys() = %d, want %d", y.Keys(), next)
	}
	if !sawGrownRead {
		t.Errorf("no read ever landed on an inserted key")
	}
}
