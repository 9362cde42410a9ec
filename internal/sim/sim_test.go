package sim

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestClockAdvance(t *testing.T) {
	c := NewClock()
	if c.Now() != 0 {
		t.Fatalf("new clock not at zero: %v", c.Now())
	}
	c.Advance(5 * time.Microsecond)
	if got := c.Now(); got != 5*time.Microsecond {
		t.Fatalf("Advance: got %v", got)
	}
	c.Advance(-time.Second) // negative ignored
	if got := c.Now(); got != 5*time.Microsecond {
		t.Fatalf("negative Advance moved clock: %v", got)
	}
}

func TestClockAdvanceTo(t *testing.T) {
	c := NewClock()
	c.AdvanceTo(10 * time.Microsecond)
	c.AdvanceTo(4 * time.Microsecond) // earlier: no-op
	if got := c.Now(); got != 10*time.Microsecond {
		t.Fatalf("AdvanceTo moved clock backwards: %v", got)
	}
	c.AdvanceTo(25 * time.Microsecond)
	if got := c.Now(); got != 25*time.Microsecond {
		t.Fatalf("AdvanceTo: got %v", got)
	}
}

func TestClockMonotonicProperty(t *testing.T) {
	f := func(deltas []int16) bool {
		c := NewClock()
		prev := c.Now()
		for _, d := range deltas {
			c.Advance(time.Duration(d))
			if c.Now() < prev {
				return false
			}
			prev = c.Now()
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestStopWatch measures a span of virtual time the way callers do:
// the difference of two Now readings.
func TestStopWatch(t *testing.T) {
	c := NewClock()
	start := c.Now()
	c.Advance(7 * time.Millisecond)
	if got := c.Now() - start; got != 7*time.Millisecond {
		t.Fatalf("Elapsed: got %v", got)
	}
}

func TestDefaultCostsCalibration(t *testing.T) {
	m := DefaultCosts()
	// Table 6 direct-IO column: the calibration targets.
	cases := []struct {
		bytes  int
		lo, hi time.Duration
	}{
		{4 << 10, 16 * time.Microsecond, 18 * time.Microsecond},
		{8 << 10, 17 * time.Microsecond, 21 * time.Microsecond},
		{16 << 10, 21 * time.Microsecond, 25 * time.Microsecond},
		{32 << 10, 28 * time.Microsecond, 33 * time.Microsecond},
		{64 << 10, 42 * time.Microsecond, 47 * time.Microsecond},
	}
	for _, tc := range cases {
		got := m.IOCost(tc.bytes)
		if got < tc.lo || got > tc.hi {
			t.Errorf("IOCost(%d) = %v, want in [%v, %v]", tc.bytes, got, tc.lo, tc.hi)
		}
	}
}

func TestMemcpyCost(t *testing.T) {
	m := DefaultCosts()
	if got := m.MemcpyCost(4096); got != 4*m.MemcpyPerKiB {
		t.Fatalf("MemcpyCost(4096) = %v, want %v", got, 4*m.MemcpyPerKiB)
	}
	if got := m.MemcpyCost(0); got != 0 {
		t.Fatalf("MemcpyCost(0) = %v", got)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewRNG(43)
	same := 0
	a = NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 10 {
		t.Fatalf("different seeds produced %d identical values", same)
	}
}

func TestRNGIntnRange(t *testing.T) {
	r := NewRNG(1)
	for i := 0; i < 10000; i++ {
		v := r.Intn(17)
		if v < 0 || v >= 17 {
			t.Fatalf("Intn out of range: %d", v)
		}
	}
}

func TestRNGFloat64Range(t *testing.T) {
	f := func(seed uint64) bool {
		r := NewRNG(seed)
		for i := 0; i < 100; i++ {
			v := r.Float64()
			if v < 0 || v >= 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestRNGPermIsPermutation shuffles with Intn draws (Fisher-Yates):
// the result is a permutation only if every draw stays in range.
func TestRNGPermIsPermutation(t *testing.T) {
	r := NewRNG(7)
	p := make([]int, 100)
	for i := range p {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], i
	}
	seen := make([]bool, 100)
	for _, v := range p {
		if v < 0 || v >= 100 || seen[v] {
			t.Fatalf("not a permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestParetoSkew(t *testing.T) {
	r := NewRNG(3)
	const n = 100000
	var below int
	for i := 0; i < n; i++ {
		if r.Pareto(10, 0.2, 1000) < 100 {
			below++
		}
	}
	// A Pareto distribution concentrates mass at small values.
	if frac := float64(below) / n; frac < 0.9 {
		t.Fatalf("Pareto not skewed: %.2f below 100", frac)
	}
}

func TestZipfSkewAndRange(t *testing.T) {
	z := NewZipf(10000, 0.99)
	r := NewRNG(5)
	counts := make(map[int64]int)
	const n = 50000
	for i := 0; i < n; i++ {
		v := z.Next(r)
		if v < 0 || v >= 10000 {
			t.Fatalf("Zipf out of range: %d", v)
		}
		counts[v]++
	}
	// Key 0 should be by far the most popular.
	if counts[0] < n/50 {
		t.Fatalf("Zipf head too cold: %d hits for key 0", counts[0])
	}
}

func TestZetaTailApproximation(t *testing.T) {
	// For n below the cap, zeta is exact; sanity check monotonicity
	// and the analytic bound zeta(n,0) == n.
	if got := zeta(100, 0); math.Abs(got-100) > 1e-9 {
		t.Fatalf("zeta(100,0) = %v", got)
	}
	if zeta(1000, 0.5) <= zeta(100, 0.5) {
		t.Fatal("zeta not monotone in n")
	}
}

func TestTimeBuckets(t *testing.T) {
	b := NewTimeBuckets()
	b.Add("io", 30*time.Microsecond)
	b.Add("cpu", 10*time.Microsecond)
	b.Add("io", 10*time.Microsecond)
	if b.Get("io") != 40*time.Microsecond {
		t.Fatalf("io bucket = %v", b.Get("io"))
	}
	if b.Total() != 50*time.Microsecond {
		t.Fatalf("total = %v", b.Total())
	}
}
