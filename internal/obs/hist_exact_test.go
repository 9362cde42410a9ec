package obs

import (
	"encoding/json"
	"math"
	"math/bits"
	"slices"
	"testing"
	"testing/quick"
	"time"
	"unsafe"

	"memsnap/internal/sim"
)

// The histogram is held to two references: exactRecorder, which keeps
// every sample and answers nearest-rank quantiles exactly, and the pure
// log2 bucketing the Prometheus exposition had before sub-buckets
// (refOctave), which the le edges must still follow.

// exactRecorder keeps every sample and sorts on demand. Its memory
// grows with every sample, so no production path records into one; it
// is the histogram's reference.
type exactRecorder struct {
	samples  []time.Duration
	sum, max time.Duration
}

func (r *exactRecorder) Record(d time.Duration) {
	r.samples = append(r.samples, d)
	r.sum += d
	r.max = max(r.max, d)
}

// Quantile returns the nearest-rank q-th quantile (0 < q <= 1).
func (r *exactRecorder) Quantile(q float64) time.Duration {
	n := len(r.samples)
	if n == 0 {
		return 0
	}
	sorted := slices.Clone(r.samples)
	slices.Sort(sorted)
	return sorted[min(max(int(q*float64(n)+0.5)-1, 0), n-1)]
}

// histErrBound is the relative error the Histogram doc comment states.
const histErrBound = 1.0 / (2 * histSub)

func refOctave(d time.Duration) int {
	if d <= 0 {
		return 0
	}
	return min(bits.Len64(uint64(d)), HistBuckets-1)
}

// within reports whether got is inside the stated bound of the exact
// value want.
func within(got, want time.Duration) bool {
	return math.Abs(float64(got-want)) <= histErrBound*float64(want)
}

func TestHistogramQuantilesMatchExactRecorder(t *testing.T) {
	const n = 200_000
	lo, hi := math.Log(50), math.Log(2e9) // 50 ns to 2 s, log-uniform
	rng := sim.NewRNG(23)
	var h Histogram
	var exact exactRecorder
	for i := 0; i < n; i++ {
		d := time.Duration(math.Exp(lo + rng.Float64()*(hi-lo)))
		h.Record(d)
		exact.Record(d)
	}
	s := h.Snapshot()
	if s.Count != int64(len(exact.samples)) || s.Sum != exact.sum || s.Max != exact.max || s.Mean() != exact.sum/n {
		t.Errorf("count/sum/max/mean = %d/%v/%v/%v, exact recorder has %d/%v/%v/%v",
			s.Count, s.Sum, s.Max, s.Mean(), len(exact.samples), exact.sum, exact.max, exact.sum/n)
	}
	for _, q := range []float64{0.01, 0.5, 0.9, 0.99, 0.999} {
		got, want := s.Quantile(q), exact.Quantile(q)
		if !within(got, want) {
			t.Errorf("Quantile(%v) = %v, exact %v: off by %.3f%%, bound %.4f%%",
				q, got, want, 100*math.Abs(float64(got-want))/float64(want), 100*histErrBound)
		}
	}
	if got, want := s.Quantile(1), exact.Quantile(1); got != want {
		t.Errorf("Quantile(1) = %v, want the exact maximum %v", got, want)
	}
}

// TestHistogramPercentileProperty holds arbitrary small sample sets to
// the exact recorder: quantiles within the bound (exact at the last
// rank) and ordered p50 <= p99 <= max.
func TestHistogramPercentileProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		var h Histogram
		var exact exactRecorder
		for _, v := range raw {
			h.Record(time.Duration(v))
			exact.Record(time.Duration(v))
		}
		s := h.Snapshot()
		for _, q := range []float64{0.5, 0.99} {
			if !within(s.Quantile(q), exact.Quantile(q)) {
				return false
			}
		}
		return s.P50() <= s.P99() && s.P99() <= s.Max && s.Quantile(1) == exact.Quantile(1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// checkBucket holds one value to every property of the bucket layout.
func checkBucket(t *testing.T, d time.Duration) {
	t.Helper()
	i := bucketOf(d)
	if i < 0 || i >= histFine {
		t.Fatalf("bucketOf(%d) = %d, outside [0, %d)", d, i, histFine)
	}
	if got, want := octaveOf(i), refOctave(d); got != want {
		t.Fatalf("octaveOf(bucketOf(%d)) = %d, log2 bucket is %d", d, got, want)
	}
	if d < 0 || d == math.MaxInt64 {
		return
	}
	if next := bucketOf(d + 1); next < i || next > i+1 {
		t.Fatalf("bucketOf(%d) = %d but bucketOf(%d) = %d", d, i, d+1, next)
	}
	if i < histFine-1 && !within(bucketMid(i), d) {
		t.Fatalf("bucketMid(bucketOf(%d)) = %d, outside the %.4f%% bound", d, bucketMid(i), 100*histErrBound)
	}
}

func TestHistogramBucketLayout(t *testing.T) {
	if size := unsafe.Sizeof(Histogram{}); size > 32<<10 {
		t.Errorf("Histogram is %d bytes, over the 32 KiB budget", size)
	}
	// Every value where every bucket is narrow, then both sides of every
	// bucket edge up to and past the overflow threshold.
	for d := time.Duration(-2); d < 1<<14; d++ {
		checkBucket(t, d)
	}
	for e := uint(0); e < 40; e++ {
		for m := time.Duration(histSub); m < 2*histSub; m++ {
			for _, d := range []time.Duration{m<<e - 1, m << e, m<<e + 1} {
				checkBucket(t, d)
			}
		}
	}
	checkBucket(t, math.MaxInt64)
	if got := bucketOf(1<<(HistBuckets-2) - 1); got != histFine-2 {
		t.Errorf("largest tracked value lands in bucket %d, want the last finite one, %d", got, histFine-2)
	}
}

func FuzzHistogramBucket(f *testing.F) {
	for _, d := range []int64{math.MinInt64, -1, 0, 1, 63, 64, 65, 127, 128, 700, 1_000_000,
		1<<37 - 1, 1 << 37, 1<<37 + 1, math.MaxInt64} {
		f.Add(d)
	}
	f.Fuzz(func(t *testing.T, d int64) { checkBucket(t, time.Duration(d)) })
}

func TestHistogramRecordDoesNotAllocate(t *testing.T) {
	var h Histogram
	d := time.Microsecond
	if allocs := testing.AllocsPerRun(1000, func() { h.Record(d); d += 997 }); allocs != 0 {
		t.Errorf("Record allocates %v times per call", allocs)
	}
}

// A stats struct carrying snapshots is marshalled whole by msnap-trace:
// the JSON must stay a handful of fields, not the bucket array.
func TestHistSnapshotJSONCompact(t *testing.T) {
	var h Histogram
	for i := 1; i <= 1000; i++ {
		h.Record(time.Duration(i) * time.Microsecond)
	}
	raw, err := json.Marshal(struct{ Hist HistSnapshot }{h.Snapshot()})
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) > 256 {
		t.Errorf("snapshot marshals to %d bytes: %s", len(raw), raw)
	}
	var got struct {
		Hist struct {
			Count int64
			Sum   int64 `json:"sum_nanos"`
			Max   int64 `json:"max_nanos"`
			P999  int64 `json:"p999_nanos"`
		}
	}
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	if g := got.Hist; g.Count != 1000 || g.Sum != int64(500500*time.Microsecond) || g.Max != int64(time.Millisecond) ||
		!within(time.Duration(g.P999), 999*time.Microsecond) {
		t.Errorf("decoded %+v from %s", g, raw)
	}
}
