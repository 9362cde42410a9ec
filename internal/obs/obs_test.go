package obs

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestRecorderDrainOrder(t *testing.T) {
	r := NewRecorder(16)
	for i := 0; i < 5; i++ {
		r.Instant(CatVM, NameTrackingFault, 0, time.Duration(i), int64(i))
	}
	if got := r.Len(); got != 5 {
		t.Fatalf("Len = %d, want 5", got)
	}
	evs := r.Drain()
	if len(evs) != 5 {
		t.Fatalf("drained %d events, want 5", len(evs))
	}
	for i, ev := range evs {
		if ev.Start != time.Duration(i) || ev.Arg != int64(i) {
			t.Errorf("event %d = {Start:%v Arg:%d}, want oldest-first order", i, ev.Start, ev.Arg)
		}
	}
	if got := r.Len(); got != 0 {
		t.Errorf("Len after drain = %d, want 0", got)
	}
	st := r.Stats()
	if st.Recorded != 5 || st.Dropped != 0 || st.Wraps != 0 {
		t.Errorf("stats after drain = %+v, want counters to survive", st)
	}
}

func TestRecorderWrapOverwritesOldest(t *testing.T) {
	r := NewRecorder(16)
	for i := 0; i < 40; i++ {
		r.Instant(CatVM, NamePageIn, 0, time.Duration(i), int64(i))
	}
	st := r.Stats()
	if st.Recorded != 40 {
		t.Errorf("Recorded = %d, want 40", st.Recorded)
	}
	if st.Wraps != 2 {
		t.Errorf("Wraps = %d, want 2 (40 events through a 16-slot ring)", st.Wraps)
	}
	evs := r.Drain()
	if len(evs) != 16 {
		t.Fatalf("drained %d events, want capacity 16", len(evs))
	}
	for i, ev := range evs {
		if want := int64(24 + i); ev.Arg != want {
			t.Errorf("event %d arg = %d, want %d (newest 16 retained oldest-first)", i, ev.Arg, want)
		}
	}
}

func TestRecorderDropOnFull(t *testing.T) {
	r := NewRecorder(16)
	r.SetDropOnFull(true)
	for i := 0; i < 20; i++ {
		r.Instant(CatVM, NamePageIn, 0, time.Duration(i), int64(i))
	}
	st := r.Stats()
	// The cursor cycles once as the ring fills; after that, drop-on-full
	// refuses new events instead of evicting.
	if st.Recorded != 16 || st.Dropped != 4 || st.Wraps != 1 {
		t.Errorf("stats = %+v, want 16 recorded / 4 dropped / 1 wrap", st)
	}
	evs := r.Drain()
	if len(evs) != 16 || evs[0].Arg != 0 || evs[15].Arg != 15 {
		t.Errorf("drop-on-full must retain the oldest events; got %d events", len(evs))
	}
}

func TestRecorderSampling(t *testing.T) {
	r := NewRecorder(128)
	r.SetSampling(4)
	for i := 0; i < 40; i++ {
		r.Instant(CatVM, NamePageIn, 0, time.Duration(i), int64(i))
	}
	st := r.Stats()
	if st.Recorded != 10 || st.Dropped != 30 {
		t.Errorf("stats = %+v, want 10 recorded / 30 sampled out", st)
	}
	r.SetSampling(0)
	r.Instant(CatVM, NamePageIn, 0, 0, 0)
	if got := r.Stats().Recorded; got != 11 {
		t.Errorf("Recorded after disabling sampling = %d, want 11", got)
	}
}

func TestRecorderNilSafe(t *testing.T) {
	var r *Recorder
	r.Span(CatPersist, NamePersist, 0, 0, time.Microsecond, 1)
	r.Instant(CatVM, NameCOWFault, 0, 0, 1)
	r.Counter(CatShard, NameGroupCommit, 0, 0, 1)
	r.SetDropOnFull(true)
	r.SetSampling(2)
	if r.Enabled() {
		t.Error("nil recorder must report Enabled() == false")
	}
	if evs := r.Drain(); evs != nil {
		t.Errorf("nil Drain = %v, want nil", evs)
	}
	if st := r.Stats(); st != (RecorderStats{}) {
		t.Errorf("nil Stats = %+v, want zero", st)
	}
	if r.Len() != 0 {
		t.Error("nil Len != 0")
	}
}

// TestRecorderConcurrent hammers one recorder from several writer
// goroutines while a reader drains — the shard-worker shape, run under
// -race in CI. Every offered event must be accounted for as recorded
// (drained or still buffered) with wrap-evictions explained by the
// wrap counter.
func TestRecorderConcurrent(t *testing.T) {
	const writers, perWriter = 8, 1000
	r := NewRecorder(256)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	var drained int
	var readerWg sync.WaitGroup
	readerWg.Add(1)
	go func() {
		defer readerWg.Done()
		for {
			select {
			case <-stop:
				drained += len(r.Drain())
				return
			default:
				drained += len(r.Drain())
			}
		}
	}()
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				switch i % 3 {
				case 0:
					r.Span(CatShard, NameGroupCommit, int32(w), time.Duration(i), time.Microsecond, int64(i))
				case 1:
					r.Instant(CatVM, NameTrackingFault, int32(w), time.Duration(i), int64(i))
				default:
					r.Counter(CatPersist, NamePersist, int32(w), time.Duration(i), int64(i))
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	readerWg.Wait()
	drained += len(r.Drain())
	st := r.Stats()
	if st.Recorded != writers*perWriter {
		t.Errorf("Recorded = %d, want %d", st.Recorded, writers*perWriter)
	}
	// Drained events plus wrap-evicted events account for everything
	// recorded. Each wrap evicts at most one event per recorded slot;
	// the exact split is timing-dependent, but nothing may exceed the
	// recorded total.
	if int64(drained) > st.Recorded {
		t.Errorf("drained %d events, more than the %d recorded", drained, st.Recorded)
	}
	if drained == 0 {
		t.Error("reader drained nothing")
	}
}

func TestTrackNames(t *testing.T) {
	for _, tc := range []struct {
		track int32
		role  string
		idx   int32
	}{
		{ShardTrack(3), "worker", 3},
		{ShipTrack(2), "shipper", 2},
		{FollowerTrack(7), "follower", 7},
	} {
		role, idx := TrackName(tc.track)
		if role != tc.role || idx != tc.idx {
			t.Errorf("TrackName(%d) = %q %d, want %q %d", tc.track, role, idx, tc.role, tc.idx)
		}
	}
}

func TestHistogramBucketsAndQuantiles(t *testing.T) {
	var h Histogram
	h.Record(0)
	h.Record(1) // bucket 1: (0, 2)
	h.Record(100 * time.Nanosecond)
	h.Record(time.Microsecond)
	h.Record(time.Millisecond)
	h.Record(10 * time.Millisecond)
	s := h.Snapshot()
	if s.Count != 6 {
		t.Fatalf("Count = %d, want 6", s.Count)
	}
	if s.Max != 10*time.Millisecond {
		t.Errorf("Max = %v, want 10ms", s.Max)
	}
	if got, wantLo := s.P50(), 100*time.Nanosecond; got < wantLo || got > time.Microsecond {
		t.Errorf("P50 = %v, want within a power of two of the median sample", got)
	}
	// P99/P999 of 6 samples land on the max sample's bucket upper bound.
	if got := s.P999(); got < 10*time.Millisecond {
		t.Errorf("P999 = %v, want >= 10ms", got)
	}
	if mean := s.Mean(); mean <= 0 {
		t.Errorf("Mean = %v, want positive", mean)
	}
}

func TestHistogramOverflowAndMerge(t *testing.T) {
	var h Histogram
	huge := 10 * time.Hour // beyond the last finite bucket
	h.Record(huge)
	s := h.Snapshot()
	if got := s.Quantile(1); got != huge {
		t.Errorf("overflow quantile = %v, want recorded max %v", got, huge)
	}
	var h2 Histogram
	h2.Record(time.Millisecond)
	m := h2.Snapshot()
	m.Merge(s)
	if m.Count != 2 || m.Max != huge || m.Sum != huge+time.Millisecond {
		t.Errorf("merged = {Count:%d Max:%v Sum:%v}, want 2/%v/%v", m.Count, m.Max, m.Sum, huge, huge+time.Millisecond)
	}
}

func TestHistogramNilSafe(t *testing.T) {
	var h *Histogram
	h.Record(time.Second)
	if s := h.Snapshot(); s.Count != 0 {
		t.Errorf("nil Snapshot count = %d, want 0", s.Count)
	}
	if q := (HistSnapshot{}).Quantile(0.5); q != 0 {
		t.Errorf("empty quantile = %v, want 0", q)
	}
}

func TestHistogramWriteProm(t *testing.T) {
	var h Histogram
	h.Record(time.Millisecond)
	h.Record(2 * time.Millisecond)
	s := h.Snapshot()
	var b strings.Builder
	if err := s.writeProm(&b, "m", `shard="0"`); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`m_bucket{shard="0",le="0.001048576"} 1`,
		`m_bucket{shard="0",le="0.002097152"} 2`,
		`m_bucket{shard="0",le="+Inf"} 2`,
		`m_sum{shard="0"} 0.003`,
		`m_count{shard="0"} 2`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("writeProm output missing %q:\n%s", want, out)
		}
	}
	// Unlabeled: no stray {} on _sum/_count, le is the only label.
	b.Reset()
	if err := s.writeProm(&b, "m", ""); err != nil {
		t.Fatal(err)
	}
	out = b.String()
	if !strings.Contains(out, "m_sum 0.003") || !strings.Contains(out, "m_count 2") {
		t.Errorf("unlabeled writeProm malformed:\n%s", out)
	}
	if strings.Contains(out, "{}") || strings.Contains(out, "{,") {
		t.Errorf("unlabeled writeProm produced empty label braces:\n%s", out)
	}
}
