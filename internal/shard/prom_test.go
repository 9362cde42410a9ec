package shard

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"

	"memsnap/internal/core"
	"memsnap/internal/obs"
)

// histSnap builds a deterministic histogram snapshot from samples.
func histSnap(ds ...time.Duration) obs.HistSnapshot {
	var h obs.Histogram
	for _, d := range ds {
		h.Record(d)
	}
	return h.Snapshot()
}

var updateGolden = flag.Bool("update-golden", false, "rewrite golden files under testdata")

// TestFormatPrometheusGolden pins the exposition format byte-for-byte
// against a golden file: handcrafted stats in, deterministic text out.
func TestFormatPrometheusGolden(t *testing.T) {
	stats := []ShardStats{
		{
			Shard: 0, Ops: 10, Reads: 4, Writes: 6, Commits: 3,
			BatchOccupancy: 2,
			QueueHighWater: 5, Rejected: 1,
			Elapsed: 10 * time.Millisecond,
			PersistStages: core.PersistStageTotals{
				ResetTracking:  250 * time.Microsecond,
				InitiateWrites: 750 * time.Microsecond,
				WaitIO:         4 * time.Millisecond,
			},
			CommitHist:  histSnap(time.Millisecond, time.Millisecond, 2*time.Millisecond),
			PersistHist: histSnap(500*time.Microsecond, 900*time.Microsecond, time.Millisecond),
			Obs:         obs.RecorderStats{Recorded: 42, Wraps: 2, Capacity: 1024},
		},
		{
			Shard: 1, Ops: 7, Reads: 7,
			Elapsed: 2500 * time.Microsecond,
		},
	}
	var buf bytes.Buffer
	if err := formatPrometheus(&buf, stats); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "prometheus.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("formatPrometheus output drifted from %s (rerun with -update-golden after an intentional change)\n--- got ---\n%s\n--- want ---\n%s",
			golden, buf.Bytes(), want)
	}
}

// Exposition line shapes: plain {shard} series (including histogram
// _sum/_count), histogram _bucket series with an le label, and the
// unlabeled service-wide obs counters.
var (
	promLineRe   = regexp.MustCompile(`^[a-z0-9_]+\{shard="-?\d+"\} -?[0-9.e+-]+$`)
	promBucketRe = regexp.MustCompile(`^[a-z0-9_]+_bucket\{shard="-?\d+",le="(\+Inf|[0-9.e+-]+)"\} \d+$`)
	promPlainRe  = regexp.MustCompile(`^[a-z0-9_]+ -?[0-9.e+-]+$`)
)

// TestServiceFormatPrometheus runs the formatter against a live
// service and checks the output is well-formed exposition text with
// every metric present for every shard.
func TestServiceFormatPrometheus(t *testing.T) {
	sys := newSystem(t, 2)
	svc, err := New(sys, Config{Shards: 2, Recorder: obs.NewRecorder(256)})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	if err := svc.Put("t", "a", 5); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := svc.FormatPrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	var series, buckets, plain int
	for _, line := range bytes.Split(buf.Bytes(), []byte("\n")) {
		if len(line) == 0 || line[0] == '#' {
			continue
		}
		switch {
		case promBucketRe.Match(line):
			buckets++
		case promLineRe.Match(line):
			series++
		case promPlainRe.Match(line):
			plain++
		default:
			t.Errorf("malformed exposition line: %q", line)
		}
	}
	// 13 per-shard metrics plus _sum and _count for the two latency
	// histograms, times 2 shards.
	const metrics, hists, shards = 13, 2, 2
	if want := (metrics + 2*hists) * shards; series != want {
		t.Errorf("got %d series lines, want %d", series, want)
	}
	// Every histogram emits at least its +Inf bucket per shard.
	if want := hists * shards; buckets < want {
		t.Errorf("got %d bucket lines, want at least %d", buckets, want)
	}
	// The two unlabeled obs recorder counters.
	if plain != 2 {
		t.Errorf("got %d unlabeled lines, want 2 (obs counters)", plain)
	}
	for _, name := range []string{
		"memsnap_obs_events_recorded_total",
		"memsnap_shard_commit_latency_seconds_bucket",
		"memsnap_shard_persist_latency_seconds_count",
	} {
		if !bytes.Contains(buf.Bytes(), []byte(name)) {
			t.Errorf("exposition missing %s", name)
		}
	}
}
