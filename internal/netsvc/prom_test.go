package netsvc

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"

	"memsnap/internal/obs"
	"memsnap/internal/proto"
	"memsnap/internal/shard"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite golden files under testdata")

// histSnap builds a deterministic histogram snapshot from samples.
func histSnap(ds ...time.Duration) obs.HistSnapshot {
	var h obs.Histogram
	for _, d := range ds {
		h.Record(d)
	}
	return h.Snapshot()
}

// TestFormatPrometheusGolden pins the network exposition byte-for-byte
// against a golden file: handcrafted stats in, deterministic text out.
func TestFormatPrometheusGolden(t *testing.T) {
	st := Stats{
		Accepted:   3,
		OpenConns:  2,
		InFlight:   5,
		Requests:   120,
		Responses:  115,
		RetryAfter: 7,
		BadFrames:  1,
		BytesIn:    4096,
		BytesOut:   3584,
		OpLatency:  histSnap(50*time.Microsecond, 80*time.Microsecond, 2*time.Millisecond),
	}
	var buf bytes.Buffer
	if err := formatPrometheus(&buf, st); err != nil {
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

var (
	netPlainRe  = regexp.MustCompile(`^[a-z0-9_]+ -?[0-9.e+-]+$`)
	netBucketRe = regexp.MustCompile(`^[a-z0-9_]+_bucket\{le="(\+Inf|[0-9.e+-]+)"\} \d+$`)
)

// TestServerFormatPrometheus runs the formatter against a live server
// and checks the output is well-formed exposition text.
func TestServerFormatPrometheus(t *testing.T) {
	svc := newService(t, shard.Config{Shards: 2})
	defer svc.Close()
	srv := startServer(t, svc, Config{})
	defer srv.Close()

	c, err := Dial(srv.Addr(), 2)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 3; i++ {
		q := proto.Request{Kind: proto.KindPut, Tenant: []byte("t"), Key: []byte("k"), Value: uint64(i)}
		if _, err := c.Do(&q); err != nil {
			t.Fatal(err)
		}
	}

	var buf bytes.Buffer
	if err := srv.FormatPrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	var plain, buckets int
	for _, line := range bytes.Split(buf.Bytes(), []byte("\n")) {
		if len(line) == 0 || line[0] == '#' {
			continue
		}
		switch {
		case netBucketRe.Match(line):
			buckets++
		case netPlainRe.Match(line):
			plain++
		default:
			t.Errorf("malformed exposition line: %q", line)
		}
	}
	// 9 scalar metrics plus the histogram's _sum and _count.
	if plain != 9+2 {
		t.Errorf("got %d plain lines, want 11", plain)
	}
	if buckets < 1 {
		t.Error("histogram emitted no bucket lines")
	}
	for _, name := range []string{
		"memsnap_net_requests_total",
		"memsnap_net_bytes_in_total",
		"memsnap_net_op_latency_seconds_bucket",
	} {
		if !bytes.Contains(buf.Bytes(), []byte(name)) {
			t.Errorf("exposition missing %s", name)
		}
	}
}
