package replica

// Golden test for the replica Prometheus exposition: handcrafted
// shipper and follower counters in, byte-for-byte pinned text out, so
// any metric rename, reorder or format drift fails loudly. Rerun with
// -update-golden after an intentional change.

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite golden files under testdata")

func TestFormatPrometheusGolden(t *testing.T) {
	s := NewShipper(NewLink(LinkConfig{}), nil, 2, Config{Mode: Sync})
	s.shards[0].st = ShardRepStats{
		Shipped: 12, Acked: 10, Duplicates: 1,
		Retries: 2, LostDeltas: 1, LostAcks: 1,
		Gaps: 1, Snapshots: 1, Unsent: 2,
		Batches: 3, BatchedDeltas: 7,
		WireBytes: 123456, DiffSavedBytes: 98765, Extents: 42,
		EncodeTime:   150 * time.Microsecond,
		LastAckedSeq: 10,
	}
	s.shards[0].ackHist.Record(time.Millisecond)
	s.shards[0].ackHist.Record(2 * time.Millisecond)

	fol := batchFollower(t, 2)
	fol.shards[0].applied = 10
	fol.shards[0].duplicates = 1
	fol.shards[0].gaps = 2
	fol.shards[0].snapshots = 1
	fol.shards[0].batches = 3
	fol.shards[0].patchedBytes = 4321
	fol.shards[0].lastSeq = 10
	fol.shards[0].era = 1

	var buf bytes.Buffer
	if err := s.FormatPrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if err := fol.FormatPrometheus(&buf); err != nil {
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
		t.Errorf("FormatPrometheus output drifted from %s (rerun with -update-golden after an intentional change)\n--- got ---\n%s\n--- want ---\n%s",
			golden, buf.Bytes(), want)
	}
}
