package obs_test

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"time"

	"memsnap/internal/obs"
)

// checkGolden holds got to testdata/name byte for byte; -update-golden
// rewrites the file.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	golden := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (rerun with -update-golden to create it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("output drifted from %s (rerun with -update-golden after an intentional change)\n--- got ---\n%s\n--- want ---\n%s",
			golden, got, want)
	}
}

// TestTenantSketchWriteProm pins the tenant gauges byte for byte: a
// tenant whose name needs every label escape (quote, backslash,
// newline), a plain one, then an empty sketch, which writes the
// headers and no samples.
func TestTenantSketchWriteProm(t *testing.T) {
	s := obs.NewTenantSketch(4)
	s.Observe(`we"ird\ten`+"\nant", 7, 1500*time.Millisecond)
	s.Observe("plain", 100, 250*time.Microsecond)
	s.Observe("plain", 28, 250*time.Microsecond)
	var buf bytes.Buffer
	if err := s.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	if err := obs.NewTenantSketch(4).WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "tenant_prom.golden", buf.Bytes())
}

// Integer samples render every digit: 2^53+1 is the first int64 a
// float64 cannot hold, so a family that passed values through float64
// would print 9007199254740992. Labels escape as the text format
// requires, and an unlabeled table writes bare sample lines.
func TestWriteFamiliesExactIntegers(t *testing.T) {
	type row struct {
		name string
		n    int64
		u    uint64
		d    time.Duration
	}
	fams := []obs.Family[row]{
		obs.Counter("big_total", "Past float64's exact integers.", func(r *row) int64 { return r.n }),
		obs.Gauge("top", "Largest uint64.", func(r *row) uint64 { return r.u }),
		obs.Gauge("wait_seconds", "A duration, in seconds.", func(r *row) time.Duration { return r.d }),
	}
	rows := []row{{name: "a\"b", n: 1<<53 + 1, u: 1<<64 - 1, d: 1500 * time.Microsecond}}
	var buf bytes.Buffer
	if err := obs.WriteFamilies(&buf, "tenant", func(r *row) string { return r.name }, rows, fams); err != nil {
		t.Fatal(err)
	}
	if err := obs.WriteFamilies(&buf, "", nil, rows, fams[:1]); err != nil {
		t.Fatal(err)
	}
	want := `# HELP big_total Past float64's exact integers.
# TYPE big_total counter
big_total{tenant="a\"b"} 9007199254740993
# HELP top Largest uint64.
# TYPE top gauge
top{tenant="a\"b"} 18446744073709551615
# HELP wait_seconds A duration, in seconds.
# TYPE wait_seconds gauge
wait_seconds{tenant="a\"b"} 0.0015
# HELP big_total Past float64's exact integers.
# TYPE big_total counter
big_total 9007199254740993
`
	if got := buf.String(); got != want {
		t.Errorf("got\n%s\nwant\n%s", got, want)
	}
}
