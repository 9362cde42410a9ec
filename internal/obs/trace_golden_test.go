// Golden test for the Chrome trace-event exporter: a deterministic
// single-threaded uCheckpoint workload (tracking faults, an in-flight
// COW, sync and async persists, a durability wait) drained through
// WriteTrace must reproduce testdata/trace.golden byte for byte, and
// the output must parse as the trace-event JSON schema Perfetto loads.
//
// The test lives in package obs_test because the workload drives
// internal/core, which itself imports obs.
package obs_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"testing"

	"memsnap/internal/core"
	"memsnap/internal/obs"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite golden files under testdata")

// buildTrace runs the golden workload and returns the exported trace.
func buildTrace(t testing.TB) []byte {
	t.Helper()
	rec := obs.NewRecorder(1024)
	sys, err := core.NewSystem(core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	p := sys.NewProcess()
	ctx := p.NewContext(0)
	ctx.SetRecorder(rec, obs.ShardTrack(0))
	r, err := p.Open(ctx, "golden", 1<<20)
	if err != nil {
		t.Fatal(err)
	}

	// First-touch writes: tracking-fault instants, then a sync persist
	// (reset/initiate/wait_io/persist spans).
	for i := 0; i < 4; i++ {
		ctx.WriteAt(r, int64(i)*int64(core.PageSize), []byte{byte(i + 1)})
	}
	if _, err := ctx.Persist(r, core.MSSync); err != nil {
		t.Fatal(err)
	}

	// Async persist with a write to a checkpoint-in-progress page: a
	// COW-fault instant lands between the persist span and the wait.
	ctx.WriteAt(r, 0, []byte{0xaa})
	ctx.WriteAt(r, int64(core.PageSize), []byte{0xbb})
	epoch, err := ctx.Persist(r, core.MSAsync)
	if err != nil {
		t.Fatal(err)
	}
	ctx.WriteAt(r, 0, []byte{0xcc})
	ctx.Wait(r, epoch)

	var buf bytes.Buffer
	if err := obs.WriteTrace(&buf, rec.Drain()); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestWriteTraceGolden(t *testing.T) {
	got := buildTrace(t)
	if again := buildTrace(t); !bytes.Equal(got, again) {
		t.Fatal("trace export is not deterministic across identical runs")
	}

	checkGolden(t, "trace.golden", got)
}

func TestWriteTraceParsesAsTraceEventJSON(t *testing.T) {
	got := buildTrace(t)
	var doc struct {
		DisplayTimeUnit string           `json:"displayTimeUnit"`
		TraceEvents     []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(got, &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v\n%s", err, got)
	}
	if doc.DisplayTimeUnit != "ns" {
		t.Errorf("displayTimeUnit = %q, want ns", doc.DisplayTimeUnit)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("trace has no events")
	}
	phases := map[string]int{}
	names := map[string]bool{}
	for i, ev := range doc.TraceEvents {
		ph, _ := ev["ph"].(string)
		phases[ph]++
		if name, ok := ev["name"].(string); ok {
			names[name] = true
		}
		switch ph {
		case "M":
			if ev["name"] != "thread_name" {
				t.Errorf("event %d: metadata name = %v, want thread_name", i, ev["name"])
			}
		case "X":
			if _, ok := ev["dur"]; !ok {
				t.Errorf("event %d: complete event missing dur", i)
			}
			fallthrough
		case "i", "C":
			if _, ok := ev["ts"]; !ok {
				t.Errorf("event %d: missing ts", i)
			}
			if _, ok := ev["cat"]; !ok {
				t.Errorf("event %d: missing cat", i)
			}
		default:
			t.Errorf("event %d: unexpected phase %q", i, ph)
		}
	}
	if phases["M"] == 0 || phases["X"] == 0 || phases["i"] == 0 {
		t.Errorf("phase mix %v, want metadata + spans + instants", phases)
	}
	for _, want := range []string{"fault_track", "fault_cow", "reset_tracking", "initiate_writes", "wait_io", "persist"} {
		if !names[want] {
			t.Errorf("workload trace missing %q event (have %v)", want, names)
		}
	}
}
