package obs

import (
	"bytes"
	"encoding/json"
	"io"
	"strings"
	"testing"
	"time"
)

func TestSamplerRateAndDeterminism(t *testing.T) {
	s := NewSampler(42, 8)
	var ids []uint64
	for i := 0; i < 8000; i++ {
		if id, ok := s.Sample(); ok {
			if id == 0 {
				t.Fatal("sampled a zero trace id (0 means untraced)")
			}
			ids = append(ids, id)
		}
	}
	if len(ids) != 1000 {
		t.Fatalf("sampled %d of 8000 at rate 8, want exactly 1000", len(ids))
	}
	// Same seed and rate replay the same id sequence.
	s2 := NewSampler(42, 8)
	for i := 0; i < 8000; i++ {
		if id, ok := s2.Sample(); ok && id != ids[i/8] {
			t.Fatalf("sample %d: id %#x, want %#x (determinism)", i, id, ids[i/8])
		}
	}
	// Distinct ids: splitmix64 over distinct counters cannot collide in
	// a thousand draws unless something is broken.
	seen := map[uint64]bool{}
	for _, id := range ids {
		if seen[id] {
			t.Fatalf("duplicate trace id %#x", id)
		}
		seen[id] = true
	}
}

func TestSamplerDisabled(t *testing.T) {
	var nilSampler *Sampler
	if _, ok := nilSampler.Sample(); ok {
		t.Error("nil sampler sampled")
	}
	off := NewSampler(1, 0)
	for i := 0; i < 100; i++ {
		if _, ok := off.Sample(); ok {
			t.Error("rate<=0 sampler sampled")
		}
	}
}

func TestTenantSketchTopAndEviction(t *testing.T) {
	s := NewTenantSketch(2)
	for i := 0; i < 5; i++ {
		s.Observe("alpha", 100, time.Millisecond)
	}
	for i := 0; i < 3; i++ {
		s.Observe("beta", 50, time.Millisecond)
	}
	top := s.Top()
	if len(top) != 2 || top[0].Tenant != "alpha" || top[0].Ops != 5 || top[1].Tenant != "beta" {
		t.Fatalf("Top = %+v, want alpha(5) then beta(3)", top)
	}
	if top[0].WireBytes != 500 || top[0].CommitLatency != 5*time.Millisecond {
		t.Errorf("alpha accounting = %d bytes %v latency, want 500/5ms", top[0].WireBytes, top[0].CommitLatency)
	}
	if top[0].ErrFloor != 0 {
		t.Errorf("never-evicted tenant has error floor %d, want 0", top[0].ErrFloor)
	}

	// A new tenant evicts the min slot (beta at 3 ops) and inherits its
	// count as the space-saving error floor.
	s.Observe("gamma", 10, time.Microsecond)
	top = s.Top()
	if len(top) != 2 {
		t.Fatalf("Top after eviction = %+v, want 2 slots", top)
	}
	var gamma *TenantStat
	for i := range top {
		if top[i].Tenant == "gamma" {
			gamma = &top[i]
		}
		if top[i].Tenant == "beta" {
			t.Fatalf("beta survived eviction: %+v", top)
		}
	}
	if gamma == nil {
		t.Fatalf("gamma not admitted: %+v", top)
	}
	if gamma.Ops != 4 || gamma.ErrFloor != 3 {
		t.Errorf("gamma = ops %d floor %d, want ops 4 (min+1) floor 3", gamma.Ops, gamma.ErrFloor)
	}
	if gamma.WireBytes != 10 {
		t.Errorf("gamma bytes = %d, want accounting restarted at 10", gamma.WireBytes)
	}
}

func TestTenantSketchNilAndEmptyTenant(t *testing.T) {
	var s *TenantSketch
	s.Observe("x", 1, time.Second) // must not panic
	if top := s.Top(); top != nil {
		t.Errorf("nil Top = %v, want nil", top)
	}
	if err := s.WriteProm(io.Discard); err != nil {
		t.Errorf("nil WriteProm = %v", err)
	}
	real := NewTenantSketch(4)
	real.Observe("", 1, time.Second) // internal probes carry no tenant
	if top := real.Top(); len(top) != 0 {
		t.Errorf("empty-tenant observe landed in the sketch: %v", top)
	}
}

func TestRecorderPeekNonDestructive(t *testing.T) {
	rec := NewRecorder(8)
	rec.Span(CatShard, NameGroupCommit, ShardTrack(0), 0, time.Millisecond, 1)
	rec.Span(CatShard, NameGroupCommit, ShardTrack(0), time.Millisecond, time.Millisecond, 2)
	if got := rec.Peek(); len(got) != 2 {
		t.Fatalf("Peek = %d events, want 2", len(got))
	}
	if got := rec.Peek(); len(got) != 2 {
		t.Fatalf("second Peek = %d events, want 2 (Peek must not drain)", len(got))
	}
	if got := rec.Drain(); len(got) != 2 {
		t.Fatalf("Drain after Peek = %d events, want 2", len(got))
	}
	if got := rec.Peek(); len(got) != 0 {
		t.Fatalf("Peek after Drain = %d events, want 0", len(got))
	}
}

func TestWriteTraceFlowEvents(t *testing.T) {
	const flow = 0xabcdef12345
	events := []Event{
		{Kind: KindSpan, Cat: CatNet, Name: NameClientRequest, Track: ClientTrack(0), Start: 0, Dur: 4 * time.Millisecond, Flow: flow},
		{Kind: KindSpan, Cat: CatNet, Name: NameNetRequest, Track: NetTrack(0), Start: time.Millisecond, Dur: 2 * time.Millisecond, Flow: flow},
		{Kind: KindSpan, Cat: CatShard, Name: NameGroupCommit, Track: ShardTrack(0), Start: 2 * time.Millisecond, Dur: time.Millisecond, Flow: flow},
		{Kind: KindSpan, Cat: CatShard, Name: NameGroupCommit, Track: ShardTrack(1), Start: 0, Dur: time.Millisecond},              // no flow
		{Kind: KindSpan, Cat: CatNet, Name: NameClientRequest, Track: ClientTrack(1), Start: 0, Dur: time.Millisecond, Flow: 0x77}, // single-span flow
	}
	var buf bytes.Buffer
	if err := WriteTrace(&buf, events); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	var phases []string
	spanFlows := map[string]int{}
	for _, ev := range doc.TraceEvents {
		ph := ev["ph"].(string)
		switch ph {
		case "s", "t", "f":
			phases = append(phases, ph)
			if id := ev["id"].(string); id != "abcdef12345" {
				t.Errorf("flow event id %q, want abcdef12345", id)
			}
			if ph == "f" {
				if bp, _ := ev["bp"].(string); bp != "e" {
					t.Errorf("flow finish missing bp:e: %v", ev)
				}
			}
		case "X":
			if args, ok := ev["args"].(map[string]any); ok {
				if f, ok := args["flow"].(string); ok {
					spanFlows[f]++
				}
			}
		}
	}
	if got, want := strings.Join(phases, ""), "stf"; got != want {
		t.Errorf("flow phases = %q, want %q (3-span flow; single-span flow suppressed)", got, want)
	}
	if spanFlows["abcdef12345"] != 3 {
		t.Errorf("span args carried flow id %d times, want 3", spanFlows["abcdef12345"])
	}
	if spanFlows["77"] != 1 {
		t.Errorf("single-span flow must still stamp its span args (got %v)", spanFlows)
	}
}

func TestWriteBundle(t *testing.T) {
	rec := NewRecorder(16)
	rec.Span(CatShard, NameGroupCommit, ShardTrack(0), 0, time.Millisecond, 9)
	var buf bytes.Buffer
	err := WriteBundle(&buf, Bundle{
		Reason:     "unit test",
		VirtualNow: 2500 * time.Millisecond,
		Vars:       map[string]int{"commits": 3},
		Metrics: func(w io.Writer) error {
			_, err := io.WriteString(w, "memsnap_up 1\n")
			return err
		},
		Recorder: rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Reason  string         `json:"reason"`
		Virtual float64        `json:"virtual_now_seconds"`
		Rec     RecorderStats  `json:"recorder"`
		Vars    map[string]int `json:"varz"`
		Metrics string         `json:"metrics"`
		Trace   struct {
			TraceEvents []map[string]any `json:"traceEvents"`
		} `json:"trace"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("bundle is not valid JSON: %v\n%s", err, buf.String())
	}
	if doc.Reason != "unit test" || doc.Virtual != 2.5 {
		t.Errorf("header = %q %v, want unit test / 2.5", doc.Reason, doc.Virtual)
	}
	if doc.Vars["commits"] != 3 || doc.Metrics != "memsnap_up 1\n" {
		t.Errorf("varz/metrics = %v / %q", doc.Vars, doc.Metrics)
	}
	if len(doc.Trace.TraceEvents) == 0 {
		t.Error("bundle trace is empty")
	}
	// The bundle must not consume the ring.
	if got := rec.Peek(); len(got) != 1 {
		t.Errorf("bundle drained the ring: %d events left, want 1", len(got))
	}
	// Minimal bundle: every source optional.
	var small bytes.Buffer
	if err := WriteBundle(&small, Bundle{Reason: "empty"}); err != nil {
		t.Fatalf("empty bundle: %v", err)
	}
}

func TestServerHealthAndTopz(t *testing.T) {
	ready := true
	sketch := NewTenantSketch(4)
	sketch.Observe("acme", 64, time.Millisecond)
	srv, err := Serve("127.0.0.1:0", ServerSources{
		Health: func() (bool, string) {
			if ready {
				return true, "serving"
			}
			return false, "draining"
		},
		TopK: sketch.Top,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	code, body := get(t, srv.Addr(), "/healthz")
	if code != 200 || !bytes.Contains(body, []byte("serving")) {
		t.Errorf("/healthz ready = %d %q, want 200 serving", code, body)
	}
	ready = false
	code, body = get(t, srv.Addr(), "/healthz")
	if code != 503 || !bytes.Contains(body, []byte("draining")) {
		t.Errorf("/healthz draining = %d %q, want 503 draining", code, body)
	}

	code, body = get(t, srv.Addr(), "/topz")
	if code != 200 {
		t.Fatalf("/topz = %d %q", code, body)
	}
	var doc struct {
		Tenants []TenantStat `json:"tenants"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("/topz is not valid JSON: %v\n%s", err, body)
	}
	if len(doc.Tenants) != 1 || doc.Tenants[0].Tenant != "acme" || doc.Tenants[0].Ops != 1 {
		t.Errorf("/topz = %+v, want acme with 1 op", doc.Tenants)
	}

	// The 404 hint advertises every endpoint.
	code, body = get(t, srv.Addr(), "/nope")
	if code != 404 {
		t.Fatalf("/nope = %d", code)
	}
	for _, want := range []string{"/metricz", "/varz", "/tracez", "/healthz", "/topz"} {
		if !bytes.Contains(body, []byte(want)) {
			t.Errorf("404 hint missing %s: %q", want, body)
		}
	}
}

func TestServerHealthDefault(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", ServerSources{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	// No Health source: liveness-only, always 200.
	if code, _ := get(t, srv.Addr(), "/healthz"); code != 200 {
		t.Errorf("/healthz without source = %d, want 200", code)
	}
	code, body := get(t, srv.Addr(), "/topz")
	if code != 200 || !bytes.Contains(body, []byte("tenants")) {
		t.Errorf("/topz without source = %d %q, want valid empty JSON", code, body)
	}
}
