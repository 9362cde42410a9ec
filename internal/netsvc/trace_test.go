package netsvc

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"memsnap/internal/core"
	"memsnap/internal/obs"
	"memsnap/internal/proto"
	"memsnap/internal/replica"
	"memsnap/internal/shard"
)

// newTracedCluster builds a replicated single-shard service with one
// shared recorder across the client, net, shard, shipper and follower
// lanes, served over real TCP.
func newTracedCluster(t *testing.T, rec *obs.Recorder) (*Server, *shard.Service) {
	t.Helper()
	sysOpts := core.Options{CPUs: 1, DiskBytesEach: 256 << 20}
	sysA, err := core.NewSystem(sysOpts)
	if err != nil {
		t.Fatalf("primary system: %v", err)
	}
	sysB, err := core.NewSystem(sysOpts)
	if err != nil {
		t.Fatalf("follower system: %v", err)
	}
	link := replica.NewLink(replica.LinkConfig{})
	fol, err := replica.NewFollower(sysB, replica.FollowerConfig{Shards: 1, Recorder: rec})
	if err != nil {
		t.Fatalf("follower: %v", err)
	}
	// Sync mode: the follower has applied (and its spans are recorded)
	// before the client's ack arrives, so draining the ring after the
	// last response sees the whole chain.
	ship := replica.NewShipper(link, fol, 1, replica.Config{Mode: replica.Sync, Recorder: rec})
	svc, err := shard.New(sysA, shard.Config{Shards: 1, Replicator: ship, Recorder: rec})
	if err != nil {
		t.Fatalf("service: %v", err)
	}
	ship.Attach(svc)
	t.Cleanup(func() {
		svc.Close()
		ship.Close()
	})
	srv := startServer(t, svc, Config{Recorder: rec})
	return srv, svc
}

// TestTraceStitchAcrossLanes pins the tentpole end-to-end contract: a
// sampled request produces spans that share one flow id across every
// lane — client, netsvc, shard worker, shipper and follower — and
// obs.WriteTrace renders them as one valid trace-event JSON document
// whose flow events bind the lanes together. A sampled get, answered on
// the connection's reader when its shard is idle, still stitches client
// ↔ netsvc ↔ shard.
func TestTraceStitchAcrossLanes(t *testing.T) {
	rec := obs.NewRecorder(1 << 14)
	srv, svc := newTracedCluster(t, rec)

	cl, err := Dial(srv.Addr(), 4)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer cl.Close()
	cl.EnableTracing(Tracing{
		Recorder: rec,
		Sampler:  obs.NewSampler(7, 1), // sample everything
		Now:      svc.EndTime,
		Track:    obs.ClientTrack(0),
	})

	// Sequential writes: one request per group commit, so every flow id
	// that wins its batch covers the full chain.
	for i := 0; i < 8; i++ {
		q := proto.Request{
			Kind:   proto.KindPut,
			Tenant: []byte("acme"),
			Key:    []byte(fmt.Sprintf("k%03d", i)),
			Value:  uint64(i),
		}
		p, err := cl.Do(&q)
		if err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
		if p.Status != proto.StatusOK {
			t.Fatalf("put %d: status %v", i, p.Status)
		}
	}

	putFlows := lanesOf(rec.Peek())
	// Sequential gets find the shard idle and run on the connection's
	// reader; each must still stitch client ↔ netsvc ↔ shard.
	for i := 0; i < 8; i++ {
		q := proto.Request{Kind: proto.KindGet, Tenant: []byte("acme"), Key: []byte(fmt.Sprintf("k%03d", i))}
		if p, err := cl.Do(&q); err != nil || p.Status != proto.StatusOK || p.Value != uint64(i) {
			t.Fatalf("get %d: %+v, %v", i, p, err)
		}
	}

	evs := rec.Peek()
	lanesByFlow := lanesOf(evs)
	gets := 0
	for flow, lanes := range lanesByFlow {
		if putFlows[flow] != nil {
			continue
		}
		gets++
		for _, lane := range []string{"client", "netsvc", "worker"} {
			if !lanes[lane] {
				t.Errorf("get flow %#x missed the %s lane: %v", flow, lane, lanes)
			}
		}
	}
	if gets != 8 {
		t.Errorf("%d get flows, want 8", gets)
	}
	if len(lanesByFlow) == 0 {
		t.Fatal("no flow-tagged events recorded")
	}
	want := []string{"client", "netsvc", "worker", "shipper", "follower"}
	stitched := 0
	for flow, lanes := range lanesByFlow {
		all := true
		for _, lane := range want {
			if !lanes[lane] {
				all = false
				break
			}
		}
		if all {
			stitched++
		}
		if lanes["client"] && !lanes["netsvc"] {
			t.Errorf("flow %#x reached the client lane but not netsvc", flow)
		}
	}
	if stitched == 0 {
		t.Fatalf("no flow spans all lanes %v; got %d partial flows", want, len(lanesByFlow))
	}

	// The rendered trace must be valid trace-event JSON whose flow
	// events (s/t/f) share ids and terminate with bp:"e".
	var buf bytes.Buffer
	if err := obs.WriteTrace(&buf, evs); err != nil {
		t.Fatalf("WriteTrace: %v", err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	flowPhases := map[string][]string{}
	for _, ev := range doc.TraceEvents {
		ph, _ := ev["ph"].(string)
		switch ph {
		case "M", "X", "i", "C":
			continue
		case "s", "t", "f":
			id, _ := ev["id"].(string)
			if id == "" {
				t.Fatalf("flow event without id: %v", ev)
			}
			if ph == "f" {
				if bp, _ := ev["bp"].(string); bp != "e" {
					t.Errorf("flow finish without bp:e: %v", ev)
				}
			}
			flowPhases[id] = append(flowPhases[id], ph)
		default:
			t.Fatalf("unexpected phase %q in trace", ph)
		}
	}
	if len(flowPhases) != len(lanesByFlow) {
		t.Errorf("trace has %d flow ids, recorder had %d", len(flowPhases), len(lanesByFlow))
	}
	for id, phases := range flowPhases {
		if phases[0] != "s" {
			t.Errorf("flow %s does not start with s: %v", id, phases)
		}
		if phases[len(phases)-1] != "f" {
			t.Errorf("flow %s does not finish with f: %v", id, phases)
		}
		for _, ph := range phases[1 : len(phases)-1] {
			if ph != "t" {
				t.Errorf("flow %s has interior phase %q: %v", id, ph, phases)
			}
		}
	}
}

// lanesOf collects the set of lane labels each flow id touched.
func lanesOf(evs []obs.Event) map[uint64]map[string]bool {
	lanesByFlow := map[uint64]map[string]bool{}
	for _, ev := range evs {
		if ev.Flow == 0 {
			continue
		}
		lane, _ := obs.TrackName(ev.Track)
		m := lanesByFlow[ev.Flow]
		if m == nil {
			m = map[string]bool{}
			lanesByFlow[ev.Flow] = m
		}
		m[lane] = true
	}
	return lanesByFlow
}

// TestUntracedWireUnchanged pins that a client without tracing enabled
// produces frames with no trace context and records nothing.
func TestUntracedWireUnchanged(t *testing.T) {
	rec := obs.NewRecorder(1 << 10)
	svc := newService(t, shard.Config{Shards: 1})
	srv := startServer(t, svc, Config{Recorder: rec})
	cl, err := Dial(srv.Addr(), 2)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer cl.Close()
	q := proto.Request{Kind: proto.KindPut, Tenant: []byte("t"), Key: []byte("k"), Value: 7}
	if _, err := cl.Do(&q); err != nil {
		t.Fatalf("put: %v", err)
	}
	if q.Traced || q.TraceID != 0 {
		t.Fatalf("untraced client set trace context: %+v", q)
	}
	for _, ev := range rec.Peek() {
		if ev.Cat == obs.CatNet {
			t.Fatalf("untraced request recorded a net span: %+v", ev)
		}
	}
}
