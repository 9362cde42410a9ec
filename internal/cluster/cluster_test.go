package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"memsnap/internal/core"
	"memsnap/internal/obs"
	"memsnap/internal/replica"
	"memsnap/internal/shard"
	"memsnap/internal/sim"
)

// TestReplicaLifecycle runs the replica topology through three rounds
// of every verb — a power cut with failover, a follower crash and a
// drain with reopen — writing between each, over a seeded lossy link.
// At the end the follower must hold the primary's exact state, and
// every machine the cluster ever booted must hold exactly the frames
// its regions map.
func TestReplicaLifecycle(t *testing.T) {
	const shards = 2
	c, err := New(Config{
		Machine: core.Options{CPUs: shards, Disks: 2, DiskBytesEach: 64 << 20},
		Shard:   shard.Config{Shards: shards, RegionBytes: 1 << 18, BatchSize: 4},
		Replica: &replica.Config{Mode: replica.Sync},
		Link:    replica.LinkConfig{Seed: 7, LossProb: 0.02},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	next := uint64(0)
	write := func(what string) {
		t.Helper()
		for i := 0; i < 40; i++ {
			next++
			if err := c.Svc.Put("t", fmt.Sprintf("k%03d", next%50), next); err != nil {
				t.Fatalf("%s: put %d: %v", what, next, err)
			}
		}
	}
	// converged requires the follower to hold the primary's exact
	// state: digests, sums and replication positions.
	converged := func(what string) {
		t.Helper()
		digests, err := c.Svc.ShardDigests()
		if err != nil {
			t.Fatal(err)
		}
		sums, err := c.Svc.ShardSums()
		if err != nil {
			t.Fatal(err)
		}
		fd, fs := c.Fol.Digests(), c.Fol.Sums()
		for sh := 0; sh < shards; sh++ {
			meta, err := c.Svc.ShardMeta(sh)
			if err != nil {
				t.Fatal(err)
			}
			seq, era := c.Fol.LastApplied(sh)
			if fd[sh] != digests[sh] || fs[sh] != sums[sh] || seq != meta.Seq || era != meta.Era {
				t.Fatalf("%s: shard %d: follower (digest %#x, sum %d, seq %d, era %d), primary (%#x, %d, %d, %d)",
					what, sh, fd[sh], fs[sh], seq, era, digests[sh], sums[sh], meta.Seq, meta.Era)
			}
		}
	}
	rng := sim.NewRNG(7)
	for round := 0; round < 3; round++ {
		write("serve")
		cutAt := c.CutPower(c.Svc.EndTime(), rng)
		if err := c.Failover(cutAt, 0); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		for _, rec := range c.Svc.Recovery() {
			if !rec.Existing || !rec.Consistent() || rec.Era != uint64(round+1) {
				t.Fatalf("round %d: promoted shard %d recovered %+v", round, rec.Shard, rec)
			}
		}
		converged(fmt.Sprintf("round %d failover", round))
		write("after failover")
		if err := c.RestartFollower(rng); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		write("after follower restart")
		if err := c.Reopen(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		write("after reopen")
	}
	converged("end")

	var prom bytes.Buffer
	if err := c.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	for _, series := range []string{"memsnap_shard_ops_total", "memsnap_replica_acked_total", "memsnap_follower_applied_total"} {
		if !bytes.Contains(prom.Bytes(), []byte(series)) {
			t.Errorf("exposition lacks %s", series)
		}
	}
	vars := c.Vars()
	for _, key := range []string{"total", "shards", "replication", "follower"} {
		if vars[key] == nil {
			t.Errorf("Vars lacks %q", key)
		}
	}

	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	// 2 booted + 3 rounds of (ex-primary rejoin + follower restart).
	if got := len(c.Machines()); got != 8 {
		t.Fatalf("%d machines recorded, want 8", got)
	}
	for i, sys := range c.Machines() {
		st := sys.Phys().Stats()
		if got, want := st.TotalFrames-st.FreeFrames, sys.MappedFrames(); got != want {
			t.Errorf("machine %d holds %d live frames, its regions map %d", i, got, want)
		}
	}
}

// TestReplicatedTraceCarriesEveryLayer runs traced writes through an
// asynchronously replicated cluster with a recorder and a tenant sketch,
// and checks what a scrape of it serves: the metric series of every
// layer, a /varz document with the service totals, a ranked tenant,
// and a trace with events from all four categories whose request flows
// each run from a start to a finish. The obs server tests cover the
// HTTP transport; this covers the cluster's wiring of one recorder to
// the primary, the shipper and the follower.
func TestReplicatedTraceCarriesEveryLayer(t *testing.T) {
	const shards = 2
	rec := obs.NewRecorder(1 << 14)
	sketch := obs.NewTenantSketch(obs.DefaultTenantTopK)
	c, err := New(Config{
		Machine: core.Options{CPUs: shards, DiskBytesEach: 64 << 20},
		Shard:   shard.Config{Shards: shards, RegionBytes: 1 << 18, Recorder: rec, Tenants: sketch},
		Replica: &replica.Config{Mode: replica.Async},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 120; i++ {
		op := shard.Op{Kind: shard.OpPut, Tenant: fmt.Sprintf("t%d", i%3), Key: fmt.Sprintf("k%03d", i%40), Value: uint64(i)}
		switch i % 4 {
		case 1:
			op.Kind = shard.OpAdd
		case 2:
			op.Kind = shard.OpGet
		case 3:
			op.TraceID = uint64(i) // a sampled write: its spans stitch into a flow
		}
		if resp := c.Svc.Do(op); resp.Err != nil {
			t.Fatalf("op %d: %v", i, resp.Err)
		}
	}

	var metrics bytes.Buffer
	if err := c.WritePrometheus(&metrics); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"memsnap_shard_commit_latency_seconds_bucket",
		"memsnap_shard_persist_latency_seconds_count",
		"memsnap_obs_events_recorded_total",
		"memsnap_replica_ack_latency_seconds_count",
		"memsnap_tenant_ops",
		"memsnap_tenant_wire_bytes",
	} {
		if !bytes.Contains(metrics.Bytes(), []byte(want)) {
			t.Errorf("metrics missing series %s", want)
		}
	}
	vars, err := json.Marshal(c.Vars())
	if err != nil {
		t.Fatal(err)
	}
	var vdoc map[string]json.RawMessage
	if err := json.Unmarshal(vars, &vdoc); err != nil || vdoc["total"] == nil {
		t.Errorf("vars carry no total (err %v): %.200s", err, vars)
	}
	if top := sketch.Top(); len(top) == 0 || top[0].Ops == 0 {
		t.Errorf("tenant sketch ranked no activity: %+v", top)
	}

	// Closing drains the async shipper, so every replica span is in.
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	var trace bytes.Buffer
	if err := obs.WriteTrace(&trace, rec.Drain()); err != nil {
		t.Fatal(err)
	}
	var tdoc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(trace.Bytes(), &tdoc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	cats := map[string]bool{}
	flows := map[string][]string{}
	for _, ev := range tdoc.TraceEvents {
		if cat, ok := ev["cat"].(string); ok {
			cats[cat] = true
		}
		if ph, _ := ev["ph"].(string); ph == "s" || ph == "t" || ph == "f" {
			id, _ := ev["id"].(string)
			flows[id] = append(flows[id], ph)
		}
	}
	for _, want := range []string{"vm", "persist", "shard", "replica"} {
		if !cats[want] {
			t.Errorf("trace has no %q events (categories %v)", want, cats)
		}
	}
	if len(flows) == 0 {
		t.Error("trace has no request flows")
	}
	for id, phases := range flows {
		if phases[0] != "s" || phases[len(phases)-1] != "f" {
			t.Errorf("flow %s runs %v, want s first and f last", id, phases)
		}
	}
}
