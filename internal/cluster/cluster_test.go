package cluster

import (
	"bytes"
	"fmt"
	"testing"

	"memsnap/internal/core"
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
