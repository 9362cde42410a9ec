package shard

import (
	"testing"

	"memsnap/internal/vm"
)

// checkOwnSpaces fails unless every shard context of svc has an address
// space of its own, holding its thread alone.
func checkOwnSpaces(t *testing.T, who string, svc *Service) {
	t.Helper()
	seen := make(map[*vm.AddressSpace]int)
	for i, sh := range svc.shards {
		as := sh.ctx.Thread().AddressSpace()
		if j, ok := seen[as]; ok {
			t.Errorf("%s: shards %d and %d share an address space", who, j, i)
		}
		seen[as] = i
		if n := len(as.Threads()); n != 1 {
			t.Errorf("%s: shard %d's address space holds %d threads, want 1", who, i, n)
		}
	}
}

// TestShardsOwnTheirAddressSpaces pins the topology: every shard is one
// process with one thread, so no two shard contexts share an
// AddressSpace (and its fault lock). It holds for a fresh service and
// for one reopened over existing regions while the old service's
// processes still map them — the way replica.Follower.Promote and
// cluster.Failover open a service (shard.New over the follower's
// regions). replica.TestFollowerShardsOwnTheirAddressSpaces holds the
// follower's shards to the same rule.
func TestShardsOwnTheirAddressSpaces(t *testing.T) {
	const shards = 4
	sys := newSystem(t, shards)
	cfg := Config{Shards: shards, RegionBytes: 256 << 10}
	svc, err := New(sys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkOwnSpaces(t, "fresh", svc)
	for i := 0; i < 64; i++ {
		if _, err := svc.Add("t", string(rune('a'+i%26))+string(rune('a'+i/26)), 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}

	cfg.Era = 1
	reopened, err := New(sys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	checkOwnSpaces(t, "reopened", reopened)
	if total, err := reopened.TotalValueSum(); err != nil || total != 64 {
		t.Errorf("the reopened service holds %d (%v), want the 64 adds", total, err)
	}
}
