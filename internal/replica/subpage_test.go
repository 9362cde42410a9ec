package replica

// White-box integration tests for sub-page delta shipping: the
// end-to-end wire-byte reduction against full-page framing, and
// the pre-image hash guard driving a diverged follower into a snapshot
// resync instead of silently XOR-patching a wrong base.

import (
	"fmt"
	"testing"
	"time"

	"memsnap/internal/core"
	"memsnap/internal/shard"
	"memsnap/internal/sim"
)

// runReplicatedWorkload runs a single-shard synchronous replication
// workload and returns the shipper stats and the follower.
func runReplicatedWorkload(t *testing.T) (ShardRepStats, *Follower) {
	t.Helper()
	mkSys := func() *core.System {
		sys, err := core.NewSystem(core.Options{CPUs: 1, DiskBytesEach: 512 << 20})
		if err != nil {
			t.Fatal(err)
		}
		return sys
	}
	fol, err := NewFollower(mkSys(), FollowerConfig{Shards: 1, RegionBytes: batchRegionBytes})
	if err != nil {
		t.Fatal(err)
	}
	ship := NewShipper(NewLink(LinkConfig{}), fol, 1, Config{Mode: Sync})
	svc, err := shard.New(mkSys(), shard.Config{Shards: 1, RegionBytes: batchRegionBytes, Replicator: ship})
	if err != nil {
		t.Fatal(err)
	}
	ship.Attach(svc)
	for i := 0; i < 60; i++ {
		if i%4 == 3 {
			if _, err := svc.Add("t", fmt.Sprintf("k%02d", i%8), 1); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if err := svc.Put("t", fmt.Sprintf("k%02d", i%8), uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	pd, err := svc.ShardDigests()
	if err != nil {
		t.Fatal(err)
	}
	if fd := fol.Digests(); pd[0] != fd[0] {
		t.Fatalf("replicas diverged: primary %#x follower %#x", pd[0], fd[0])
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	st := ship.Stats()[0]
	if err := ship.Close(); err != nil {
		t.Fatal(err)
	}
	return st, fol
}

// TestSubPageShippingReducesWireBytes pins the tentpole win: the
// workload ships several-fold fewer bytes than full pages would, while
// the follower stays byte-identical. The full-page baseline is what
// each delta shipped plus what its encoding saved.
func TestSubPageShippingReducesWireBytes(t *testing.T) {
	st, fol := runReplicatedWorkload(t)
	if st.WireBytes == 0 {
		t.Fatal("WireBytes counter not populated")
	}
	if full := st.WireBytes + st.DiffSavedBytes; st.WireBytes*3 > full {
		t.Fatalf("sub-page shipping sent %d bytes vs %d full-page: less than the required 3x reduction", st.WireBytes, full)
	}
	if st.Extents == 0 || st.EncodeTime <= 0 {
		t.Fatalf("diffing stats not populated: %+v", st)
	}
	fst := fol.Stats()[0]
	if fst.PatchedBytes == 0 {
		t.Fatal("follower patched no sub-page bytes")
	}
	if fst.BaseMismatches != 0 || fst.Gaps != 0 || fst.Snapshots != 0 {
		t.Fatalf("clean run tripped the resync machinery: %+v", fst)
	}
}

// TestBaseMismatchForcesSnapshotResync: an XOR frame whose pre-image
// does not match the follower's page is rejected before any write —
// the byte-identical-prefix invariant — and the shipper falls back to
// a snapshot resync that restores convergence.
func TestBaseMismatchForcesSnapshotResync(t *testing.T) {
	fol := batchFollower(t, 1)
	link := NewLink(LinkConfig{})
	s := NewShipper(link, fol, 1, Config{Mode: Sync})
	ss := s.shards[0]

	// Seq 1 lands normally (full frames: no pre-image yet).
	base := basePage()
	d1 := &Delta{Shard: 0, Seq: 1, Pages: []core.CommittedPage{{Index: 1, Data: append([]byte(nil), base...)}}}
	d1.encode(sim.DefaultCosts())
	ss.retain(d1, s.cfg.Window)
	if _, err := s.deliver(ss, 0, d1, nil, true); err != nil {
		t.Fatal(err)
	}

	// Seq 2 claims a pre-image the follower never had: a fragmented
	// diff so the encoder picks XOR+RLE, whose base hash the follower
	// must check against its live page (which holds `base`, not
	// `wrongPrev`).
	wrongPrev := make([]byte, core.PageSize)
	for i := range wrongPrev {
		wrongPrev[i] = byte(i * 31)
	}
	cur := append([]byte(nil), wrongPrev...)
	for i := 0; i < len(cur); i += 24 {
		cur[i] ^= 0x01
	}
	d2 := codecDelta(2, 1, wrongPrev, cur)
	d2.encode(sim.DefaultCosts())
	if kinds := frameKinds(t, d2.enc); kinds[0] != kindXorRLE {
		t.Fatalf("want an XOR frame to exercise the hash guard, got kind %d", kinds[0])
	}
	ss.retain(d2, s.cfg.Window)

	// The catch-up snapshot the shipper will fall back to.
	snapPage := append([]byte(nil), cur...)
	snapFn := func() shard.Snapshot {
		return shard.Snapshot{Shard: 0, Seq: 2, Era: 0, Pages: []core.CommittedPage{{Index: 1, Data: snapPage}}}
	}
	if _, err := s.deliver(ss, time.Millisecond, d2, snapFn, true); err != nil {
		t.Fatalf("deliver with snapshot fallback: %v", err)
	}

	fst := fol.Stats()[0]
	if fst.BaseMismatches == 0 {
		t.Fatal("the pre-image hash guard never fired")
	}
	if fst.Snapshots != 1 {
		t.Fatalf("follower installed %d snapshots, want 1", fst.Snapshots)
	}
	if fst.LastSeq != 2 {
		t.Fatalf("follower position = %d, want 2 after resync", fst.LastSeq)
	}
	st := s.Stats()[0]
	if st.Gaps == 0 || st.Snapshots != 1 {
		t.Fatalf("shipper stats %+v: want gap reports and one snapshot", st)
	}
	// The region must hold the snapshot content, not an XOR patch of
	// the wrong base.
	fs := fol.shards[0]
	got := fs.ctx.PageForRead(fs.region, core.PageSize)
	for i := range got {
		if got[i] != cur[i] {
			t.Fatalf("follower page diverged at byte %d after resync", i)
		}
	}
}
