package replica

// The replicated commit path end to end — capture, Shipper (Sync),
// Link, Follower — as a seeded run whose wire bytes, virtual times and
// follower state are pinned: a change that moves any of them is a
// model change, not a simulator speed-up.

import (
	"fmt"
	"testing"
	"time"

	"memsnap/internal/core"
	"memsnap/internal/shard"
	"memsnap/internal/sim"
)

// syncPair is a one-shard primary context wired through a Sync shipper
// and a clean link to a follower — the replicated commit path without
// the shard service on top. Both regions start formatted, so they are
// byte identical from the first delta on.
type syncPair struct {
	ctx    *core.Context
	region *core.Region
	ship   *Shipper
	fol    *Follower
}

func newSyncPair(tb testing.TB, regionBytes int64) *syncPair {
	tb.Helper()
	mkSys := func() *core.System {
		sys, err := core.NewSystem(core.Options{CPUs: 1, DiskBytesEach: 512 << 20})
		if err != nil {
			tb.Fatal(err)
		}
		return sys
	}
	fol, err := NewFollower(mkSys(), FollowerConfig{Shards: 1, RegionBytes: regionBytes})
	if err != nil {
		tb.Fatal(err)
	}
	proc := mkSys().NewProcess()
	ctx := proc.NewContext(0)
	region, err := proc.Open(ctx, shard.RegionName(0), regionBytes)
	if err != nil {
		tb.Fatal(err)
	}
	if err := shard.FormatRegion(ctx, region, 0, 1, regionBytes, 0); err != nil {
		tb.Fatal(err)
	}
	ctx.CaptureCommits(true)
	return &syncPair{ctx: ctx, region: region, fol: fol,
		ship: NewShipper(NewLink(LinkConfig{}), fol, 1, Config{Mode: Sync})}
}

// commit persists the context's dirty pages as commit seq and ships
// the captured delta the way a shard worker does, returning the
// follower-ack time.
func (p *syncPair) commit(tb testing.TB, seq uint64) time.Duration {
	tb.Helper()
	epoch, err := p.ctx.Persist(p.region, core.MSSync)
	if err != nil {
		tb.Fatal(err)
	}
	pages := p.ctx.TakeCaptured()
	if len(pages) == 0 {
		tb.Fatalf("commit %d captured no pages", seq)
	}
	ackAt, err := p.ship.ShipCommit(0, p.ctx.Clock().Now(), shard.Commit{Seq: seq, Epoch: epoch, Pages: pages, Owned: true}, nil)
	if err != nil {
		tb.Fatalf("commit %d: %v", seq, err)
	}
	p.ctx.Clock().AdvanceTo(ackAt)
	return ackAt
}

func (p *syncPair) close() {
	p.ship.Close()
	p.ctx.CaptureCommits(false)
}

// Constants of the workload in TestReplicationTimelinePinned, taken
// with the two-kind wire format (full and extents frames). The follower
// digest is the one the three-kind format (with XOR-RLE frames) reached:
// only the bytes on the wire moved. FormatRegion writes the shard
// header, slot capacity included, into page 0, which this workload also
// ships: a shard layout change moves the two digests but no size or
// time. The ack digest moved, and nothing else, when the object store's
// commit record began to carry leaf entries, and again when it became a
// log of one-sector delta records: the follower's commits write fewer
// bytes, so its acks come back sooner. Wire bytes and
// every virtual time are the model's output; a change that moves any of
// them is a model change, not a simulator speed-up.
const (
	pinnedEncDigest      = "647bd8a6b28b5747"
	pinnedAckDigest      = "ba6808000852b700"
	pinnedWireBytes      = int64(7631329)
	pinnedEncodeTime     = time.Duration(611063)
	pinnedFollowerDigest = "f3d8cd09311dd979"
)

// TestReplicationTimelinePinned drives 2,000 seeded commits of one
// region through capture -> Shipper (Sync) -> Link -> Follower: eight
// hot pages rewritten a few bytes at a time, cold pages across a
// region sixteen times the pre-image budget (so pre-images evict and
// pages ship whole again), scattered single-byte edits (one every 24
// bytes: past the extent cap, so they ship as one collapsed span), and
// whole-page rewrites. It digests every delta's encoded bytes and
// every ack time and compares them, the shipper's WireBytes and
// EncodeTime and the follower's region digest with the parent's.
func TestReplicationTimelinePinned(t *testing.T) {
	const (
		regionBytes = 1 << 20
		npages      = regionBytes / core.PageSize
		commits     = 2000
	)
	p := newSyncPair(t, regionBytes)
	defer p.close()
	ctx, region, ship, fol := p.ctx, p.region, p.ship, p.fol
	ctx.SetPreImageBudget(16)

	const offset, prime = 14695981039346656037, 1099511628211
	encDigest, ackDigest := uint64(offset), uint64(offset)
	kinds := map[byte]int{}
	rng := sim.NewRNG(19)
	for seq := uint64(1); seq <= commits; seq++ {
		for w := 1 + rng.Intn(3); w > 0; w-- {
			page := int64(1 + rng.Intn(8))
			if rng.Intn(4) == 0 {
				page = int64(rng.Intn(npages))
			}
			pg := ctx.PageForWrite(region, page*core.PageSize)
			switch r := rng.Intn(20); {
			case r == 0: // whole page
				for i := range pg {
					pg[i] = byte(rng.Uint64())
				}
			case r <= 2: // scattered single bytes
				for i := rng.Intn(24); i < len(pg); i += 24 {
					pg[i] ^= byte(1 + rng.Intn(255))
				}
			default: // a short run
				off := rng.Intn(core.PageSize - 32)
				for i, n := 0, 1+rng.Intn(32); i < n; i++ {
					pg[off+i] = byte(rng.Uint64())
				}
			}
		}
		ackAt := p.commit(t, seq)

		ss := ship.shards[0]
		enc := ss.retained[len(ss.retained)-1].enc
		for _, b := range enc {
			encDigest = (encDigest ^ uint64(b)) * prime
		}
		for _, k := range frameKinds(t, enc) {
			kinds[k]++
		}
		for i := 0; i < 8; i++ {
			ackDigest = (ackDigest ^ uint64(byte(ackAt>>(8*i)))) * prime
		}
	}
	if len(kinds) != 2 || kinds[kindFull] < commits/10 || kinds[kindExtents] < commits/10 {
		t.Fatalf("frame kinds %v: the workload must exercise full and extents frames, and only those", kinds)
	}
	if fst := fol.Stats()[0]; fst.Applied != commits || fst.Gaps != 0 || fst.Snapshots != 0 {
		t.Fatalf("follower stats %+v: want %d clean applies", fst, commits)
	}
	folDigest := fol.Digests()[0]
	if pd := shard.DigestRegion(ctx, region); pd != folDigest {
		t.Fatalf("replicas diverged: primary %#x follower %#x", pd, folDigest)
	}
	st := ship.Stats()[0]
	got := fmt.Sprintf("enc %016x ack %016x wire %d encode %d follower %016x", encDigest, ackDigest, st.WireBytes, st.EncodeTime, folDigest)
	want := fmt.Sprintf("enc %s ack %s wire %d encode %d follower %s", pinnedEncDigest, pinnedAckDigest, pinnedWireBytes, pinnedEncodeTime, pinnedFollowerDigest)
	if got != want {
		t.Fatalf("the replication timeline moved:\n got  %s\n want %s", got, want)
	}
}
