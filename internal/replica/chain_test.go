package replica

// Follower hash-chain tests for the lazy full-frame hash: a full
// frame seeds the chain without being hashed, and the hash is computed
// only when a later XOR frame of the same run asks for it — accepting
// and rejecting exactly what the eager chain did. Plus the pin that
// nothing modelled moved: a seeded Sync run whose wire bytes, virtual
// times and follower state equal constants taken at the parent commit.

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"memsnap/internal/core"
	"memsnap/internal/shard"
	"memsnap/internal/sim"
)

// fragmented returns a copy of page with one byte in every 24 flipped:
// past maxDiffExtents runs, so the encoder picks XOR-RLE.
func fragmented(page []byte) []byte {
	cur := append([]byte(nil), page...)
	for i := 0; i < len(cur); i += 24 {
		cur[i] ^= 0x01
	}
	return cur
}

// chainPage builds one unpooled page; prev nil ships it whole.
func chainPage(index int64, prev, cur []byte) core.CommittedPage {
	pg := core.CommittedPage{Index: index, Data: append([]byte(nil), cur...)}
	if prev != nil {
		pg.Prev = append([]byte(nil), prev...)
		pg.Extents = core.DiffExtents(prev, cur, make([]core.Extent, 0, 8))
	}
	return pg
}

// chainDelta encodes pages as delta seq and checks the frame kinds.
func chainDelta(t *testing.T, seq uint64, wantKinds []byte, pages ...core.CommittedPage) *Delta {
	t.Helper()
	d := &Delta{Shard: 0, Seq: seq, Pages: pages}
	d.encode(sim.DefaultCosts(), false)
	kinds := frameKinds(t, d.enc)
	if fmt.Sprint(kinds) != fmt.Sprint(wantKinds) {
		t.Fatalf("seq %d encoded as kinds %v, want %v", seq, kinds, wantKinds)
	}
	return d
}

// applyRun applies ds as one unit: Apply for a single delta carrying
// the whole chain, ApplyBatch for one delta per link of it.
func applyRun(fol *Follower, ds []*Delta) ApplyStatus {
	_, st := fol.ApplyBatch(0, ds)
	return st
}

// chainRuns returns each scenario twice: the chain inside one delta
// (single Apply) and spread over consecutive deltas (ApplyBatch).
func chainRuns(t *testing.T, links [][]byte, pages ...core.CommittedPage) map[string][]*Delta {
	t.Helper()
	var kinds []byte
	for _, k := range links {
		kinds = append(kinds, k...)
	}
	clone := func(pg core.CommittedPage) core.CommittedPage { return chainPage(pg.Index, pg.Prev, pg.Data) }
	var single []core.CommittedPage
	var batch []*Delta
	n := 0
	for i, k := range links {
		var member []core.CommittedPage
		for range k {
			single = append(single, clone(pages[n]))
			member = append(member, clone(pages[n]))
			n++
		}
		batch = append(batch, chainDelta(t, uint64(i+1), k, member...))
	}
	return map[string][]*Delta{
		"apply":       {chainDelta(t, 1, kinds, single...)},
		"apply_batch": batch,
	}
}

func TestLazyChainFullThenXor(t *testing.T) {
	base := basePage()
	cur := fragmented(base)
	runs := chainRuns(t, [][]byte{{kindFull}, {kindXorRLE}},
		chainPage(1, nil, base), chainPage(1, base, cur))
	for name, ds := range runs {
		t.Run(name, func(t *testing.T) {
			fol := batchFollower(t, 1)
			if st := applyRun(fol, ds); st.Code != ApplyOK {
				t.Fatalf("full -> XOR run rejected: %+v", st)
			}
			fs := fol.shards[0]
			if got := fs.ctx.PageForRead(fs.region, core.PageSize); !bytes.Equal(got, cur) {
				t.Fatal("follower page is not the XOR-patched content")
			}
			// One hash: the full frame's, on demand. The XOR frame found
			// the page tracked, so the live page was not hashed.
			if fs.valHashes != 1 {
				t.Fatalf("validation computed %d page hashes, want 1", fs.valHashes)
			}
		})
	}
}

func TestLazyChainWrongBaseRejected(t *testing.T) {
	base := basePage()
	wrong := append([]byte(nil), base...)
	wrong[77] ^= 0x10
	runs := chainRuns(t, [][]byte{{kindFull}, {kindXorRLE}},
		chainPage(1, nil, base), chainPage(1, wrong, fragmented(wrong)))
	for name, ds := range runs {
		t.Run(name, func(t *testing.T) {
			fol := batchFollower(t, 1)
			before := fol.Digests()[0]
			st := applyRun(fol, ds)
			if st.Code != ApplyGap || st.LastSeq != 0 {
				t.Fatalf("XOR frame against a wrong base: %+v, want ApplyGap at 0", st)
			}
			fst := fol.Stats()[0]
			if fst.BaseMismatches != 1 || fst.Applied != 0 {
				t.Fatalf("follower stats %+v: want one base mismatch and nothing applied", fst)
			}
			if after := fol.Digests()[0]; after != before {
				t.Fatalf("rejected run changed the region: digest %#x -> %#x", before, after)
			}
		})
	}
}

func TestLazyChainExtentsMakeHashUnknown(t *testing.T) {
	base := basePage()
	mid := append([]byte(nil), base...)
	mid[300] ^= 0xFF
	runs := chainRuns(t, [][]byte{{kindFull}, {kindExtents}, {kindXorRLE}},
		chainPage(1, nil, base), chainPage(1, base, mid), chainPage(1, mid, fragmented(mid)))
	for name, ds := range runs {
		t.Run(name, func(t *testing.T) {
			fol := batchFollower(t, 1)
			before := fol.Digests()[0]
			if st := applyRun(fol, ds); st.Code != ApplyGap {
				t.Fatalf("full -> extents -> XOR: %+v, want ApplyGap (page hash unknown)", st)
			}
			fs := fol.shards[0]
			if fs.baseMismatch != 1 || fs.valHashes != 0 {
				t.Fatalf("baseMismatch=%d valHashes=%d, want 1 and 0 (nothing to compare, nothing hashed)", fs.baseMismatch, fs.valHashes)
			}
			if after := fol.Digests()[0]; after != before {
				t.Fatalf("rejected run changed the region: digest %#x -> %#x", before, after)
			}
		})
	}
}

func TestFullFrameRunHashesNothing(t *testing.T) {
	fol := batchFollower(t, 1)
	var ds []*Delta
	for seq := uint64(1); seq <= 4; seq++ {
		a, b := basePage(), basePage()
		a[0], b[0] = byte(seq), byte(seq+100)
		ds = append(ds, chainDelta(t, seq, []byte{kindFull, kindFull}, chainPage(1, nil, a), chainPage(2, nil, b)))
	}
	if _, st := fol.Apply(0, ds[0]); st.Code != ApplyOK {
		t.Fatalf("Apply: %+v", st)
	}
	if st := applyRun(fol, ds[1:]); st.Code != ApplyOK || st.LastSeq != 4 {
		t.Fatalf("ApplyBatch: %+v", st)
	}
	if n := fol.shards[0].valHashes; n != 0 {
		t.Fatalf("a run of full frames computed %d page hashes, want 0", n)
	}
}

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
	if _, err := p.ctx.Persist(p.region, core.MSSync); err != nil {
		tb.Fatal(err)
	}
	caps := p.ctx.TakeCaptured()
	if len(caps) != 1 {
		tb.Fatalf("commit %d captured %d regions", seq, len(caps))
	}
	pages := caps[0].MovePages(core.GetCommittedPages(len(caps[0].Pages)))
	ackAt, err := p.ship.ShipCommit(0, p.ctx.Clock().Now(), shard.Commit{Seq: seq, Epoch: caps[0].Epoch, Pages: pages, Owned: true}, nil)
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

// Constants of the workload in TestReplicationTimelinePinned, taken at
// commit e095aa9, when the encoder sized XOR-RLE by scanning whole
// pages, the follower hashed every full frame eagerly and capture
// copied each dirty page twice. Wire bytes and every virtual time are
// the model's output; a change that moves any of them is a model
// change, not a simulator speed-up.
const (
	pinnedEncDigest      = "06da73c097c6ab76"
	pinnedAckDigest      = "16a09502d62f7a26"
	pinnedWireBytes      = int64(6755166)
	pinnedEncodeTime     = time.Duration(572525)
	pinnedFollowerDigest = "a2a2a259fc211ac3"
)

// TestReplicationTimelinePinned drives 2,000 seeded commits of one
// region through capture -> Shipper (Sync) -> Link -> Follower: eight
// hot pages rewritten a few bytes at a time, cold pages across a
// region sixteen times the pre-image budget (so pre-images evict and
// pages ship whole again), scattered edits that XOR-RLE wins, and
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
	if kinds[kindFull] < commits/10 || kinds[kindExtents] < commits/10 || kinds[kindXorRLE] < commits/20 {
		t.Fatalf("frame kinds %v: the workload must exercise all three", kinds)
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
