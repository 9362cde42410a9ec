package replica

// White-box integration tests for sub-page delta shipping: the
// end-to-end wire-byte reduction against full-page framing, and a frame
// of an unknown kind rejected before any write and healed by a
// snapshot resync.

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"testing"
	"time"

	"memsnap/internal/core"
	"memsnap/internal/shard"
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
	if fst.Gaps != 0 || fst.Snapshots != 0 {
		t.Fatalf("clean run tripped the resync machinery: %+v", fst)
	}
}

// kind2Frame hand-builds one frame of kind 2 for page index that turns
// base into cur, which must differ from it in exactly byte off: the
// two FNV-1a page hashes, then an alternating zero-run / literal-run
// stream over base XOR cur. That was the retired XOR-RLE kind, and the
// frame is well formed by its rules, so only the kind byte can reject
// it.
func kind2Frame(index int64, off int, base, cur []byte) []byte {
	hash := func(b []byte) uint64 {
		h := fnv.New64a()
		h.Write(b)
		return h.Sum64()
	}
	var p []byte
	p = binary.LittleEndian.AppendUint64(p, hash(base))
	p = binary.LittleEndian.AppendUint64(p, hash(cur))
	p = binary.AppendUvarint(p, uint64(off))
	p = binary.AppendUvarint(p, 1)
	p = append(p, base[off]^cur[off])
	if rest := len(cur) - off - 1; rest > 0 {
		p = binary.AppendUvarint(p, uint64(rest))
	}
	return append(appendFrameHeader(nil, index, 2, len(p)), p...)
}

// TestUnknownFrameKindForcesSnapshotResync: a delta carrying a kind-2
// frame — even one that would patch the follower's live page exactly —
// is rejected before any write, alone (Apply) and behind a valid
// member of a run (applyRun); the shipper then falls back to a
// snapshot resync that restores convergence.
func TestUnknownFrameKindForcesSnapshotResync(t *testing.T) {
	fol := batchFollower(t, 1)
	link := NewLink(LinkConfig{})
	s := NewShipper(link, fol, 1, Config{Mode: Sync})
	ss := s.shards[0]

	// Seq 1 lands normally (full frames: no pre-image yet).
	base := basePage()
	d1 := &Delta{Shard: 0, Seq: 1, Pages: []core.CommittedPage{{Index: 1, Data: append([]byte(nil), base...)}}}
	encodeOwned(t, d1)
	ss.retain(d1, s.cfg.Window)
	if _, err := s.ship(ss, 0, []*Delta{d1}, nil, true); err != nil {
		t.Fatal(err)
	}
	before := fol.Digests()[0]

	cur := append([]byte(nil), base...)
	cur[300] ^= 0x42
	bad := func(seq uint64) *Delta {
		return &Delta{Shard: 0, Seq: seq, enc: kind2Frame(1, 300, base, cur)}
	}
	good := codecDelta(2, 2, basePage(), cur)
	encodeOwned(t, good)
	for name, apply := range map[string]func() ApplyStatus{
		"apply":     func() ApplyStatus { _, st := fol.Apply(0, bad(2)); return st },
		"apply_run": func() ApplyStatus { _, st := fol.applyRun(0, []*Delta{good, bad(3)}); return st },
	} {
		if st := apply(); st.Code != ApplyGap || st.LastSeq != 1 {
			t.Fatalf("%s: a kind-2 frame answered %+v, want ApplyGap at 1", name, st)
		}
		if after := fol.Digests()[0]; after != before {
			t.Fatalf("%s: the rejected delta changed the region: digest %#x -> %#x", name, before, after)
		}
	}

	// Through the shipper: the gap replays the retained kind-2 delta,
	// which fails again, so catch-up falls back to a snapshot.
	d2 := bad(2)
	ss.retain(d2, s.cfg.Window)
	snapFn := func() shard.Snapshot {
		return shard.Snapshot{Shard: 0, Seq: 2, Era: 0, Pages: []core.CommittedPage{{Index: 1, Data: append([]byte(nil), cur...)}}}
	}
	if _, err := s.ship(ss, time.Millisecond, []*Delta{d2}, snapFn, true); err != nil {
		t.Fatalf("ship with snapshot fallback: %v", err)
	}
	fst := fol.Stats()[0]
	if fst.Snapshots != 1 || fst.LastSeq != 2 {
		t.Fatalf("follower stats %+v: want one snapshot installed and position 2", fst)
	}
	if st := s.Stats()[0]; st.Gaps == 0 || st.Snapshots != 1 {
		t.Fatalf("shipper stats %+v: want gap reports and one snapshot", st)
	}
	fs := fol.shards[0]
	got := fs.ctx.PageForRead(fs.region, core.PageSize)
	for i := range got {
		if got[i] != cur[i] {
			t.Fatalf("follower page diverged at byte %d after resync", i)
		}
	}
}
