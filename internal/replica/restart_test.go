package replica

import (
	"encoding/binary"
	"errors"
	"fmt"
	"testing"

	"memsnap/internal/core"
	"memsnap/internal/shard"
	"memsnap/internal/sim"
)

// newRestartPair wires one primary shard through a Sync shipper and a
// clean link to a follower on its own machine, sysB.
func newRestartPair(t *testing.T) (sysB *core.System, fol *Follower, ship *Shipper, svc *shard.Service) {
	t.Helper()
	sysB = newSys(t, 1)
	fol, err := NewFollower(sysB, FollowerConfig{Shards: 1, RegionBytes: regionBytes})
	if err != nil {
		t.Fatal(err)
	}
	ship = NewShipper(NewLink(LinkConfig{}), fol, 1, Config{Mode: Sync})
	svc, err = shard.New(newSys(t, 1), shard.Config{Shards: 1, RegionBytes: regionBytes, Replicator: ship})
	if err != nil {
		t.Fatal(err)
	}
	ship.Attach(svc)
	return sysB, fol, ship, svc
}

// restartFollower cuts sysB's power at the follower's end time,
// recovers the machine and reopens a follower over its regions, which
// must resume at the primary's position want.
func restartFollower(t *testing.T, sysB *core.System, fol *Follower, want shard.Meta, seed uint64) *Follower {
	t.Helper()
	cutAt := fol.EndTime()
	sysB.Array().CutPower(cutAt, sim.NewRNG(seed))
	sys, doneAt, err := core.Recover(sysOpts(1), sysB.Array(), cutAt)
	if err != nil {
		t.Fatal(err)
	}
	fol2, err := NewFollower(sys, FollowerConfig{Shards: 1, RegionBytes: regionBytes, StartAt: doneAt})
	if err != nil {
		t.Fatal(err)
	}
	if seq, era := fol2.LastApplied(0); seq != want.Seq || era != want.Era {
		t.Fatalf("restarted follower at (seq %d, era %d), want (%d, %d)", seq, era, want.Seq, want.Era)
	}
	return fol2
}

// TestFollowerRestartResumesAtNewestCopy replicates a run of puts
// whose last commit leaves its manifest copy outside the first slot
// page, cuts the follower's power after it applied everything, and
// restarts it with NewFollower over its recovered regions: the
// follower must resume at the primary's position and report its sum.
func TestFollowerRestartResumesAtNewestCopy(t *testing.T) {
	sysB, fol, ship, svc := newRestartPair(t)
	const puts = 40
	for i := 0; i < puts; i++ {
		if err := svc.Put("t", fmt.Sprintf("k%02d", i%25), uint64(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	meta, err := svc.ShardMeta(0)
	if err != nil {
		t.Fatal(err)
	}
	sums, err := svc.ShardSums()
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	if err := ship.Close(); err != nil {
		t.Fatal(err)
	}
	if meta.Seq != puts {
		t.Fatalf("primary at seq %d, want %d", meta.Seq, puts)
	}
	if seq, _ := fol.LastApplied(0); seq != meta.Seq {
		t.Fatalf("follower applied up to %d, want %d", seq, meta.Seq)
	}
	// The first slot page's manifest copy (its last 64-byte slot,
	// commit count at byte 32) must be older than the newest, or this
	// run would not tell a first-page reader from a newest-copy one.
	fs := fol.shards[0]
	fs.mu.Lock()
	first := fs.ctx.PageForRead(fs.region, core.PageSize)
	c := binary.LittleEndian.Uint64(first[core.PageSize-64+32:])
	fs.mu.Unlock()
	if c >= meta.Seq {
		t.Fatalf("first slot page carries the newest copy (commit %d); pick other keys", c)
	}

	fol2 := restartFollower(t, sysB, fol, meta, 5)
	if got := fol2.Sums()[0]; got != sums[0] {
		t.Fatalf("restarted follower sum %d, want %d", got, sums[0])
	}
}

// TestSnapshotInstallSurvivesFollowerCrash closes a gap past the
// retained window with a snapshot onto a follower whose pages are
// resident from earlier deltas, then cuts the follower's power and
// restarts it: the snapshot must have been durable, every page of it,
// so the recovered follower equals the primary.
func TestSnapshotInstallSurvivesFollowerCrash(t *testing.T) {
	sysB, fol, ship, svc := newRestartPair(t)
	put := func(i int) {
		if err := svc.Put("t", fmt.Sprintf("k%02d", i%20), uint64(i+1)); err != nil && !errors.Is(err, ErrNotAttached) {
			t.Fatal(err)
		}
	}
	for i := 0; i < 20; i++ {
		put(i)
	}
	ship.Connect(nil)
	for i := 20; i < 40; i++ { // more than the window: no replay
		put(i)
	}
	ship.Connect(fol)
	put(40)
	if n := fol.Stats()[0].Snapshots; n != 1 {
		t.Fatalf("follower installed %d snapshots, want 1", n)
	}
	meta, err := svc.ShardMeta(0)
	if err != nil {
		t.Fatal(err)
	}
	digests, err := svc.ShardDigests()
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	if err := ship.Close(); err != nil {
		t.Fatal(err)
	}

	fol2 := restartFollower(t, sysB, fol, meta, 9)
	if got := fol2.Digests()[0]; got != digests[0] {
		t.Fatalf("restarted follower digest %#x, want the primary's %#x", got, digests[0])
	}
}
