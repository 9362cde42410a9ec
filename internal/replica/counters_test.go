package replica

// The shipper's counters under every outcome its retransmission and
// catch-up machinery has, pinned: a refactor of the send/apply loops
// that moves any of them changed what the pipeline does, not how it is
// written.

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"memsnap/internal/core"
	"memsnap/internal/obs"
	"memsnap/internal/shard"
	"memsnap/internal/sim"
)

// counterLines renders every field of each stats value as one
// "name=value" line, with a histogram reduced to its Sum and Count.
func counterLines[T any](label string, stats []T) []string {
	var out []string
	for i, st := range stats {
		v := reflect.ValueOf(st)
		for f := 0; f < v.NumField(); f++ {
			name, field := v.Type().Field(f).Name, v.Field(f).Interface()
			if h, ok := field.(obs.HistSnapshot); ok {
				field = fmt.Sprintf("sum %d count %d", h.Sum, h.Count)
			}
			out = append(out, fmt.Sprintf("%s[%d].%s=%v", label, i, name, field))
		}
	}
	return out
}

// TestShipperCountersPinned runs one primary shard through a Sync-mode
// shipper over a seeded lossy link and drives the sender's batch path
// by hand, as batch_test.go does: lone synchronous commits, queued runs
// of one to four deltas through processBatch, an outage window, a
// follower gap replayed from the retained window, gaps beyond the
// window closed by a snapshot (from the committing caller and from the
// attached service), and finally Reconcile against a follower that
// missed a few deltas and against a freshly rejoined one. It pins every
// ShardRepStats and FollowerShardStats field, the ack histogram's Sum
// and Count and the follower digests.
func TestShipperCountersPinned(t *testing.T) {
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
	link := NewLink(LinkConfig{LossProb: 0.2, Seed: 29})
	s := NewShipper(link, fol, 1, Config{Mode: Sync})
	svc, err := shard.New(mkSys(), shard.Config{Shards: 1, RegionBytes: batchRegionBytes, Replicator: s})
	if err != nil {
		t.Fatal(err)
	}
	s.Attach(svc)
	defer s.Close()
	defer svc.Close()
	ss := s.shards[0]

	n := 0
	put := func() {
		n++
		err := svc.Put("t", fmt.Sprintf("k%02d", n%24), uint64(n))
		if err != nil && !errors.Is(err, ErrLinkDown) && !errors.Is(err, ErrNotAttached) {
			t.Fatalf("put %d: %v", n, err)
		}
	}
	puts := func(k int) {
		for i := 0; i < k; i++ {
			put()
		}
	}
	// queued commits k deltas (at most the window, the queue's
	// capacity) through ShipCommit's async branch — no sender goroutine
	// runs, the shipper was built Sync — and then plays the sender,
	// draining backlog and queue in coalesced runs.
	queued := func(k int) {
		s.cfg.Mode = Async
		puts(k)
		s.cfg.Mode = Sync
		for len(ss.backlog) > 0 || len(ss.queue) > 0 {
			var j shipJob
			if len(ss.backlog) > 0 {
				j, ss.backlog = ss.backlog[0], ss.backlog[1:]
			} else {
				j = <-ss.queue
			}
			s.processBatch(ss, s.collectBatch(ss, j))
		}
	}

	rng := sim.NewRNG(29)
	puts(12)
	t0 := ss.horizon
	link.OutageWindow(t0+300*time.Microsecond, t0+2500*time.Microsecond)
	for round := 0; round < 12; round++ {
		queued(1 + rng.Intn(4))
		puts(rng.Intn(2))
	}

	// A gap the retained window covers, found by a queued run and then
	// by a lone synchronous commit.
	s.Connect(nil)
	puts(3)
	s.Connect(fol)
	queued(2)
	s.Connect(nil)
	queued(2)
	s.Connect(fol)
	puts(1)

	// Gaps past the window: the committing caller supplies the
	// snapshot, then the attached service does.
	s.Connect(nil)
	puts(10)
	s.Connect(fol)
	puts(1)
	s.Connect(nil)
	queued(5)
	queued(5)
	s.Connect(fol)
	queued(3)

	// Reconcile: the follower missed three deltas (replay), then a
	// fresh follower rejoins (snapshot).
	s.Connect(nil)
	puts(3)
	s.Connect(fol)
	if err := s.Reconcile(svc.EndTime()); err != nil {
		t.Fatal(err)
	}
	fresh, err := NewFollower(mkSys(), FollowerConfig{Shards: 1, RegionBytes: batchRegionBytes})
	if err != nil {
		t.Fatal(err)
	}
	s.Connect(fresh)
	if err := s.Reconcile(svc.EndTime()); err != nil {
		t.Fatal(err)
	}

	pd, err := svc.ShardDigests()
	if err != nil {
		t.Fatal(err)
	}
	got := counterLines("ship", s.Stats())
	got = append(got, counterLines("fol", fol.Stats())...)
	got = append(got, counterLines("fresh", fresh.Stats())...)
	got = append(got, fmt.Sprintf("digests primary %016x fol %016x fresh %016x", pd[0], fol.Digests()[0], fresh.Digests()[0]))
	want := strings.Split(strings.TrimSpace(pinnedCounters), "\n")
	if len(got) != len(want) {
		t.Fatalf("%d counter lines, want %d:\n%s", len(got), len(want), strings.Join(got, "\n"))
	}
	for i := range got {
		if got[i] != strings.TrimSpace(want[i]) {
			t.Errorf("counter moved: got %s, want %s", got[i], strings.TrimSpace(want[i]))
		}
	}
}

// pinnedCounters is TestShipperCountersPinned's outcome. Shipped
// includes the run's six snapshot transmissions (three snapshots, the
// first sent four times). The byte counts follow the shard region
// layout: which slot pages the 24 keys land on, and which page carries
// each commit's manifest copy. AckHist follows the follower's commit
// time, so the object store's on-disk layout moves it.
const pinnedCounters = `
	ship[0].Shard=0
	ship[0].Shipped=103
	ship[0].Acked=61
	ship[0].Duplicates=21
	ship[0].Retries=46
	ship[0].LostDeltas=26
	ship[0].LostAcks=21
	ship[0].Gaps=5
	ship[0].Snapshots=3
	ship[0].Stale=0
	ship[0].Exhausted=1
	ship[0].Unsent=28
	ship[0].Batches=8
	ship[0].BatchedDeltas=23
	ship[0].WireBytes=1885798
	ship[0].DiffSavedBytes=243455
	ship[0].Extents=121
	ship[0].EncodeTime=11.424µs
	ship[0].LastAckedSeq=83
	ship[0].AckHist=sum 9928297 count 46
	fol[0].Shard=0
	fol[0].Applied=59
	fol[0].Duplicates=27
	fol[0].Gaps=12
	fol[0].Stale=0
	fol[0].Snapshots=3
	fol[0].Batches=8
	fol[0].PatchedBytes=95237
	fol[0].LastSeq=83
	fol[0].Era=0
	fresh[0].Shard=0
	fresh[0].Applied=0
	fresh[0].Duplicates=0
	fresh[0].Gaps=0
	fresh[0].Stale=0
	fresh[0].Snapshots=1
	fresh[0].Batches=0
	fresh[0].PatchedBytes=0
	fresh[0].LastSeq=83
	fresh[0].Era=0
	digests primary d8fc96d7b7a8f2bc fol d8fc96d7b7a8f2bc fresh d8fc96d7b7a8f2bc
`
