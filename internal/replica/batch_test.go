package replica

// White-box tests for delta batching: the async sender's coalescing
// (collectBatch/processBatch) and the follower's whole-run apply
// (applyRun). A Sync-mode shipper spawns no sender goroutines, so
// these tests own the sender role and drive the batch machinery
// deterministically — the exact code path the async goroutine runs.

import (
	"testing"
	"time"

	"memsnap/internal/core"
)

const batchRegionBytes = 1 << 18

func batchFollower(t testing.TB, shards int) *Follower {
	t.Helper()
	sys, err := core.NewSystem(core.Options{CPUs: shards, DiskBytesEach: 512 << 20})
	if err != nil {
		t.Fatal(err)
	}
	fol, err := NewFollower(sys, FollowerConfig{Shards: shards, RegionBytes: batchRegionBytes})
	if err != nil {
		t.Fatal(err)
	}
	return fol
}

// batchDelta builds an unpooled single-shard delta of npages pages,
// each stamped with the sequence number.
func batchDelta(seq uint64, npages int) *Delta {
	d := &Delta{Shard: 0, Seq: seq, Era: 0}
	for i := 0; i < npages; i++ {
		data := make([]byte, core.PageSize)
		data[0] = byte(seq)
		d.Pages = append(d.Pages, core.CommittedPage{Index: int64(1 + i), Data: data})
	}
	return d
}

// enqueue plays the worker role: one queued job with one reference,
// exactly as the async branch of ShipCommit does.
func enqueue(s *Shipper, ss *shipShard, d *Delta, at time.Duration) {
	d.retain()
	s.jobs.Add(1)
	ss.queue <- shipJob{at: at, d: d}
}

// TestBatchCoalescingDelivers drives seven consecutive deltas through
// the sender loop's batch path (maxBatch=4) and checks both ends'
// accounting: two link messages (4+3), every delta applied, and one
// follower uCheckpoint per run. A retransmission of an already-applied
// run is then acked as a whole-batch duplicate.
func TestBatchCoalescingDelivers(t *testing.T) {
	fol := batchFollower(t, 1)
	s := NewShipper(NewLink(LinkConfig{}), fol, 1, Config{Mode: Sync})
	ss := s.shards[0]

	for seq := uint64(1); seq <= 7; seq++ {
		enqueue(s, ss, batchDelta(seq, 1), time.Duration(seq)*time.Millisecond)
	}
	for len(ss.queue) > 0 {
		s.processBatch(ss, s.collectBatch(ss, <-ss.queue))
	}
	s.jobs.Wait() // all job references settled

	st := s.Stats()[0]
	if st.Batches != 2 || st.BatchedDeltas != 7 {
		t.Errorf("shipper batches=%d batchedDeltas=%d, want 2 and 7", st.Batches, st.BatchedDeltas)
	}
	if st.Acked != 7 || st.LastAckedSeq != 7 {
		t.Errorf("acked=%d lastAckedSeq=%d, want 7 and 7", st.Acked, st.LastAckedSeq)
	}
	if st.Shipped != 2 {
		t.Errorf("shipped %d link messages, want 2", st.Shipped)
	}
	fs := fol.Stats()[0]
	if fs.Applied != 7 || fs.Batches != 2 || fs.LastSeq != 7 {
		t.Errorf("follower applied=%d batches=%d lastSeq=%d, want 7, 2, 7", fs.Applied, fs.Batches, fs.LastSeq)
	}

	// Retransmit the first run whole (the lost-ack scenario): the
	// follower must skip it idempotently and ack as a duplicate.
	for seq := uint64(1); seq <= 3; seq++ {
		enqueue(s, ss, batchDelta(seq, 1), 10*time.Millisecond)
	}
	s.processBatch(ss, s.collectBatch(ss, <-ss.queue))
	s.jobs.Wait()

	st = s.Stats()[0]
	if st.Duplicates != 3 || st.Acked != 10 {
		t.Errorf("after retransmit: duplicates=%d acked=%d, want 3 and 10", st.Duplicates, st.Acked)
	}
	fs = fol.Stats()[0]
	if fs.Duplicates != 3 || fs.Applied != 7 || fs.LastSeq != 7 {
		t.Errorf("follower after retransmit: duplicates=%d applied=%d lastSeq=%d, want 3, 7, 7", fs.Duplicates, fs.Applied, fs.LastSeq)
	}
}

// TestCollectBatchSplitsOnSeqGap: a non-consecutive sequence number
// must not coalesce — the run ends and the rejected job waits at the
// front of the backlog for the next pass.
func TestCollectBatchSplitsOnSeqGap(t *testing.T) {
	s := NewShipper(NewLink(LinkConfig{}), nil, 1, Config{Mode: Sync})
	ss := s.shards[0]
	for _, seq := range []uint64{1, 2, 4} {
		ss.queue <- shipJob{d: batchDelta(seq, 1)}
	}
	batch := s.collectBatch(ss, <-ss.queue)
	if len(batch) != 2 || batch[0].d.Seq != 1 || batch[1].d.Seq != 2 {
		t.Fatalf("batch = %d jobs (first seqs %v), want the consecutive run [1 2]", len(batch), seqsOf(batch))
	}
	if len(ss.backlog) != 1 || ss.backlog[0].d.Seq != 4 {
		t.Fatalf("backlog = %v, want the rejected seq-4 job at the front", seqsOf(ss.backlog))
	}
}

// TestCollectBatchSplitsOnEra: deltas from different replication eras
// never share a link message.
func TestCollectBatchSplitsOnEra(t *testing.T) {
	s := NewShipper(NewLink(LinkConfig{}), nil, 1, Config{Mode: Sync})
	ss := s.shards[0]
	d2 := batchDelta(2, 1)
	d2.Era = 1
	ss.queue <- shipJob{d: batchDelta(1, 1)}
	ss.queue <- shipJob{d: d2}
	batch := s.collectBatch(ss, <-ss.queue)
	if len(batch) != 1 || batch[0].d.Seq != 1 {
		t.Fatalf("batch = %v, want just seq 1", seqsOf(batch))
	}
	if len(ss.backlog) != 1 || ss.backlog[0].d.Era != 1 {
		t.Fatalf("era-1 delta not deferred to backlog: %v", seqsOf(ss.backlog))
	}
}

// TestCollectBatchBytesBudget: maxBatchBytes caps the coalesced wire
// size even when maxBatch would admit more.
func TestCollectBatchBytesBudget(t *testing.T) {
	const npages = 30 // two such deltas fit the byte budget, three do not
	if one := batchDelta(1, npages).WireSize(); 2*one > maxBatchBytes || 3*one <= maxBatchBytes {
		t.Fatalf("a %d-page delta is %d wire bytes: two must fit maxBatchBytes=%d and three must not", npages, one, maxBatchBytes)
	}
	s := NewShipper(NewLink(LinkConfig{}), nil, 1, Config{Mode: Sync})
	ss := s.shards[0]
	for seq := uint64(1); seq <= 4; seq++ {
		ss.queue <- shipJob{d: batchDelta(seq, npages)}
	}
	batch := s.collectBatch(ss, <-ss.queue)
	if len(batch) != 2 {
		t.Fatalf("batch = %v under a two-delta byte budget, want 2 jobs", seqsOf(batch))
	}
	if len(ss.backlog) != 1 || ss.backlog[0].d.Seq != 3 {
		t.Fatalf("backlog = %v, want seq 3 deferred", seqsOf(ss.backlog))
	}
}

func seqsOf(jobs []shipJob) []uint64 {
	var out []uint64
	for _, j := range jobs {
		out = append(out, j.d.Seq)
	}
	return out
}

// TestApplyBatchPartialDuplicate: a run overlapping the follower's
// position (retransmission racing new deltas) skips the applied
// prefix and lands the rest in one uCheckpoint.
func TestApplyBatchPartialDuplicate(t *testing.T) {
	fol := batchFollower(t, 1)
	at := time.Duration(0)
	for seq := uint64(1); seq <= 4; seq++ {
		var st ApplyStatus
		at, st = fol.Apply(at, batchDelta(seq, 1))
		if st.Code != ApplyOK {
			t.Fatalf("seed apply %d: %v", seq, st.Code)
		}
	}
	run := []*Delta{batchDelta(3, 1), batchDelta(4, 1), batchDelta(5, 1), batchDelta(6, 1)}
	_, st := fol.applyRun(at, run)
	if st.Code != ApplyOK || st.LastSeq != 6 {
		t.Fatalf("overlapping batch: code=%v lastSeq=%d, want OK and 6", st.Code, st.LastSeq)
	}
	fs := fol.Stats()[0]
	if fs.Applied != 6 || fs.Duplicates != 2 || fs.Batches != 1 {
		t.Errorf("applied=%d duplicates=%d batches=%d, want 6, 2, 1", fs.Applied, fs.Duplicates, fs.Batches)
	}
}

// TestApplyBatchGapLeavesRegionUntouched: a run ahead of the
// follower's position is rejected before any page is written.
func TestApplyBatchGapLeavesRegionUntouched(t *testing.T) {
	fol := batchFollower(t, 1)
	before := fol.Digests()[0]
	run := []*Delta{batchDelta(5, 1), batchDelta(6, 1), batchDelta(7, 1)}
	_, st := fol.applyRun(0, run)
	if st.Code != ApplyGap || st.LastSeq != 0 {
		t.Fatalf("gap batch: code=%v lastSeq=%d, want Gap and 0", st.Code, st.LastSeq)
	}
	if after := fol.Digests()[0]; after != before {
		t.Errorf("rejected batch modified the region: digest %#x -> %#x", before, after)
	}
	if fs := fol.Stats()[0]; fs.Gaps != 1 || fs.Applied != 0 {
		t.Errorf("gaps=%d applied=%d, want 1 and 0", fs.Gaps, fs.Applied)
	}
}

// TestApplyBatchMalformed: a chain that is not a gap-free same-era
// run of one shard is rejected outright.
func TestApplyBatchMalformed(t *testing.T) {
	fol := batchFollower(t, 2)
	cases := map[string][]*Delta{
		"empty":           {},
		"seq hole":        {batchDelta(1, 1), batchDelta(3, 1)},
		"mixed era":       {batchDelta(1, 1), func() *Delta { d := batchDelta(2, 1); d.Era = 1; return d }()},
		"mixed shard":     {batchDelta(1, 1), func() *Delta { d := batchDelta(2, 1); d.Shard = 1; return d }()},
		"descending seqs": {batchDelta(2, 1), batchDelta(1, 1)},
	}
	for name, run := range cases {
		if _, st := fol.applyRun(0, run); st.Code != ApplyGap {
			t.Errorf("%s: code=%v, want Gap", name, st.Code)
		}
	}
	if fs := fol.Stats()[0]; fs.Applied != 0 || fs.LastSeq != 0 {
		t.Errorf("malformed batches changed position: applied=%d lastSeq=%d", fs.Applied, fs.LastSeq)
	}
}

// TestAsyncBatchingEndToEnd runs the real async pipeline — service,
// capture pooling, batched shipping — and checks the replicas
// converge and every capture-pool page is returned once both ends
// shut down.
func TestAsyncBatchingEndToEnd(t *testing.T) {
	pages0, slices0 := core.CapturePoolStats()
	svc, ship, fol := cleanPair(t, 2, Async) // batching on by default
	putKeys(t, svc, 80)
	ship.Flush()
	checkConverged(t, svc, fol)

	// A coalesced run is one link message however many deltas it
	// carries, so messages shipped never exceed deltas acked.
	var shipped, acked, applied int64
	for _, st := range ship.Stats() {
		shipped += st.Shipped
		acked += st.Acked
		if st.Snapshots != 0 {
			t.Errorf("shard %d: %d snapshots on a clean link", st.Shard, st.Snapshots)
		}
	}
	for _, fs := range fol.Stats() {
		applied += fs.Applied
		if fs.Snapshots != 0 {
			t.Errorf("follower shard %d: %d snapshots on a clean link", fs.Shard, fs.Snapshots)
		}
	}
	if acked == 0 || acked != applied {
		t.Errorf("acked=%d applied=%d, want equal and nonzero", acked, applied)
	}
	if shipped <= 0 || shipped > acked {
		t.Errorf("shipped %d link messages for %d acked deltas, want 0 < shipped <= acked", shipped, acked)
	}

	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	if err := ship.Close(); err != nil {
		t.Fatal(err)
	}
	pages1, slices1 := core.CapturePoolStats()
	if pages1.InUse() != pages0.InUse() {
		t.Errorf("capture page pool leaked through replication: in-use %d -> %d", pages0.InUse(), pages1.InUse())
	}
	if slices1.InUse() != slices0.InUse() {
		t.Errorf("captured-pages slice pool leaked through replication: in-use %d -> %d", slices0.InUse(), slices1.InUse())
	}
}
