package replica

import (
	"errors"
	"fmt"
	"os"
	"strconv"
	"testing"
	"time"

	"memsnap/internal/core"
	"memsnap/internal/shard"
	"memsnap/internal/sim"
)

const regionBytes = 1 << 18

// outageOpen is the end of an outage Cut opened and Restore has not
// yet healed.
const outageOpen = time.Duration(1) << 62

// Cut severs the link at virtual time at: every message whose
// transmission overlaps the cut — including one already in flight —
// is lost, until Restore.
func (l *Link) Cut(at time.Duration) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.outages = append(l.outages, outage{from: at, to: outageOpen})
}

// Restore heals the most recent open cut at virtual time at.
func (l *Link) Restore(at time.Duration) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for i := len(l.outages) - 1; i >= 0; i-- {
		if l.outages[i].to == outageOpen {
			l.outages[i].to = at
			return
		}
	}
}

// Flush blocks until every enqueued async delta has been processed.
func (s *Shipper) Flush() { s.jobs.Wait() }

func sysOpts(shards int) core.Options {
	return core.Options{CPUs: shards, DiskBytesEach: 512 << 20}
}

func newSys(t *testing.T, shards int) *core.System {
	t.Helper()
	sys, err := core.NewSystem(sysOpts(shards))
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func checkConverged(t *testing.T, svc *shard.Service, fol *Follower) {
	t.Helper()
	pd, err := svc.ShardDigests()
	if err != nil {
		t.Fatal(err)
	}
	fd := fol.Digests()
	for i := range pd {
		if pd[i] != fd[i] {
			t.Errorf("shard %d: primary digest %#x != follower digest %#x", i, pd[i], fd[i])
		}
	}
	ps, err := svc.ShardSums()
	if err != nil {
		t.Fatal(err)
	}
	fs := fol.Sums()
	for i := range ps {
		if ps[i] != fs[i] {
			t.Errorf("shard %d: primary sum %d != follower sum %d", i, ps[i], fs[i])
		}
	}
}

// cleanPair builds a primary service of shards shards replicating in
// mode over a clean link to a follower on its own machine.
func cleanPair(t *testing.T, shards int, mode Mode) (*shard.Service, *Shipper, *Follower) {
	t.Helper()
	fol, err := NewFollower(newSys(t, shards), FollowerConfig{Shards: shards, RegionBytes: regionBytes})
	if err != nil {
		t.Fatal(err)
	}
	ship := NewShipper(NewLink(LinkConfig{}), fol, shards, Config{Mode: mode})
	svc, err := shard.New(newSys(t, shards), shard.Config{Shards: shards, RegionBytes: regionBytes, Replicator: ship})
	if err != nil {
		t.Fatal(err)
	}
	ship.Attach(svc)
	return svc, ship, fol
}

// putKeys puts n keys with values 1..n and returns their sum.
func putKeys(t *testing.T, svc *shard.Service, n int) uint64 {
	t.Helper()
	var total uint64
	for i := 0; i < n; i++ {
		v := uint64(i + 1)
		if err := svc.Put("t", fmt.Sprintf("k%03d", i), v); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
		total += v
	}
	return total
}

// TestSyncReplicationBasic: in synchronous mode every acknowledged
// write is durable on both replicas, and the follower region is
// byte-identical to the primary's after each ack. Each delta is one
// link message acked before its writers are, so the follower never
// trails, and the primary takes longer in virtual time than it does
// replicating the same writes asynchronously.
func TestSyncReplicationBasic(t *testing.T) {
	const shards, puts = 4, 40
	svc, ship, fol := cleanPair(t, shards, Sync)
	defer ship.Close()
	defer svc.Close()

	total := putKeys(t, svc, puts)
	sync := svc.TotalStats().Elapsed // before the probes below add to it
	checkConverged(t, svc, fol)

	var folSum uint64
	for _, s := range fol.Sums() {
		folSum += s
	}
	if folSum != total {
		t.Errorf("follower total sum = %d, want %d", folSum, total)
	}
	var applied int64
	for _, st := range fol.Stats() {
		applied += st.Applied
		if st.Duplicates != 0 || st.Gaps != 0 || st.Snapshots != 0 || st.Stale != 0 {
			t.Errorf("shard %d: unexpected follower counters %+v on a clean link", st.Shard, st)
		}
	}
	if applied == 0 {
		t.Fatal("follower applied nothing")
	}
	var shipped int64
	for i, st := range ship.Stats() {
		shipped += st.Shipped
		if st.LostDeltas != 0 || st.LostAcks != 0 || st.Snapshots != 0 {
			t.Errorf("shard %d: %d deltas and %d acks lost, %d snapshots on a clean link", st.Shard, st.LostDeltas, st.LostAcks, st.Snapshots)
		}
		if st.Shipped != st.Acked {
			t.Errorf("shard %d: shipped %d acked %d, want equal (sync never batches)", st.Shard, st.Shipped, st.Acked)
		}
		meta, err := svc.ShardMeta(i)
		if err != nil {
			t.Fatal(err)
		}
		if meta.Seq != st.LastAckedSeq {
			t.Errorf("shard %d: commit seq %d, follower acked %d, want no lag", i, meta.Seq, st.LastAckedSeq)
		}
	}
	if shipped == 0 {
		t.Error("shipper sent nothing")
	}

	asvc, aship, _ := cleanPair(t, shards, Async)
	putKeys(t, asvc, puts)
	async := asvc.TotalStats().Elapsed
	asvc.Close()
	aship.Close()
	if async >= sync {
		t.Errorf("async primary took %v of virtual time, sync %v; want async sooner (no follower round trip per commit)", async, sync)
	}
}

// TestDuplicateDeliveryIdempotent: redelivering an already-applied
// delta (the retransmission after a lost ack) is re-acked as a
// duplicate and leaves the follower region untouched.
func TestDuplicateDeliveryIdempotent(t *testing.T) {
	sysB := newSys(t, 1)
	fol, err := NewFollower(sysB, FollowerConfig{Shards: 1, RegionBytes: regionBytes})
	if err != nil {
		t.Fatal(err)
	}
	page := make([]byte, core.PageSize)
	for i := range page {
		page[i] = byte(i)
	}
	d := &Delta{Shard: 0, Seq: 1, Pages: []core.CommittedPage{{Index: 2, Data: page}}}

	at, st := fol.Apply(time.Millisecond, d)
	if st.Code != ApplyOK || st.LastSeq != 1 {
		t.Fatalf("first Apply = %+v; want OK at seq 1", st)
	}
	digest := fol.Digests()[0]

	_, st = fol.Apply(at+time.Millisecond, d)
	if st.Code != ApplyDuplicate || st.LastSeq != 1 {
		t.Fatalf("second Apply = %+v; want Duplicate at seq 1", st)
	}
	if got := fol.Digests()[0]; got != digest {
		t.Fatalf("duplicate delivery changed the region: %#x -> %#x", digest, got)
	}
	if fs := fol.Stats()[0]; fs.Applied != 1 || fs.Duplicates != 1 {
		t.Fatalf("follower counters = %+v; want 1 applied, 1 duplicate", fs)
	}

	// A delta from the past the follower never saw is also a
	// duplicate (idempotent), and one from the future is a gap.
	_, st = fol.Apply(time.Second, &Delta{Shard: 0, Seq: 5, Pages: []core.CommittedPage{{Index: 1, Data: page}}})
	if st.Code != ApplyGap || st.LastSeq != 1 {
		t.Fatalf("future Apply = %+v; want Gap at seq 1", st)
	}
}

// TestLossyLinkConverges: under heavy random loss the retry machinery
// (duplicate deliveries included) still converges the follower to the
// primary, commit for commit.
func TestLossyLinkConverges(t *testing.T) {
	const shards = 2
	sysA, sysB := newSys(t, shards), newSys(t, shards)
	link := NewLink(LinkConfig{LossProb: 0.25, Seed: 9})
	fol, err := NewFollower(sysB, FollowerConfig{Shards: shards, RegionBytes: regionBytes})
	if err != nil {
		t.Fatal(err)
	}
	ship := NewShipper(link, fol, shards, Config{Mode: Sync})
	svc, err := shard.New(sysA, shard.Config{Shards: shards, RegionBytes: regionBytes, Replicator: ship})
	if err != nil {
		t.Fatal(err)
	}
	ship.Attach(svc)
	defer ship.Close()
	defer svc.Close()

	for i := 0; i < 60; i++ {
		if err := svc.Put("t", fmt.Sprintf("k%03d", i), uint64(i+1)); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	checkConverged(t, svc, fol)

	var lost, retries, shipDups int64
	for _, st := range ship.Stats() {
		lost += st.LostDeltas + st.LostAcks
		retries += st.Retries
		shipDups += st.Duplicates
	}
	if lost == 0 || retries == 0 {
		t.Errorf("lossy link recorded no losses/retries (lost=%d retries=%d)", lost, retries)
	}
	var folDups, lostAcks int64
	for _, st := range fol.Stats() {
		folDups += st.Duplicates
	}
	for _, st := range ship.Stats() {
		lostAcks += st.LostAcks
	}
	// The follower sees every duplicate delivery; the shipper only
	// counts the ones whose duplicate-ack made it back.
	if folDups < shipDups {
		t.Errorf("duplicate accounting inverted: follower %d < shipper %d", folDups, shipDups)
	}
	if lostAcks > 0 && folDups == 0 {
		t.Errorf("%d acks lost but the follower never saw a duplicate delivery", lostAcks)
	}
}

// TestGapSnapshotCatchUp: a follower connected after more commits
// than the retained window forces a full-region snapshot transfer
// through the async pipeline's catch-up path, after which normal
// delta shipping resumes.
func TestGapSnapshotCatchUp(t *testing.T) {
	sysA, sysB := newSys(t, 1), newSys(t, 1)
	link := NewLink(LinkConfig{})
	ship := NewShipper(link, nil, 1, Config{Window: 8})
	svc, err := shard.New(sysA, shard.Config{Shards: 1, RegionBytes: regionBytes, Replicator: ship})
	if err != nil {
		t.Fatal(err)
	}
	ship.Attach(svc)
	defer ship.Close()
	defer svc.Close()

	// 25 commits with no follower: all unsent, only the last 8 retained.
	for i := 0; i < 25; i++ {
		if err := svc.Put("t", fmt.Sprintf("k%03d", i), uint64(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	ship.Flush()

	fol, err := NewFollower(sysB, FollowerConfig{Shards: 1, RegionBytes: regionBytes})
	if err != nil {
		t.Fatal(err)
	}
	ship.Connect(fol)

	// The next delta arrives with a 25-commit gap the window cannot
	// replay: the shipper must fall back to a snapshot.
	if err := svc.Put("t", "post-connect", 7); err != nil {
		t.Fatal(err)
	}
	ship.Flush()
	fs := fol.Stats()[0]
	if fs.Snapshots != 1 {
		t.Fatalf("follower snapshots = %d, want 1 (gap exceeded window)", fs.Snapshots)
	}
	if fs.Gaps == 0 {
		t.Error("gap was never reported before the snapshot")
	}

	// Normal pipeline resumes after catch-up.
	for i := 0; i < 5; i++ {
		if err := svc.Put("t", fmt.Sprintf("post%d", i), 1); err != nil {
			t.Fatal(err)
		}
	}
	ship.Flush()
	fs = fol.Stats()[0]
	if fs.Snapshots != 1 {
		t.Fatalf("extra snapshots after catch-up: %d", fs.Snapshots)
	}
	if fs.Applied == 0 {
		t.Error("no deltas applied after catch-up")
	}
	checkConverged(t, svc, fol)
}

// TestGapReplayCatchUp: a gap still covered by the retained window is
// closed by replaying deltas, with no snapshot transfer.
func TestGapReplayCatchUp(t *testing.T) {
	sysA, sysB := newSys(t, 1), newSys(t, 1)
	link := NewLink(LinkConfig{})
	ship := NewShipper(link, nil, 1, Config{Window: 8})
	svc, err := shard.New(sysA, shard.Config{Shards: 1, RegionBytes: regionBytes, Replicator: ship})
	if err != nil {
		t.Fatal(err)
	}
	ship.Attach(svc)
	defer ship.Close()
	defer svc.Close()

	// Only 5 commits (< window) before the follower connects.
	for i := 0; i < 5; i++ {
		if err := svc.Put("t", fmt.Sprintf("k%03d", i), uint64(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	ship.Flush()

	fol, err := NewFollower(sysB, FollowerConfig{Shards: 1, RegionBytes: regionBytes})
	if err != nil {
		t.Fatal(err)
	}
	ship.Connect(fol)
	if err := svc.Put("t", "post-connect", 7); err != nil {
		t.Fatal(err)
	}
	ship.Flush()

	fs := fol.Stats()[0]
	if fs.Snapshots != 0 {
		t.Fatalf("follower snapshots = %d, want 0 (window covers the gap)", fs.Snapshots)
	}
	if fs.Applied != 6 {
		t.Fatalf("follower applied %d deltas, want 6 (5 replayed + 1 live)", fs.Applied)
	}
	if seq, _ := fol.LastApplied(0); seq != 6 {
		t.Fatalf("follower at seq %d, want 6", seq)
	}
	checkConverged(t, svc, fol)
}

// failoverSeeds returns the deterministic seed matrix, overridable
// with MEMSNAP_FAILOVER_SEED for CI sweeps.
func failoverSeeds(t *testing.T) []uint64 {
	if s := os.Getenv("MEMSNAP_FAILOVER_SEED"); s != "" {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			t.Fatalf("bad MEMSNAP_FAILOVER_SEED %q: %v", s, err)
		}
		return []uint64{v}
	}
	return []uint64{1, 7, 42}
}

// TestFailover is the acceptance scenario: a link cut lands mid-delta
// during synchronous commits, the primary then loses power mid-IO,
// the follower promotes through the manifest recovery path at its
// last fully applied epoch, and the recovered ex-primary rejoins as a
// follower and reconciles (era mismatch -> snapshot) until both
// regions are byte-identical. Every client op gets a durable-on-both
// ack or a clean ErrLinkDown — never a silent lost ack.
func TestFailover(t *testing.T) {
	for _, seed := range failoverSeeds(t) {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runFailover(t, seed)
		})
	}
}

// TestFailoverDeterministic: the whole failover scenario is a pure
// function of the seed.
func TestFailoverDeterministic(t *testing.T) {
	d1 := runFailover(t, 7)
	d2 := runFailover(t, 7)
	if len(d1) != len(d2) {
		t.Fatalf("digest counts differ: %d vs %d", len(d1), len(d2))
	}
	for i := range d1 {
		if d1[i] != d2[i] {
			t.Fatalf("shard %d digest differs across identical runs: %#x vs %#x", i, d1[i], d2[i])
		}
	}
}

func runFailover(t *testing.T, seed uint64) []uint64 {
	t.Helper()
	const shards = 4
	sysA, sysB := newSys(t, shards), newSys(t, shards)
	link := NewLink(LinkConfig{Seed: seed})
	folB, err := NewFollower(sysB, FollowerConfig{Shards: shards, RegionBytes: regionBytes})
	if err != nil {
		t.Fatal(err)
	}
	shipA := NewShipper(link, folB, shards, Config{Mode: Sync})
	svcA, err := shard.New(sysA, shard.Config{
		Shards: shards, RegionBytes: regionBytes, BatchSize: 4, Replicator: shipA,
	})
	if err != nil {
		t.Fatal(err)
	}
	shipA.Attach(svcA)

	// Seed data, fully replicated: 40 keys of 100, plus one
	// co-sharded bank pair per shard for sum-neutral transfers.
	var seeded uint64
	for i := 0; i < 40; i++ {
		if err := svcA.Put("t", fmt.Sprintf("seed%03d", i), 100); err != nil {
			t.Fatal(err)
		}
		seeded += 100
	}
	pairs := make([][2]string, shards)
	for sh := 0; sh < shards; sh++ {
		var a, b string
		for i := 0; i < 2000 && b == ""; i++ {
			k := fmt.Sprintf("bank%04d", i)
			if svcA.ShardOf("t", k) != sh {
				continue
			}
			if a == "" {
				a = k
			} else {
				b = k
			}
		}
		if b == "" {
			t.Fatalf("no co-sharded pair found for shard %d", sh)
		}
		pairs[sh] = [2]string{a, b}
		if err := svcA.Put("t", a, 1000); err != nil {
			t.Fatal(err)
		}
		seeded += 1000
	}

	// Cut the link a little into the future, then keep committing:
	// some tail ops replicate cleanly before the cut, the rest see a
	// clean ErrLinkDown after their local commit.
	var tSafe time.Duration
	for _, st := range svcA.Stats() {
		if st.LastCommitDurable > tSafe {
			tSafe = st.LastCommitDurable
		}
	}
	linkCutAt := tSafe + time.Millisecond
	link.Cut(linkCutAt)

	type tailOp struct {
		key string
		val uint64
		err error
	}
	var tails []tailOp
	var ok, failed int
	for i := 0; i < 30; i++ {
		k := fmt.Sprintf("tail%02d", i)
		v := uint64(1000 + i)
		err := svcA.Put("t", k, v)
		if err == nil {
			ok++
		} else if errors.Is(err, ErrLinkDown) {
			failed++
		} else {
			t.Fatalf("tail put %d: unclean error %v", i, err)
		}
		tails = append(tails, tailOp{k, v, err})
		// Sum-neutral transfer riding along on each shard in turn.
		p := pairs[i%shards]
		if terr := svcA.Do(shard.Op{Kind: shard.OpTransfer, Tenant: "t", Key: p[0], Key2: p[1], Value: 10}).Err; terr != nil && !errors.Is(terr, ErrLinkDown) {
			t.Fatalf("tail transfer %d: unclean error %v", i, terr)
		}
	}
	if ok == 0 || failed == 0 {
		t.Fatalf("tail should straddle the link cut: %d acked, %d failed", ok, failed)
	}

	// Unacknowledged in-flight transfers, then primary shutdown and a
	// power cut inside the final commits' IO window.
	const rounds = 6
	inflight := make(chan shard.Response, rounds*shards)
	for round := 0; round < rounds; round++ {
		for sh := 0; sh < shards; sh++ {
			if err := svcA.DoTagged(shard.Op{
				Kind: shard.OpTransfer, Tenant: "t",
				Key: pairs[sh][0], Key2: pairs[sh][1], Value: 10,
			}, 0, inflight); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := svcA.Close(); err != nil {
		t.Fatal(err)
	}
	// Never a silent lost ack: every submitted op has its response.
	for i := 0; i < rounds*shards; i++ {
		select {
		case resp := <-inflight:
			if resp.Err != nil && !errors.Is(resp.Err, ErrLinkDown) {
				t.Fatalf("in-flight op %d: unclean error %v", i, resp.Err)
			}
		default:
			t.Fatalf("in-flight op %d never received a response", i)
		}
	}
	var powerCutAt time.Duration
	for _, st := range svcA.Stats() {
		if st.LastCommitSubmit > powerCutAt {
			powerCutAt = st.LastCommitSubmit
		}
	}
	powerCutAt += time.Nanosecond
	sysA.Array().CutPower(powerCutAt, sim.NewRNG(seed))
	shipA.Close()

	// Failover: promote the follower through the standard manifest
	// recovery path, shipping onward (async) to a yet-unconnected
	// follower slot.
	shipB := NewShipper(link, nil, shards, Config{})
	svcB, err := folB.Promote(shard.Config{BatchSize: 4, Replicator: shipB})
	if err != nil {
		t.Fatal(err)
	}
	shipB.Attach(svcB)
	defer shipB.Close()
	defer svcB.Close()
	for _, rec := range svcB.Recovery() {
		if !rec.Existing || !rec.Consistent() {
			t.Fatalf("promoted shard %d inconsistent: %+v", rec.Shard, rec)
		}
		if rec.Era == 0 {
			t.Fatalf("promoted shard %d did not bump the era: %+v", rec.Shard, rec)
		}
	}
	if _, err := folB.Promote(shard.Config{}); !errors.Is(err, ErrPromoted) {
		t.Fatalf("second Promote = %v; want ErrPromoted", err)
	}

	// The promoted service exposes exactly the replicated prefix:
	// every acked tail put present, failed ones present-or-absent but
	// never corrupt, transfers sum-neutral throughout.
	var present uint64
	for _, tp := range tails {
		v, found, gerr := svcB.Get("t", tp.key)
		if gerr != nil {
			t.Fatal(gerr)
		}
		if tp.err == nil {
			if !found || v != tp.val {
				t.Fatalf("acked put %q lost after failover (found=%v v=%d want %d)", tp.key, found, v, tp.val)
			}
		}
		if found {
			if v != tp.val {
				t.Fatalf("torn value for %q after failover: %d want %d", tp.key, v, tp.val)
			}
			present += v
		}
	}
	sumB, err := svcB.TotalValueSum()
	if err != nil {
		t.Fatal(err)
	}
	if sumB != seeded+present {
		t.Fatalf("promoted sum = %d, want %d (seeded) + %d (surviving tail)", sumB, seeded, present)
	}

	// New epochs on the new primary while the old one is still down.
	for i := 0; i < 10; i++ {
		if err := svcB.Put("t", fmt.Sprintf("new%02d", i), 7); err != nil {
			t.Fatal(err)
		}
	}
	shipB.Flush()

	// Reconciliation: recover the ex-primary from its torn disks,
	// rejoin it as a follower, heal the link, and let the era
	// mismatch force snapshots that discard its divergent epochs.
	sysA2, doneAt, err := core.Recover(sysOpts(shards), sysA.Array(), powerCutAt)
	if err != nil {
		t.Fatal(err)
	}
	folA, err := NewFollower(sysA2, FollowerConfig{
		Shards: shards, RegionBytes: regionBytes, StartAt: doneAt,
	})
	if err != nil {
		t.Fatal(err)
	}
	divergent := false
	for i := 0; i < shards; i++ {
		if _, era := folA.LastApplied(i); era == 0 {
			divergent = true // still on the old era: must be reconciled
		}
	}
	if !divergent {
		t.Fatal("recovered ex-primary unexpectedly already on the new era")
	}

	restoreAt := doneAt + time.Millisecond
	if bEnd := svcB.EndTime(); bEnd+time.Millisecond > restoreAt {
		restoreAt = bEnd + time.Millisecond
	}
	link.Restore(restoreAt)
	shipB.Connect(folA)
	if err := shipB.Reconcile(restoreAt); err != nil {
		t.Fatal(err)
	}
	for _, fs := range folA.Stats() {
		if fs.Snapshots != 1 {
			t.Fatalf("shard %d: %d snapshots during reconciliation, want 1 (era mismatch)", fs.Shard, fs.Snapshots)
		}
	}

	// Convergence: byte-identical regions, identical sums.
	checkConverged(t, svcB, folA)
	digests, err := svcB.ShardDigests()
	if err != nil {
		t.Fatal(err)
	}
	return digests
}
