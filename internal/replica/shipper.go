package replica

import (
	"sync"
	"time"

	"memsnap/internal/core"
	"memsnap/internal/obs"
	"memsnap/internal/shard"
)

// Mode selects when the primary's clients are acknowledged relative
// to replication.
type Mode int

const (
	// Async (the default): ShipCommit enqueues the delta in the
	// shard's bounded in-flight window and returns immediately, so
	// client acks wait only for local durability.
	Async Mode = iota
	// Sync: ShipCommit transmits inline and returns the follower-ack
	// time, so the worker holds client acks until the commit is
	// durable on both replicas (or fails them with ErrLinkDown).
	Sync
)

// Config tunes a Shipper.
type Config struct {
	Mode Mode
	// Window bounds the per-shard in-flight delta queue and the
	// retained-delta history used for gap replay (default 8). An
	// async worker committing more than Window deltas ahead of the
	// sender blocks until a slot frees.
	Window int
	// Recorder, when set, receives ship/retry/snapshot trace spans on
	// each shard's sender lane (obs.ShipTrack).
	Recorder *obs.Recorder
}

func (c *Config) fill() {
	if c.Window <= 0 {
		c.Window = 8
	}
}

// The retry and coalescing policy.
const (
	// retryTimeout is the virtual time a sender waits before
	// retransmitting a message whose delivery or ack was lost.
	retryTimeout = 200 * time.Microsecond
	// maxRetries bounds retransmissions per message before the
	// follower is declared unreachable.
	maxRetries = 8
	// maxBatch bounds how many consecutive queued deltas an async
	// sender coalesces into one link message. Only gap-free same-era
	// runs coalesce, so the follower can validate and persist a run as
	// a single unit.
	maxBatch = 4
	// maxBatchBytes bounds a coalesced message's wire size: the sum of
	// its members' cached encoded sizes.
	maxBatchBytes = 256 << 10
)

// ShardRepStats are one shard's replication pipeline counters.
type ShardRepStats struct {
	Shard int
	// Shipped counts link message transmissions, delta runs and
	// snapshots alike (retransmissions included; a run carrying several
	// deltas counts once); Acked counts deltas confirmed by the
	// follower; Duplicates are acks for deltas the follower had already
	// applied.
	Shipped, Acked, Duplicates int64
	// Retries, LostDeltas, LostAcks count the retransmission machinery
	// (LostDeltas: lost outbound messages, snapshots included).
	Retries, LostDeltas, LostAcks int64
	// Gaps counts follower gap reports; Snapshots counts full-region
	// catch-up transfers; Stale counts era rejections; Exhausted
	// counts messages abandoned after the retry budget; Unsent counts
	// deltas dropped because no follower was connected or the shipper
	// was closed.
	Gaps, Snapshots, Stale, Exhausted, Unsent int64
	// Batches counts coalesced multi-delta transmissions acked as a
	// unit; BatchedDeltas counts the deltas they carried.
	Batches, BatchedDeltas int64
	// WireBytes counts delta/batch/snapshot payload bytes put on the
	// link (retransmissions included; acks excluded). DiffSavedBytes
	// counts wire bytes the sub-page encoding avoided versus full-page
	// framing, per unique delta; Extents counts byte-range extents
	// emitted. EncodeTime is the cumulative virtual encode cost.
	WireBytes, DiffSavedBytes, Extents int64
	EncodeTime                         time.Duration
	// LastAckedSeq is the highest sequence number the follower acked.
	LastAckedSeq uint64
	// AckHist is the histogram of per-delta latency from local
	// durability to follower ack.
	AckHist obs.HistSnapshot
}

type shipJob struct {
	at time.Duration
	d  *Delta
}

type shipShard struct {
	id    int
	queue chan shipJob

	// backlog and horizon belong to the shard's single sender (the
	// async goroutine, or the worker in sync mode): jobs deferred
	// while a snapshot was in flight, and the virtual time the sender
	// is busy until. batch and deltas are the sender's coalescing
	// scratch.
	backlog []shipJob
	horizon time.Duration
	batch   []shipJob
	deltas  []*Delta

	mu       sync.Mutex
	retained []*Delta
	st       ShardRepStats
	// ackHist records durability-to-ack latency (lock-free, outside mu).
	ackHist obs.Histogram
}

// retain appends d to the replay history, keeping the last window
// deltas; the history holds one reference per retained delta.
func (ss *shipShard) retain(d *Delta, window int) {
	d.retain()
	var evicted *Delta
	ss.mu.Lock()
	ss.retained = append(ss.retained, d)
	if len(ss.retained) > window {
		evicted = ss.retained[0]
		copy(ss.retained, ss.retained[1:])
		ss.retained[len(ss.retained)-1] = nil
		ss.retained = ss.retained[:len(ss.retained)-1]
	}
	ss.mu.Unlock()
	if evicted != nil {
		evicted.release()
	}
}

// retainedRange returns the retained deltas covering [from, to], or
// ok=false when the history has a hole in that range (snapshot
// catch-up required). An empty range is trivially covered. Returned
// deltas carry a reference each; the caller releases them.
func (ss *shipShard) retainedRange(from, to uint64) ([]*Delta, bool) {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if from > to {
		return nil, true
	}
	var out []*Delta
	want := from
	for _, d := range ss.retained {
		if d.Seq < from || d.Seq > to {
			continue
		}
		if d.Seq != want {
			return nil, false
		}
		out = append(out, d)
		want = d.Seq + 1
	}
	if want != to+1 {
		return nil, false
	}
	// Take the borrows under ss.mu: the window cannot evict (and thus
	// release) any of these concurrently while we hold the lock.
	for _, d := range out {
		d.retain()
	}
	return out, true
}

// Shipper is the primary-side replication pipeline: it implements
// shard.Replicator, turning each locally durable group commit into a
// Delta shipped over the Link to the Follower. Construct it first,
// pass it in shard.Config.Replicator, then Attach the service (the
// snapshot source for async catch-up). The follower endpoint may be
// connected later (a promoted primary starts shipping into the void
// until the demoted one rejoins); deltas meanwhile count as Unsent
// and are retained up to the window for replay.
//
// Shutdown order: close the service first (its final drain still
// ships), then the Shipper.
type Shipper struct {
	cfg  Config
	link *Link

	mu     sync.Mutex
	fol    *Follower
	svc    *shard.Service
	closed bool

	shards []*shipShard
	stop   chan struct{}
	wg     sync.WaitGroup
	jobs   sync.WaitGroup
}

// NewShipper builds a shipper for nshards shards over link. fol may
// be nil and connected later via Connect.
func NewShipper(link *Link, fol *Follower, nshards int, cfg Config) *Shipper {
	cfg.fill()
	if nshards <= 0 {
		nshards = 8
	}
	s := &Shipper{cfg: cfg, link: link, fol: fol, stop: make(chan struct{})}
	for i := 0; i < nshards; i++ {
		s.shards = append(s.shards, &shipShard{id: i, queue: make(chan shipJob, cfg.Window)})
	}
	if cfg.Mode == Async {
		for _, ss := range s.shards {
			s.wg.Add(1)
			go s.run(ss)
		}
	}
	return s
}

// Attach wires the primary service in as the snapshot source for
// catch-up transfers and Reconcile.
func (s *Shipper) Attach(svc *shard.Service) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.svc = svc
}

// Connect wires (or replaces) the follower endpoint.
func (s *Shipper) Connect(fol *Follower) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.fol = fol
}

func (s *Shipper) follower() *Follower {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.fol
}

// ShipCommit implements shard.Replicator. Async mode retains a
// reference the queued job owns; the run loop releases it. After Close
// the commit is dropped: its owned pages go back to the capture pool,
// it counts as Unsent, and Sync mode fails it with ErrNotAttached.
func (s *Shipper) ShipCommit(shardID int, at time.Duration, c shard.Commit, snap func() shard.Snapshot) (time.Duration, error) {
	ss := s.shards[shardID]
	select {
	case <-s.stop:
		// Closed: the run loops and the replay windows are gone, so
		// nothing would ship or release a delta built now.
		if c.Owned {
			core.ReleasePages(c.Pages)
		}
		ss.mu.Lock()
		ss.st.Unsent++
		ss.mu.Unlock()
		if s.cfg.Mode == Sync {
			return at, ErrNotAttached
		}
		return at, nil
	default:
	}
	d := deltaPool.Get().(*Delta)
	*d = Delta{Shard: shardID, Seq: c.Seq, Era: c.Era, Epoch: c.Epoch, Pages: c.Pages, pooled: c.Owned, recycled: true, TraceID: c.TraceID}
	// Encode once, before the delta enters the pipeline: the cached
	// encoding fixes WireSize for the delta's whole life and consumes
	// the capture-time pre-images, so the retained window holds only
	// page data plus encoded bytes.
	if res := d.encode(s.link.costs); res.wire > 0 {
		s.cfg.Recorder.SpanFlow(obs.CatReplica, obs.NameEncode, obs.ShipTrack(shardID), at, res.cost, int64(res.wire), d.TraceID)
		at += res.cost
		ss.mu.Lock()
		ss.st.DiffSavedBytes += int64(res.saved)
		ss.st.Extents += int64(res.extents)
		ss.st.EncodeTime += res.cost
		ss.mu.Unlock()
	}
	ss.retain(d, s.cfg.Window)
	if s.cfg.Mode == Sync {
		run := [1]*Delta{d}
		ackAt, err := s.ship(ss, maxd(at, ss.horizon), run[:], snap, true)
		if ackAt > ss.horizon {
			ss.horizon = ackAt
		}
		return ackAt, err
	}
	d.retain() // the queued job's reference
	s.jobs.Add(1)
	select {
	case ss.queue <- shipJob{at: at, d: d}:
	case <-s.stop:
		s.jobs.Done()
		d.release()
		ss.mu.Lock()
		ss.st.Unsent++
		ss.mu.Unlock()
	}
	return at, nil
}

// run is a shard's async sender loop: backlog first (jobs deferred
// behind a snapshot transfer), then the queue, then a final drain
// after stop. Each fetched job seeds a coalescing pass over whatever
// else is already waiting.
func (s *Shipper) run(ss *shipShard) {
	defer s.wg.Done()
	stopping := false
	for {
		var j shipJob
		switch {
		case len(ss.backlog) > 0:
			j, ss.backlog = ss.backlog[0], ss.backlog[1:]
		case stopping:
			select {
			case j = <-ss.queue:
			default:
				return
			}
		default:
			select {
			case j = <-ss.queue:
			case <-s.stop:
				stopping = true
				continue
			}
		}
		s.processBatch(ss, s.collectBatch(ss, j))
	}
}

// collectBatch greedily coalesces jobs already waiting behind first —
// backlog, then queue — into one run, bounded by maxBatch and
// maxBatchBytes. Only a gap-free run of consecutive sequence numbers
// from one era coalesces: that is the unit the follower can validate
// and persist as a whole. The first non-coalescible job goes back to
// the front of the backlog for the next pass.
func (s *Shipper) collectBatch(ss *shipShard, first shipJob) []shipJob {
	batch := append(ss.batch[:0], first)
	size := first.d.WireSize()
	for len(batch) < maxBatch {
		var j shipJob
		if len(ss.backlog) > 0 {
			j, ss.backlog = ss.backlog[0], ss.backlog[1:]
		} else {
			select {
			case j = <-ss.queue:
			default:
				ss.batch = batch
				return batch
			}
		}
		prev := batch[len(batch)-1].d
		if j.d.Era != prev.Era || j.d.Seq != prev.Seq+1 || size+j.d.WireSize() > maxBatchBytes {
			ss.backlog = append(ss.backlog, shipJob{})
			copy(ss.backlog[1:], ss.backlog)
			ss.backlog[0] = j
			ss.batch = batch
			return batch
		}
		batch = append(batch, j)
		size += j.d.WireSize()
	}
	ss.batch = batch
	return batch
}

// processBatch ships one coalesced run (possibly of length one) and
// settles its jobs' references. The send cannot precede the newest
// member's local durability time.
func (s *Shipper) processBatch(ss *shipShard, batch []shipJob) {
	run := ss.deltas[:0]
	for i := range batch {
		run = append(run, batch[i].d)
	}
	ss.deltas = run
	ackAt, _ := s.ship(ss, maxd(batch[len(batch)-1].at, ss.horizon), run, nil, true)
	if ackAt > ss.horizon {
		ss.horizon = ackAt
	}
	for i := range batch {
		batch[i].d.release()
		batch[i].d = nil
		s.jobs.Done()
	}
}

// message is one link message: a run of consecutive same-era deltas,
// or a full-region snapshot when snap is set.
type message struct {
	run  []*Delta
	snap *shard.Snapshot
}

// transmit is the one send/ack exchange every message goes through:
// put it on the link, have the follower apply it on arrival, carry the
// ack back, and retransmit retryTimeout after a lost message or a lost
// ack (a retransmission after a lost ack is exactly the duplicate
// delivery the follower acks idempotently). It returns the ack time and
// the follower's status; after maxRetries retransmissions it gives up
// with ErrLinkDown at the last arrival time, and a snapshot the
// follower refuses returns the follower's error unacked.
func (s *Shipper) transmit(ss *shipShard, fol *Follower, at time.Duration, m message) (time.Duration, ApplyStatus, error) {
	size := 0
	if m.snap != nil {
		size = pagesWireSize(len(m.snap.Pages))
	}
	for _, d := range m.run {
		size += d.WireSize()
	}
	sendAt, last := at, at
	for try := 0; try <= maxRetries; try++ {
		ss.mu.Lock()
		ss.st.Shipped++
		ss.st.WireBytes += int64(size)
		if try > 0 {
			ss.st.Retries++
		}
		ss.mu.Unlock()
		if try > 0 {
			s.cfg.Recorder.Instant(obs.CatReplica, obs.NameRetry, obs.ShipTrack(ss.id), sendAt, int64(try))
		}
		arrive, ok := s.link.Deliver(sendAt, size)
		last = arrive
		if !ok {
			ss.mu.Lock()
			ss.st.LostDeltas++
			ss.mu.Unlock()
			sendAt = arrive + retryTimeout
			continue
		}
		var ackReady time.Duration
		var status ApplyStatus
		if m.snap != nil {
			var err error
			if ackReady, err = fol.applySnapshot(arrive, m.snap); err != nil {
				return ackReady, status, err
			}
		} else {
			ackReady, status = fol.applyRun(arrive, m.run)
		}
		ackAt, ok := s.link.Deliver(ackReady, ackWireBytes)
		last = ackAt
		if !ok {
			ss.mu.Lock()
			ss.st.LostAcks++
			ss.mu.Unlock()
			sendAt = ackAt + retryTimeout
			continue
		}
		return ackAt, status, nil
	}
	ss.mu.Lock()
	ss.st.Exhausted++
	ss.mu.Unlock()
	return last, ApplyStatus{}, ErrLinkDown
}

// ship runs the state machine of one delta run carried as one link
// message, which the follower applies — and persists — as a unit. A
// run of one is a lone delta: a gap report triggers catch-up when
// allowCatchup is set, and snapFn, when non-nil, provides the snapshot
// from the calling goroutine (the sync path, where the caller is the
// shard worker itself). A longer run that is not acked whole (stale,
// gap, partial duplicate) falls back to shipping each member alone.
func (s *Shipper) ship(ss *shipShard, at time.Duration, run []*Delta, snapFn func() shard.Snapshot, allowCatchup bool) (time.Duration, error) {
	fol := s.follower()
	if fol == nil {
		ss.mu.Lock()
		ss.st.Unsent += int64(len(run))
		ss.mu.Unlock()
		return at, ErrNotAttached
	}
	ackAt, status, err := s.transmit(ss, fol, at, message{run: run})
	if err != nil {
		return ackAt, err
	}
	d, n := run[0], int64(len(run))
	switch {
	case status.Code == ApplyOK || status.Code == ApplyDuplicate:
		// A lone delta acks its own sequence number (on a duplicate the
		// follower may be further on); a run acks the follower's position.
		acked := d.Seq
		if n > 1 {
			acked = status.LastSeq
		}
		ss.mu.Lock()
		ss.st.Acked += n
		if status.Code == ApplyDuplicate {
			ss.st.Duplicates += n
		}
		if acked > ss.st.LastAckedSeq {
			ss.st.LastAckedSeq = acked
		}
		if n > 1 {
			ss.st.Batches++
			ss.st.BatchedDeltas += n
		}
		ss.mu.Unlock()
		ss.ackHist.Record(ackAt - at)
		if n == 1 {
			s.cfg.Recorder.SpanFlow(obs.CatReplica, obs.NameShip, obs.ShipTrack(ss.id), at, ackAt-at, int64(d.Seq), d.TraceID)
		} else {
			s.cfg.Recorder.SpanFlow(obs.CatReplica, obs.NameShipBatch, obs.ShipTrack(ss.id), at, ackAt-at, n, runFlow(run))
		}
		return ackAt, nil
	case n > 1:
		t := ackAt
		for i := range run {
			if t, err = s.ship(ss, t, run[i:i+1], nil, true); err != nil {
				break
			}
		}
		return t, err
	case status.Code == ApplyStale:
		ss.mu.Lock()
		ss.st.Stale++
		ss.mu.Unlock()
		return ackAt, ErrStale
	}
	ss.mu.Lock()
	ss.st.Gaps++
	ss.mu.Unlock()
	if !allowCatchup {
		return ackAt, ErrLinkDown
	}
	return s.catchUp(ss, ackAt, status.LastSeq, d, snapFn)
}

// catchUp closes a follower gap ending at d: replay the missing
// deltas from the retained window when it covers them, otherwise —
// or when the replay fails — transfer a full-region snapshot.
func (s *Shipper) catchUp(ss *shipShard, at time.Duration, folLast uint64, d *Delta, snapFn func() shard.Snapshot) (time.Duration, error) {
	at, ok := s.replay(ss, at, folLast+1, d.Seq)
	if ok {
		return at, nil
	}
	snap, err := s.obtainSnapshot(ss, snapFn)
	if err != nil {
		return at, err
	}
	return s.sendSnapshot(ss, at, snap)
}

// replay ships the retained deltas from..to one at a time from at. It
// returns ok=false, with at unchanged, when the window does not cover
// the range, and ok=false at the failure time when a delta is not
// acked.
func (s *Shipper) replay(ss *shipShard, at time.Duration, from, to uint64) (time.Duration, bool) {
	run, ok := ss.retainedRange(from, to)
	for i, d := range run {
		if ok {
			var err error
			if at, err = s.ship(ss, at, run[i:i+1], nil, false); err != nil {
				ok = false
			}
		}
		d.release()
	}
	return at, ok
}

// obtainSnapshot produces the catch-up snapshot: from snapFn on the
// goroutine that is running the shard (sync mode), or through the
// attached service. In the latter case the sender keeps draining its
// own queue into the backlog meanwhile, so whoever is running the
// shard — possibly blocked on a full window — can always make progress
// and let the snapshot request run: no deadlock.
func (s *Shipper) obtainSnapshot(ss *shipShard, snapFn func() shard.Snapshot) (*shard.Snapshot, error) {
	if snapFn != nil {
		snap := snapFn()
		return &snap, nil
	}
	s.mu.Lock()
	svc := s.svc
	s.mu.Unlock()
	if svc == nil {
		return nil, ErrNotAttached
	}
	type res struct {
		snap *shard.Snapshot
		err  error
	}
	ch := make(chan res, 1)
	go func() {
		sn, err := svc.ShardSnapshot(ss.id)
		ch <- res{sn, err}
	}()
	for {
		select {
		case r := <-ch:
			return r.snap, r.err
		case j := <-ss.queue:
			ss.backlog = append(ss.backlog, j)
		}
	}
}

// sendSnapshot transfers a full-region snapshot through transmit.
func (s *Shipper) sendSnapshot(ss *shipShard, at time.Duration, snap *shard.Snapshot) (time.Duration, error) {
	fol := s.follower()
	if fol == nil {
		return at, ErrNotAttached
	}
	ackAt, _, err := s.transmit(ss, fol, at, message{snap: snap})
	if err != nil {
		return ackAt, err
	}
	ss.mu.Lock()
	ss.st.Snapshots++
	if snap.Seq > ss.st.LastAckedSeq {
		ss.st.LastAckedSeq = snap.Seq
	}
	ss.mu.Unlock()
	s.cfg.Recorder.Span(obs.CatReplica, obs.NameSnapshot, obs.ShipTrack(ss.id), at, ackAt-at, int64(len(snap.Pages)))
	return ackAt, nil
}

// Reconcile brings the connected follower to the attached service's
// current position, shard by shard, starting at virtual time at:
// shards already in sync are skipped, same-era laggards within the
// retained window are caught up by delta replay, and everything else
// — in particular a rejoined ex-primary whose era diverged — receives
// a full-region snapshot that discards its stray epochs. Call it
// after Connect when a demoted primary rejoins.
func (s *Shipper) Reconcile(at time.Duration) error {
	s.mu.Lock()
	svc, fol := s.svc, s.fol
	s.mu.Unlock()
	if svc == nil || fol == nil {
		return ErrNotAttached
	}
	for _, ss := range s.shards {
		meta, err := svc.ShardMeta(ss.id)
		if err != nil {
			return err
		}
		fseq, fera := fol.LastApplied(ss.id)
		if fera == meta.Era && fseq == meta.Seq {
			continue
		}
		if fera == meta.Era && fseq < meta.Seq {
			if _, ok := s.replay(ss, at, fseq+1, meta.Seq); ok {
				continue
			}
		}
		snap, err := svc.ShardSnapshot(ss.id)
		if err != nil {
			return err
		}
		if _, err := s.sendSnapshot(ss, at, snap); err != nil {
			return err
		}
	}
	return nil
}

// Flush blocks until every enqueued async delta has been processed.
func (s *Shipper) Flush() { s.jobs.Wait() }

// Stats snapshots every shard's pipeline counters.
func (s *Shipper) Stats() []ShardRepStats {
	out := make([]ShardRepStats, len(s.shards))
	for i, ss := range s.shards {
		ss.mu.Lock()
		st := ss.st
		ss.mu.Unlock()
		st.Shard = i
		st.AckHist = ss.ackHist.Snapshot()
		out[i] = st
	}
	return out
}

// Close waits out in-flight async deltas and stops the senders.
// Idempotent. Close the shard service first: its shutdown drain still
// ships through this shipper.
func (s *Shipper) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	s.jobs.Wait()
	close(s.stop)
	s.wg.Wait()
	// Drop the replay windows: the last references to fully shipped
	// deltas, returning their captured pages to the pool.
	for _, ss := range s.shards {
		ss.mu.Lock()
		retained := ss.retained
		ss.retained = nil
		ss.mu.Unlock()
		for _, d := range retained {
			d.release()
		}
	}
	return nil
}
