package shard

import (
	"sync"
	"sync/atomic"
	"time"

	"memsnap/internal/core"
	"memsnap/internal/objstore"
	"memsnap/internal/obs"
)

// shard is one service shard: a region, its Context, the bounded request
// queue the router feeds, and the execution lock that says who may run
// it.
//
// Who runs a shard. Whoever runs gather → apply → retire holds execMu,
// and ctx (with its clock and its CPU's TLB), tab, and the scratch
// below are confined to the holder. Three kinds of goroutine take it:
//
//   - the shard's worker, woken through wake after an enqueue, holds it
//     while it runs the queue dry (serve);
//   - a blocking caller (Do, the KV helpers, probe) or a TryRun caller
//     that finds the lock free and the queue empty runs its own op on
//     its own goroutine (runOwn, or read for a get) and gets the
//     response by value;
//   - the submitter of a get through DoTagged or TryDoTagged that
//     finds the shard idle the same way answers it on its own goroutine
//     (read) and puts the response on its channel before returning.
//
// All but the worker go through one routine, Service.runIdle.
//
// Requests leave the queue only under execMu. That is what keeps each
// submitter's ops in submission order across the kinds of holder:
// everything a holder dequeued it has applied before it unlocks, so
// "lock taken and queue empty" means every earlier-enqueued request on
// this shard has been applied. (A worker that received from the queue
// before locking could sit on a request while a caller applied later
// ones queued behind it.)
type shard struct {
	id     int
	svc    *Service
	ctx    *core.Context
	region *core.Region
	tab    table
	queue  chan *request
	// wake tells the worker the queue may hold work: every enqueue
	// follows with a non-blocking send. One pending signal is enough
	// (capacity 1) because the worker runs the queue dry per signal.
	wake   chan struct{}
	execMu sync.Mutex

	// Holder-confined scratch, reused across batches: the lock holder's
	// own request (a blocking caller running inline), gather's batch,
	// the two group commits that can be live at once (one with IO in
	// flight, one being applied), used alternately, and the composed
	// key(s) of the op being applied.
	own       request
	batch     []*request
	pend      [2]pendingBatch
	pendNext  int
	key, key2 [MaxKeyLen]byte
	// snap is snapshot bound once at open: retire hands it to every
	// ShipCommit, and a method value made there would allocate a
	// closure per replicated commit.
	snap func() Snapshot

	// Statistics. The holder-written fields are guarded by statsMu so
	// Stats() can snapshot them while the shard runs; rejected and
	// queueHW are updated by submitters, hence atomics.
	statsMu    sync.Mutex
	ops        int64
	writes     int64
	reads      int64
	commits    int64
	batchOps   int64 // total write ops across commits (occupancy numerator)
	lastSubmit time.Duration
	lastDur    time.Duration
	startedAt  time.Duration
	// stages mirrors the shard context's cumulative persist-stage
	// breakdown under statsMu (the context field itself is confined to
	// the execMu holder).
	stages   core.PersistStageTotals
	rejected atomic.Int64
	queueHW  atomic.Int64

	// Latency histograms (lock-free record, fixed size): commitHist
	// tracks apply-start to writer-ack, persistHist tracks IO submit to
	// durable. Recorded in retire; snapshotted by Stats.
	commitHist  obs.Histogram
	persistHist obs.Histogram
}

// noteDepth records a queue high-water mark observed after an enqueue.
func (sh *shard) noteDepth(depth int) {
	for {
		cur := sh.queueHW.Load()
		if int64(depth) <= cur || sh.queueHW.CompareAndSwap(cur, int64(depth)) {
			return
		}
	}
}

// pendingBatch is a group commit whose IO is in flight: its epoch has
// been initiated with MSAsync and its write requests are acknowledged
// once the holder Waits for durability.
type pendingBatch struct {
	epoch  objstore.Epoch
	writes []*request
	start  time.Duration // virtual time the batch began applying
	submit time.Duration // virtual time the uCheckpoint IO was initiated
	commit Commit        // captured delta (Pages non-nil) when a Replicator is attached
	flow   uint64        // trace id of the batch's first sampled request
}

// run is the shard worker: it sleeps until an enqueue (or shutdown)
// signals it, takes the execution lock, and runs the queue dry. On
// shutdown one last pass under the lock is the final drain: Close has
// already stopped admissions, so everything admitted is in the queue or
// with a caller that holds the lock, and nobody takes the lock after
// that pass.
func (sh *shard) run() {
	defer sh.svc.wg.Done()
	// After the final drain, return the retained pre-image pages (and
	// any undelivered captures) to the capture pools.
	defer sh.ctx.CaptureCommits(false)
	for stopping := false; !stopping; {
		select {
		case <-sh.wake:
		case <-sh.svc.stop:
			stopping = true
		}
		sh.execMu.Lock()
		sh.serve()
		sh.execMu.Unlock()
	}
}

// serve runs batches until the queue is empty and nothing is in flight.
// One batch of IO may be in flight at a time: after initiating batch
// k's uCheckpoint asynchronously it applies batch k+1 in memory, then
// waits for batch k and acknowledges its writers — the MSAsync+Wait
// overlap from the paper's API, lifted to group commits. The caller
// holds execMu.
func (sh *shard) serve() {
	var inflight *pendingBatch
	for {
		var first *request
		select {
		case first = <-sh.queue:
		default:
			if inflight == nil {
				return
			}
			// IO in flight and the queue momentarily empty: retire
			// instead of making writers wait for more to batch.
			sh.retire(inflight)
			inflight = nil
			continue
		}
		pending := sh.apply(sh.gather(first))
		if pending == nil {
			continue // read-only batch (or all ops failed): no commit
		}
		if inflight != nil {
			sh.retire(inflight)
		}
		inflight = pending
	}
}

// runOwn runs a blocking caller's op on the caller's goroutine, as the
// first request of a batch that requests already queued behind it join
// — concurrent blocking callers still share a group commit, as with a
// leader writer. The response comes back by value. The caller holds
// execMu and found the queue empty.
func (sh *shard) runOwn(op Op) Response {
	r := &sh.own
	*r = request{op: op, at: sh.ctx.Clock().Now()}
	if pending := sh.apply(sh.gather(r)); pending != nil {
		sh.retire(pending)
	}
	return r.ack
}

// read answers a get on its submitter's goroutine (Service.runIdle)
// with what apply does for a one-read batch — the queue-wait span, the
// table probe, the tenant observation and the ops/reads counters — and
// no request, batch or channel. The caller holds execMu and found the
// queue empty.
func (sh *shard) read(op Op) Response {
	now := sh.ctx.Clock().Now()
	sh.svc.cfg.Recorder.SpanFlow(obs.CatShard, obs.NameQueueWait, obs.ShardTrack(sh.id),
		now, 0, 1, op.TraceID)
	v, ok := sh.lookup(op)
	sh.svc.cfg.Tenants.Observe(op.Tenant, op.WireBytes, 0)
	sh.statsMu.Lock()
	sh.ops++
	sh.reads++
	sh.statsMu.Unlock()
	return Response{Value: v, Found: ok}
}

// respond delivers r's one response. A queued request gets it on its
// channel and is recycled; the holder's own request (no channel) keeps
// it in ack for runOwn to return.
func (sh *shard) respond(r *request, resp Response) {
	if r.resp == nil {
		r.ack = resp
		return
	}
	r.resp <- resp
	putRequest(r)
}

// gather coalesces queued requests behind first, up to BatchSize. The
// returned slice is valid until the next gather.
func (sh *shard) gather(first *request) []*request {
	batch := append(sh.batch[:0], first)
gathering:
	for len(batch) < sh.svc.cfg.BatchSize {
		select {
		case r := <-sh.queue:
			batch = append(batch, r)
		default:
			break gathering
		}
	}
	sh.batch = batch
	return batch
}

// apply executes a batch against the shard table. Reads (and writes
// that fail validation) are answered immediately; successful writes
// are folded into one uCheckpoint whose IO is initiated here with
// MSAsync, and are answered by retire once it is durable. Returns nil
// when the batch dirtied nothing. Captured pages move into the
// pendingBatch's Commit, whose consumer releases them (Owned: true).
func (sh *shard) apply(batch []*request) *pendingBatch {
	start := sh.ctx.Clock().Now()
	// The batch's flow id: the first sampled request's trace id, carried
	// onto the batch spans and the outgoing Commit. Sampling is sparse,
	// so batches almost never hold two sampled requests; when one does,
	// the first wins (the others still stitch client↔net lanes).
	var flow uint64
	for _, r := range batch {
		if r.op.TraceID != 0 {
			flow = r.op.TraceID
			break
		}
	}
	// One queue-wait span per batch: enqueue of the oldest request to
	// apply start (the shard clock is monotone past every stamp).
	sh.svc.cfg.Recorder.SpanFlow(obs.CatShard, obs.NameQueueWait, obs.ShardTrack(sh.id),
		batch[0].at, start-batch[0].at, int64(len(batch)), flow)
	// The slot the previous apply did not hand out: that one may still
	// have IO in flight.
	b := &sh.pend[sh.pendNext]
	writes := b.writes[:0]
	var reads int64
	for _, r := range batch {
		resp, isWrite := sh.applyOne(r.op)
		resp.Tag = r.tag
		if isWrite {
			r.ack = resp // completed by retire once durable
			writes = append(writes, r)
		} else {
			sh.svc.cfg.Tenants.Observe(r.op.Tenant, r.op.WireBytes, start-r.at)
			sh.respond(r, resp)
			reads++
		}
	}
	b.writes = writes
	writeOps := int64(len(writes))

	sh.statsMu.Lock()
	sh.ops += int64(len(batch))
	sh.reads += reads
	sh.writes += writeOps
	sh.statsMu.Unlock()

	if len(writes) == 0 {
		return nil
	}

	// The manifest counters ride in a slot page the batch already
	// dirtied, making (data, manifest) atomic per group commit at no
	// extra page.
	sh.tab.man.applied += uint64(writeOps)
	sh.tab.man.commits++
	sh.tab.writeManifest()

	submitAt := sh.ctx.Clock().Now()
	epoch, err := sh.ctx.Persist(sh.region, core.MSAsync)
	if err != nil {
		for _, r := range writes {
			sh.respond(r, Response{Tag: r.tag, Err: err})
		}
		return nil
	}
	sh.statsMu.Lock()
	sh.commits++
	sh.batchOps += writeOps
	sh.lastSubmit = submitAt
	sh.stages = sh.ctx.StageTotals
	sh.statsMu.Unlock()

	// With a Replicator attached the Persist above captured the
	// uCheckpoint's dirty pages; stamp them with the replication
	// position the manifest copy among them already carries. The
	// captured slice is this commit's own (this batch stays pending
	// while the next one applies), and ownership passes to the
	// Replicator via Owned.
	var commit Commit
	if sh.svc.cfg.Replicator != nil {
		if pages := sh.ctx.TakeCaptured(); pages != nil {
			commit = Commit{Seq: sh.tab.man.commits, Era: sh.tab.man.era, Epoch: epoch, Pages: pages, Owned: true, TraceID: flow}
		}
	}
	b.epoch, b.start, b.submit, b.commit, b.flow = epoch, start, submitAt, commit, flow
	sh.pendNext ^= 1
	return b
}

// applyOne executes a single op. isWrite reports that the op dirtied
// the region and its (successful) response must wait for durability.
func (sh *shard) applyOne(op Op) (resp Response, isWrite bool) {
	switch op.Kind {
	case opSum, opMeta, opSnapshot, opDigest:
		return sh.probeOne(op.Kind), false
	case OpGet:
		v, ok := sh.lookup(op)
		return Response{Value: v, Found: ok}, false
	case OpPut:
		key, _ := composeKey(sh.key[:], op.Tenant, op.Key)
		if _, _, err := sh.tab.put(fnv1a(op.Tenant, op.Key), key, op.Value); err != nil {
			return Response{Err: err}, false
		}
		return Response{Value: op.Value}, true
	case OpAdd:
		key, _ := composeKey(sh.key[:], op.Tenant, op.Key)
		v, err := sh.tab.add(fnv1a(op.Tenant, op.Key), key, op.Value)
		if err != nil {
			return Response{Err: err}, false
		}
		return Response{Value: v}, true
	case OpDelete:
		key, _ := composeKey(sh.key[:], op.Tenant, op.Key)
		v, found := sh.tab.del(fnv1a(op.Tenant, op.Key), key)
		if !found {
			return Response{Found: false}, false
		}
		return Response{Value: v, Found: true}, true
	case OpTransfer:
		from, _ := composeKey(sh.key[:], op.Tenant, op.Key)
		to, _ := composeKey(sh.key2[:], op.Tenant, op.Key2)
		hFrom, hTo := fnv1a(op.Tenant, op.Key), fnv1a(op.Tenant, op.Key2)
		bal, ok := sh.tab.get(hFrom, from)
		if !ok || bal < op.Value {
			return Response{Err: ErrInsufficient}, false
		}
		if _, _, err := sh.tab.put(hFrom, from, bal-op.Value); err != nil {
			return Response{Err: err}, false
		}
		if _, err := sh.tab.add(hTo, to, op.Value); err != nil {
			// Roll the debit back so a full table never loses money.
			sh.tab.put(hFrom, from, bal)
			return Response{Err: err}, false
		}
		return Response{Value: bal - op.Value}, true
	}
	return Response{Err: errUnknownOp(op.Kind)}, false
}

// probeOne answers an internal read-only probe: the manifest sum, the
// replication metadata, a full-region snapshot or the region digest.
// Probes come from the service itself (ShardSums, replication catch-up,
// audits), never from a client request.
func (sh *shard) probeOne(kind OpKind) Response {
	switch kind {
	case opMeta:
		return Response{snap: &Snapshot{Seq: sh.tab.man.commits, Era: sh.tab.man.era}}
	case opSnapshot:
		snap := sh.snapshot()
		return Response{snap: &snap}
	case opDigest:
		return Response{Value: DigestRegion(sh.ctx, sh.region)}
	}
	return Response{Value: sh.tab.man.sum} // opSum
}

// lookup reads op's key from the table. Every op reaching a shard went
// through route, which checked the key's length.
func (sh *shard) lookup(op Op) (uint64, bool) {
	key, _ := composeKey(sh.key[:], op.Tenant, op.Key)
	return sh.tab.get(fnv1a(op.Tenant, op.Key), key)
}

type errUnknownOp OpKind

func (e errUnknownOp) Error() string { return "shard: unknown op kind" }

// retire waits for an in-flight group commit to become durable, ships
// its delta to the replicator, and acknowledges its writers. A
// synchronous replicator returns the follower-ack time, so the acks
// below — and the recorded commit latency — include the replication
// round trip; a replication error is delivered in every write
// response (the writes are locally durable but unconfirmed remotely).
func (sh *shard) retire(b *pendingBatch) {
	sh.ctx.Wait(sh.region, b.epoch)
	durable := sh.ctx.Clock().Now()
	var shipErr error
	if rep := sh.svc.cfg.Replicator; rep != nil && b.commit.Pages != nil {
		ackAt, err := rep.ShipCommit(sh.id, durable, b.commit, sh.snap)
		b.commit = Commit{} // the replicator owns the pages now
		sh.ctx.Clock().AdvanceTo(ackAt)
		shipErr = err
	}
	now := sh.ctx.Clock().Now()
	sh.commitHist.Record(now - b.start)
	sh.persistHist.Record(durable - b.submit)
	sh.svc.cfg.Recorder.SpanFlow(obs.CatShard, obs.NameGroupCommit, obs.ShardTrack(sh.id),
		b.start, now-b.start, int64(len(b.writes)), b.flow)
	sh.statsMu.Lock()
	sh.lastDur = durable
	sh.stages = sh.ctx.StageTotals
	sh.statsMu.Unlock()
	for _, r := range b.writes {
		r.ack.Epoch = b.epoch
		if shipErr != nil {
			r.ack.Err = shipErr
		}
		sh.svc.cfg.Tenants.Observe(r.op.Tenant, r.op.WireBytes, now-r.at)
		sh.respond(r, r.ack)
	}
}
