// Package shard implements a sharded, multi-tenant key-value service
// on top of the MemSnap core — the repository's first serving
// subsystem. A router hashes (tenant, key) pairs across N shards; each
// shard owns one MemSnap region, one dedicated Context, a bounded
// request queue and a worker goroutine. Whoever runs a shard holds its
// execution lock: the worker while it drains the queue, or — as the
// paper's msnap_persist runs on the thread that calls it — a blocking
// caller (Do, Put, Get, ..., or TryRun) that finds the shard idle and
// runs its own op on its own goroutine, with no hand-off, or the
// submitter of a get (DoTagged, TryDoTagged) that finds it idle (see
// the shard type).
// Either way many client writes coalesce into one group-commit
// uCheckpoint per batch (MSAsync + Wait overlaps the IO of batch k with
// the in-memory application of batch k+1), full queues apply
// backpressure, and each shard exports statistics.
//
// Durability contract: a write operation's response is delivered only
// after the group commit containing it is durable, so every
// acknowledged write survives any later power cut. Each shard region
// carries a manifest page committed atomically with the data it
// describes; reopening the service after a crash recovers every shard
// to its last durable epoch and cross-checks the manifest against a
// full scan of the shard's records.
package shard

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"memsnap/internal/core"
	"memsnap/internal/objstore"
	"memsnap/internal/obs"
)

// Service errors.
var (
	// ErrBackpressure is returned by TryDoTagged when the target
	// shard's queue is full (admission control).
	ErrBackpressure = errors.New("shard: queue full")
	// ErrClosed is returned for operations submitted after Close.
	ErrClosed = errors.New("shard: service closed")
	// ErrKeyTooLong is returned when tenant+key exceeds MaxKeyLen.
	ErrKeyTooLong = errors.New("shard: tenant+key too long")
	// ErrCrossShard is returned by Transfer when the two keys hash to
	// different shards (cross-shard transactions are not supported).
	ErrCrossShard = errors.New("shard: keys on different shards")
	// ErrShardFull is returned when a shard's slot table is at its
	// occupancy limit.
	ErrShardFull = errors.New("shard: table full")
	// ErrInsufficient is returned by Transfer when the source key is
	// missing or its balance is below the transfer amount.
	ErrInsufficient = errors.New("shard: insufficient balance")
)

// OpKind selects a service operation.
type OpKind int

const (
	// OpGet reads a key. Responds immediately after apply (reads need
	// no durability wait).
	OpGet OpKind = iota
	// OpPut sets a key to a value. Acknowledged when durable.
	OpPut
	// OpAdd increments a key by a delta (creating it at the delta).
	OpAdd
	// OpDelete removes a key.
	OpDelete
	// OpTransfer atomically moves Value from Key to Key2 of the same
	// tenant. Both keys must route to the same shard; the transfer is
	// applied within one batch, so every durable epoch preserves the
	// shard's value sum.
	OpTransfer
	// opSum is internal: it reads the shard's manifest counters,
	// serialized with applies like any other op.
	opSum
	// opMeta is internal: it reads the shard's replication metadata
	// (commit seq, era, sum, epoch).
	opMeta
	// opSnapshot is internal: it copies the shard's full region,
	// serialized with applies, for replication catch-up transfers.
	opSnapshot
	// opDigest is internal: it computes the shard's page-level region
	// digest.
	opDigest
)

// Op is one client request.
type Op struct {
	Kind   OpKind
	Tenant string
	Key    string
	Key2   string // OpTransfer destination
	Value  uint64 // OpPut value / OpAdd delta / OpTransfer amount
	// TraceID is the distributed trace id of a sampled request (0:
	// untraced, the overwhelmingly common case). Shards stamp it onto
	// their queue-wait/group-commit spans and the outgoing Commit, so
	// one sampled request stitches across client, wire, shard and
	// replication lanes. Propagation is a plain integer copy — the
	// untraced hot path stays allocation-free.
	TraceID uint64
	// WireBytes is the request's frame size on the wire (0 for
	// in-process callers); the per-tenant attribution sketch charges it
	// to Tenant when the op completes.
	WireBytes uint32
}

// Response is the outcome of one Op.
type Response struct {
	// Tag echoes the caller-chosen correlation tag of a tagged
	// submission (DoTagged/TryDoTagged); zero for the plain APIs.
	// Pipelined callers multiplexing many ops onto one response
	// channel use it to match completions, which arrive out of order
	// across shards.
	Tag uint64
	// Value is the read value (OpGet), the post-increment value
	// (OpAdd), the deleted value (OpDelete), or the shard value sum
	// (internal sum probe).
	Value uint64
	// Found reports key presence for OpGet/OpDelete.
	Found bool
	// Epoch is the uCheckpoint epoch that made a write durable.
	Epoch objstore.Epoch
	// Err is the per-operation error, if any.
	Err error

	// snap carries the payload of internal metadata/snapshot probes.
	snap *Snapshot
}

// Config sizes the service.
type Config struct {
	// Shards is the number of independent shards (default 8).
	Shards int
	// QueueDepth bounds each shard's request queue (default 256);
	// TryDoTagged fails with ErrBackpressure when the queue is full.
	QueueDepth int
	// BatchSize caps the number of requests coalesced into one group
	// commit (default 16).
	BatchSize int
	// RegionBytes is the per-shard region size (default 4 MiB).
	RegionBytes int64
	// StartAt positions shard clocks at a virtual time, e.g. the
	// recovery completion time returned by core.Recover.
	StartAt time.Duration
	// Era is the replication era stamped into every manifest the
	// service commits. Failover bumps it (Promote opens the new
	// primary with the highest era it has seen, plus one) so a
	// divergent ex-primary can be detected and reconciled. Existing
	// regions keep their stored era when it is higher.
	Era uint64
	// Replicator, when set, receives every group commit after it is
	// locally durable; in synchronous replication the shard holds the
	// client acks until the replicator returns. See the Replicator
	// interface.
	Replicator Replicator
	// Recorder, when set, receives lifecycle trace events from every
	// shard: fault instants and persist-stage spans (via the shard
	// Context) plus queue-wait and group-commit spans, each on
	// the shard's trace lane (obs.ShardTrack). Drain it through
	// obs.WriteTrace or the obs server's /tracez.
	Recorder *obs.Recorder
	// Tenants, when set, receives per-tenant attribution (ops, wire
	// bytes, commit latency) on every completed request carrying a
	// tenant — the space-saving top-K sketch behind /topz and the
	// memsnap_tenant_* Prometheus series.
	Tenants *obs.TenantSketch
}

func (c *Config) fill() {
	if c.Shards <= 0 {
		c.Shards = 8
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 16
	}
	if c.RegionBytes <= 0 {
		c.RegionBytes = 4 << 20
	}
}

// ShardRecovery describes the state one shard was opened in.
type ShardRecovery struct {
	Shard int
	// Existing is true when the shard region pre-existed (reopen
	// after crash or restart) rather than being freshly formatted.
	Existing bool
	// Epoch is the durable epoch the shard recovered to.
	Epoch objstore.Epoch
	// Applied, Records, ValueSum are the manifest counters at open.
	Applied  uint64
	Records  uint64
	ValueSum uint64
	// Seq and Era are the replication position the shard opened at:
	// its group-commit counter and replication era.
	Seq uint64
	Era uint64
	// ScanRecords and ScanSum are recomputed from the slot data; a
	// consistent recovery has them equal to the manifest counters.
	ScanRecords uint64
	ScanSum     uint64
}

// Consistent reports whether the manifest matches the scanned data.
func (r ShardRecovery) Consistent() bool {
	return r.Records == r.ScanRecords && r.ValueSum == r.ScanSum
}

// Service is the sharded KV front end.
type Service struct {
	cfg    Config
	sys    *core.System
	shards []*shard

	recovery []ShardRecovery

	stop    chan struct{}
	wg      sync.WaitGroup
	closed  atomic.Bool
	closeMu sync.Mutex
	// submitMu serializes enqueue against Close's final drain: submit
	// paths hold it shared around the closed-check plus enqueue, and
	// Close takes it exclusively before draining, so a request can
	// never slip into a queue after the drain and hang its caller.
	submitMu sync.RWMutex
}

// request is an Op plus its response channel. ack buffers a write's
// apply-time response until its group commit is durable. at is the
// shard-clock virtual time the request was admitted (read atomically
// from the client goroutine), feeding the queue-wait trace span. tag
// is the caller's correlation tag, echoed in Response.Tag.
//
// Queued requests are pooled: shard.respond returns the struct through
// putRequest immediately after the single send on resp, so the
// steady-state serving path allocates no request structs. The
// response channel is NOT pooled — for the plain APIs its ownership
// passes to the caller; for tagged submissions it belongs to the
// caller outright. The one request that is not queued — shard.own, a
// blocking caller running on the shard it found idle — has no channel:
// its response is left in ack and returned by value.
type request struct {
	op   Op
	resp chan Response
	ack  Response
	at   time.Duration
	tag  uint64
}

// requestPool recycles request structs across submissions.
var requestPool = sync.Pool{New: func() any { return new(request) }}

// getRequest returns a zeroed request carrying op, tag and resp.
func getRequest(op Op, tag uint64, resp chan Response) *request {
	r := requestPool.Get().(*request)
	*r = request{op: op, resp: resp, tag: tag}
	return r
}

// putRequest recycles r. Callers must not touch r afterwards; the
// single permitted response send must already have happened.
func putRequest(r *request) {
	*r = request{}
	requestPool.Put(r)
}

// RegionName returns the fixed region name for a shard. Followers use
// the same names in their own store so Promote can reopen the regions
// through the standard recovery path.
func RegionName(i int) string { return fmt.Sprintf("shardsvc/%03d", i) }

// New opens the service over a MemSnap system, formatting fresh shard
// regions or recovering existing ones. When regions pre-exist (e.g.
// after core.Recover), every shard is reopened at its last durable
// epoch and its manifest is cross-checked against a full scan; the
// reports are available via Recovery().
//
// Shard contexts run on CPUs shard-id modulo the system CPU count;
// configure the system with at least Shards CPUs to give each shard a
// private TLB, as a real deployment would.
func New(sys *core.System, cfg Config) (*Service, error) {
	s, err := open(sys, cfg)
	if err != nil {
		return nil, err
	}
	s.start()
	return s, nil
}

// open builds the service and formats/recovers every shard without
// starting the workers. Split from New so tests can exercise queue
// admission deterministically.
func open(sys *core.System, cfg Config) (*Service, error) {
	cfg.fill()
	if tableSlots(cfg.RegionBytes) == 0 {
		return nil, fmt.Errorf("shard: RegionBytes %d too small", cfg.RegionBytes)
	}
	s := &Service{
		cfg:  cfg,
		sys:  sys,
		stop: make(chan struct{}),
	}

	existing := make(map[string]bool)
	for _, name := range sys.RegionNames() {
		existing[name] = true
	}

	for i := 0; i < cfg.Shards; i++ {
		// Each shard is its own process (see DESIGN.md, "Who owns an
		// address space"): shards share no memory, so one address space
		// for all of them would only make independent faults and
		// persists wait on one lock.
		proc := sys.NewProcess()
		ctx := proc.NewContext(i)
		ctx.Clock().AdvanceTo(cfg.StartAt)
		ctx.SetRecorder(cfg.Recorder, obs.ShardTrack(i))
		pre := existing[RegionName(i)]
		region, err := proc.Open(ctx, RegionName(i), cfg.RegionBytes)
		if err != nil {
			return nil, err
		}
		sh := &shard{
			id:        i,
			svc:       s,
			ctx:       ctx,
			region:    region,
			tab:       table{ctx: ctx, region: region},
			queue:     make(chan *request, cfg.QueueDepth),
			wake:      make(chan struct{}, 1),
			batch:     make([]*request, 0, cfg.BatchSize),
			startedAt: ctx.Clock().Now(),
		}
		sh.snap = sh.snapshot
		rec := ShardRecovery{Shard: i, Existing: pre}
		if pre {
			if err := sh.tab.load(i, cfg.Shards, cfg.RegionBytes); err != nil {
				return nil, err
			}
			// A promoted service opens recovered regions under a newer
			// era; regions already ahead (we were the follower of an
			// even newer primary) keep their stored era.
			if cfg.Era > sh.tab.man.era {
				sh.tab.man.era = cfg.Era
			}
			rec.Epoch = region.Epoch()
			rec.Applied = sh.tab.man.applied
			rec.Records = sh.tab.man.live
			rec.ValueSum = sh.tab.man.sum
			rec.Seq = sh.tab.man.commits
			rec.Era = sh.tab.man.era
			rec.ScanRecords, rec.ScanSum = sh.tab.scan()
		} else {
			sh.tab.format(i, cfg.Shards, cfg.RegionBytes, cfg.Era)
			// Make the empty manifest durable immediately so a crash
			// before the first client write still recovers an
			// initialized shard.
			epoch, err := ctx.Persist(region, core.MSSync)
			if err != nil {
				return nil, err
			}
			rec.Epoch = epoch
			rec.Era = cfg.Era
		}
		// Capture deltas only from here on: the format commit above is
		// not shipped (a follower reconstructs it from the first
		// captured delta, whose dirty set includes the manifest page).
		if cfg.Replicator != nil {
			ctx.CaptureCommits(true)
		}
		s.shards = append(s.shards, sh)
		s.recovery = append(s.recovery, rec)
	}
	return s, nil
}

// start launches one worker goroutine per shard.
func (s *Service) start() {
	for _, sh := range s.shards {
		s.wg.Add(1)
		go sh.run()
	}
}

// Recovery returns each shard's open-time recovery report.
func (s *Service) Recovery() []ShardRecovery {
	return append([]ShardRecovery(nil), s.recovery...)
}

// fnv1a hashes the composed tenant+key.
func fnv1a(tenant, key string) uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	for i := 0; i < len(tenant); i++ {
		h = (h ^ uint64(tenant[i])) * prime
	}
	h = (h ^ 0) * prime // tenant/key separator
	for i := 0; i < len(key); i++ {
		h = (h ^ uint64(key[i])) * prime
	}
	return h
}

// ShardOf returns the shard a key routes to.
func (s *Service) ShardOf(tenant, key string) int {
	// Shard selection uses the high hash bits; slot probing uses the
	// full hash, so co-sharded keys do not collide into one chain.
	return int((fnv1a(tenant, key) >> 48) % uint64(len(s.shards)))
}

// checkKeyLen validates the composed length of (tenant, key) without
// building the key — the allocation-free check for routing/validation
// paths that discard the bytes.
func checkKeyLen(tenant, key string) error {
	if len(tenant)+1+len(key) > MaxKeyLen {
		return ErrKeyTooLong
	}
	return nil
}

// composeKey appends the region-resident key bytes for (tenant, key) to
// dst[:0] and returns them.
func composeKey(dst []byte, tenant, key string) ([]byte, error) {
	if err := checkKeyLen(tenant, key); err != nil {
		return nil, err
	}
	dst = append(dst[:0], tenant...)
	dst = append(dst, 0)
	return append(dst, key...), nil
}

// route validates op and picks its shard.
func (s *Service) route(op Op) (*shard, error) {
	if op.Kind != opSum {
		if err := checkKeyLen(op.Tenant, op.Key); err != nil {
			return nil, err
		}
	}
	sh := s.shards[s.ShardOf(op.Tenant, op.Key)]
	if op.Kind == OpTransfer {
		if err := checkKeyLen(op.Tenant, op.Key2); err != nil {
			return nil, err
		}
		if s.ShardOf(op.Tenant, op.Key2) != sh.id {
			return nil, ErrCrossShard
		}
	}
	return sh, nil
}

// submit enqueues r on sh under the submit lock and wakes the worker.
// Blocking submits wait for queue space but abort with ErrClosed when
// the service stops; non-blocking submits fail fast with
// ErrBackpressure. On any error the request was not enqueued, no
// response will be sent, and r is recycled here — the caller must not
// touch it again.
//
// Drain ordering invariant (see Close): an enqueue can only happen
// while the workers are still running, because Close flips the closed
// flag under the exclusive submit lock *before* stopping them. Every
// request that passes the closed-check below is therefore applied and
// answered — admission implies exactly one response, and an accepted
// write is always driven to durability.
func (s *Service) submit(sh *shard, r *request, block bool) error {
	s.submitMu.RLock()
	defer s.submitMu.RUnlock()
	if s.closed.Load() {
		putRequest(r)
		return ErrClosed
	}
	// Stamp the enqueue time for the queue-wait span. Cross-goroutine
	// reads of a shard clock go through its atomic Now.
	r.at = sh.ctx.Clock().Now()
	if block {
		select {
		case sh.queue <- r:
		case <-s.stop:
			putRequest(r)
			return ErrClosed
		}
	} else {
		select {
		case sh.queue <- r:
		default:
			sh.rejected.Add(1)
			putRequest(r)
			return ErrBackpressure
		}
	}
	sh.noteDepth(len(sh.queue))
	select {
	case sh.wake <- struct{}{}:
	default: // a signal is already pending; the worker will see r
	}
	return nil
}

// claim is the one rule for whether a submitter runs sh itself: the
// shard is idle when its execution lock is free and, once taken, its
// queue is empty. The empty queue is the per-submitter FIFO condition:
// requests leave the queue only under the lock and are applied before it
// is released, so nothing this submitter queued earlier (say through
// DoTagged) can still be unapplied. On true the submitter holds the
// execution lock and must release it.
//
// The submitter counts as admitted once it holds the execution lock,
// taken under the submit lock with the service open; Close waits for it
// through that lock. The submit lock is dropped before the op runs, and
// the execution lock is never held across a submit (the worker needs it
// to make room in a full queue).
func (s *Service) claim(sh *shard) (bool, error) {
	s.submitMu.RLock()
	defer s.submitMu.RUnlock()
	if s.closed.Load() {
		return false, ErrClosed
	}
	if !sh.execMu.TryLock() {
		return false, nil
	}
	if len(sh.queue) != 0 {
		sh.execMu.Unlock()
		return false, nil
	}
	return true, nil
}

// runIdle is the one run-here-if-idle routine: on an idle shard
// (claim) it runs op on the calling goroutine — read for a get, runOwn
// for anything else — and returns the response by value. On a busy
// shard it submits nothing and returns false.
func (s *Service) runIdle(sh *shard, op Op) (Response, bool, error) {
	idle, err := s.claim(sh)
	if !idle {
		return Response{}, false, err
	}
	var resp Response
	if op.Kind == OpGet {
		resp = sh.read(op)
	} else {
		resp = sh.runOwn(op)
	}
	sh.execMu.Unlock()
	return resp, true, nil
}

// call runs a blocking op and returns its response. On an idle shard
// (runIdle) the op runs here, on the caller's goroutine: a lone
// synchronous operation pays no hand-off to the worker and back.
// Otherwise the op queues behind what is there and the caller waits,
// sharing the worker's group commit.
func (s *Service) call(sh *shard, op Op) (Response, error) {
	if resp, ran, err := s.runIdle(sh, op); ran || err != nil {
		return resp, err
	}
	ch := make(chan Response, 1)
	if err := s.submit(sh, getRequest(op, 0, ch), true); err != nil {
		return Response{}, err
	}
	return <-ch, nil
}

// send submits op for a response on resp. A get that finds the shard
// idle (runIdle) is answered on the submitter's goroutine and its
// response is on resp before send returns: a read has no commit to wait
// for, so it pays no queue, worker wake-up or hand-off back. Anything
// else queues (submit).
func (s *Service) send(sh *shard, op Op, tag uint64, resp chan Response, block bool) error {
	if op.Kind == OpGet {
		r, ran, err := s.runIdle(sh, op)
		if err != nil {
			return err
		}
		if ran {
			r.Tag = tag
			resp <- r
			return nil
		}
	}
	return s.submit(sh, getRequest(op, tag, resp), block)
}

// TryRun runs op on the calling goroutine if its shard is idle and
// returns the response by value, with no request, channel or queue: the
// caller — a network connection's reader answering a lone request — is
// the one that takes the op's µCheckpoint. On a busy shard it submits
// nothing and returns false, and the caller takes the queued path
// (TryDoTagged). TryRun never runs work that can wait in real time: with
// a Replicator attached a write's retire may block in ShipCommit for as
// long as the replicator likes, so it refuses writes and runs only gets.
// A non-nil error (a bad key, a closed service) is the op's outcome;
// nothing ran.
func (s *Service) TryRun(op Op) (Response, bool, error) {
	sh, err := s.route(op)
	if err != nil {
		return Response{}, false, err
	}
	if op.Kind != OpGet && s.cfg.Replicator != nil {
		return Response{}, false, nil
	}
	return s.runIdle(sh, op)
}

// DoTagged submits op for pipelined completion: the response —
// carrying tag in Response.Tag — is delivered on the caller-owned
// resp channel, immediately after apply for reads and after durable
// group commit for writes. A get on an idle shard runs on the calling
// goroutine and its response is on resp before DoTagged returns (see
// send); a write, or a get that finds the shard busy, queues. Many
// in-flight ops may share one channel; completions arrive out of order
// across shards. It blocks while the target shard's queue is full.
//
// Contract: the shard sends exactly one Response per accepted op
// (nil return) and sends without waiting — resp must have capacity
// for every response the caller can have outstanding, this op's
// included, or shard workers (and the caller itself) stall. A non-nil
// return means no response will arrive.
func (s *Service) DoTagged(op Op, tag uint64, resp chan Response) error {
	sh, err := s.route(op)
	if err != nil {
		return err
	}
	return s.send(sh, op, tag, resp, true)
}

// TryDoTagged is DoTagged with admission control: when the shard
// queue is full it rejects the op with ErrBackpressure instead of
// blocking (the network server surfaces this as a RETRY_AFTER status
// rather than stalling its read loop). A get on an idle shard is
// answered before it returns, as with DoTagged.
func (s *Service) TryDoTagged(op Op, tag uint64, resp chan Response) error {
	sh, err := s.route(op)
	if err != nil {
		return err
	}
	return s.send(sh, op, tag, resp, false)
}

// Do runs op and waits for its response. On an idle shard it runs on
// the calling goroutine (see call).
func (s *Service) Do(op Op) Response {
	sh, err := s.route(op)
	if err != nil {
		return Response{Err: err}
	}
	resp, err := s.call(sh, op)
	if err != nil {
		return Response{Err: err}
	}
	return resp
}

// Put durably sets tenant/key to value.
func (s *Service) Put(tenant, key string, value uint64) error {
	return s.Do(Op{Kind: OpPut, Tenant: tenant, Key: key, Value: value}).Err
}

// Get reads tenant/key.
func (s *Service) Get(tenant, key string) (uint64, bool, error) {
	r := s.Do(Op{Kind: OpGet, Tenant: tenant, Key: key})
	return r.Value, r.Found, r.Err
}

// Add durably increments tenant/key by delta, returning the new value.
func (s *Service) Add(tenant, key string, delta uint64) (uint64, error) {
	r := s.Do(Op{Kind: OpAdd, Tenant: tenant, Key: key, Value: delta})
	return r.Value, r.Err
}

// probe runs an internal read-only op on one shard and waits for its
// response, serialized with in-flight applies.
func (s *Service) probe(sh *shard, kind OpKind) (Response, error) {
	resp, err := s.call(sh, Op{Kind: kind})
	if err != nil {
		return Response{}, err
	}
	if resp.Err != nil {
		return Response{}, resp.Err
	}
	return resp, nil
}

// ShardSums reads every shard's manifest value sum, serialized with
// in-flight applies.
func (s *Service) ShardSums() ([]uint64, error) {
	sums := make([]uint64, len(s.shards))
	for i, sh := range s.shards {
		resp, err := s.probe(sh, opSum)
		if err != nil {
			return nil, err
		}
		sums[i] = resp.Value
	}
	return sums, nil
}

// TotalValueSum returns the wrapping sum of all live values across
// every shard.
func (s *Service) TotalValueSum() (uint64, error) {
	sums, err := s.ShardSums()
	if err != nil {
		return 0, err
	}
	var total uint64
	for _, v := range sums {
		total += v
	}
	return total, nil
}

// Close drains every shard, group-commits any buffered writes, and
// stops the workers. It is idempotent (subsequent calls return nil
// immediately) and safe to call concurrently with in-flight
// submissions and after a simulated crash (CutPower).
//
// Drain ordering: Close first flips the closed flag under the
// EXCLUSIVE submit lock, while the workers are still running, and
// only then stops them. The exclusive acquisition waits out every
// submission already past its closed-check — those enqueues land
// while workers are alive and are fully applied (writes driven to
// durable group commits) by the workers' shutdown drain, and a blocking
// caller running its own op already holds its shard's execution lock;
// every later submission observes the flag and fails with ErrClosed.
// Each worker's last pass takes its shard's execution lock, so Close
// (which waits for the workers) does not return while such a caller is
// still running. The result is the pipelined-shutdown contract the
// network server depends on: every admitted request is answered exactly
// once with its real outcome — an accepted op is never retroactively
// rejected, no ack is lost, and nothing is answered twice. A final queue
// sweep remains as defense in depth but is unreachable under this
// ordering (the drain regression test pins the contract).
//
// Note that after a CutPower the final commits write into the post-cut
// array; a crash test that wants the torn state must Close first and
// cut at a virtual time bracketed by the stats'
// LastCommitSubmit/LastCommitDurable, as TestCrashRecoveryMidCommit
// does.
func (s *Service) Close() error {
	s.closeMu.Lock()
	defer s.closeMu.Unlock()
	if s.closed.Load() {
		return nil
	}
	// Stop admissions first: after this unlock no request can enter a
	// queue and no caller can start running a shard; everything already
	// admitted is in a queue a live worker will drain, or with a caller
	// that holds the execution lock.
	s.submitMu.Lock()
	s.closed.Store(true)
	s.submitMu.Unlock()
	// Now stop the workers. Each one's last pass takes its execution
	// lock — waiting out a caller still running its own op — and drains
	// and commits every queued request.
	close(s.stop)
	s.wg.Wait()
	// Defense in depth: under the ordering above the queues are empty
	// here. Sweep anyway so a future regression fails a request loudly
	// (exactly once) instead of hanging its caller.
	for _, sh := range s.shards {
	drain:
		for {
			select {
			case r := <-sh.queue:
				r.resp <- Response{Tag: r.tag, Err: ErrClosed}
				putRequest(r)
			default:
				break drain
			}
		}
	}
	return nil
}

// EndTime returns the latest virtual time across shard clocks — the
// service's wall-clock analogue for throughput computations.
func (s *Service) EndTime() time.Duration {
	var end time.Duration
	for _, sh := range s.shards {
		if t := sh.ctx.Clock().Now(); t > end {
			end = t
		}
	}
	return end
}
