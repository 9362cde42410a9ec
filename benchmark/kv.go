package main

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"memsnap/internal/core"
	"memsnap/internal/netsvc"
	"memsnap/internal/obs"
	"memsnap/internal/proto"
	"memsnap/internal/replica"
	"memsnap/internal/shard"
	"memsnap/internal/sim"
)

// transport is how a key-value workload reaches the shard service.
type transport int

const (
	viaTCP    transport = iota // netsvc.Client.Do over real loopback TCP
	viaTagged                  // in-process, pipelined through Service.DoTagged
	viaDo                      // in-process, one blocking Service.Do at a time
)

// kvSpec is the fixed shape of a key-value workload. Load is not
// scaled by the core count: the numbers are comparable across commits
// only while the shape stays put.
type kvSpec struct {
	shards      int
	regionBytes int64
	tenants     int
	keys        int // per tenant
	getPct      int // the rest are adds
	via         transport
	clients     int // connections, or submitting goroutines
	depth       int // operations each client keeps in flight
	replicated  bool
}

const zipfTheta = 0.99

// keyspace is the pre-built vocabulary: every tenant and key exists as
// both string and bytes before the first measured operation, so the
// generator allocates nothing per operation.
type keyspace struct {
	tenants  []string
	tenantsB [][]byte
	keys     []string
	keysB    [][]byte
	tz, kz   *sim.Zipf
	base     []uint64 // preloaded value of (tenant t, key k) at t*len(keys)+k
	baseSum  uint64
}

func newKeyspace(tenants, keys int, seed uint64) *keyspace {
	ks := &keyspace{
		tz:   sim.NewZipf(int64(tenants), zipfTheta),
		kz:   sim.NewZipf(int64(keys), zipfTheta),
		base: make([]uint64, tenants*keys),
	}
	for i := 0; i < tenants; i++ {
		s := fmt.Sprintf("t%02d", i)
		ks.tenants, ks.tenantsB = append(ks.tenants, s), append(ks.tenantsB, []byte(s))
	}
	for i := 0; i < keys; i++ {
		s := fmt.Sprintf("key%06d", i)
		ks.keys, ks.keysB = append(ks.keys, s), append(ks.keysB, []byte(s))
	}
	rng := sim.NewRNG(seed ^ 0x5eed)
	for i := range ks.base {
		ks.base[i] = 1 + rng.Uint64()%1000
		ks.baseSum += ks.base[i]
	}
	return ks
}

// kvOp is one generated operation: a get of, or an add to, a key.
type kvOp struct {
	t, k  int
	get   bool
	delta uint64
}

type opGen struct {
	rng    *sim.RNG
	ks     *keyspace
	getPct int
}

// next draws the next operation. Tenant and key popularity are both
// zipfian; an add's delta is 1..1000 so the final value sum is
// checkable under concurrency.
func (g *opGen) next() kvOp {
	o := kvOp{t: int(g.ks.tz.Next(g.rng)), k: int(g.ks.kz.Next(g.rng))}
	if g.rng.Intn(100) < g.getPct {
		o.get = true
	} else {
		o.delta = 1 + g.rng.Uint64()%1000
	}
	return o
}

// kvBench is one assembled key-value system under test.
type kvBench struct {
	spec   kvSpec
	seed   uint64
	traced bool
	exact  bool // -ops: everything, set-up included, must replay bit for bit

	ks *keyspace
	// model holds the exact expected value of every key. Only a single
	// client can keep one; concurrent clients check lower bounds and
	// the final sum instead.
	model []uint64
	acked uint64 // sum of acknowledged add deltas, all phases
	phase uint64 // gives every drive call its own RNG streams

	opts    core.Options
	sys     *core.System
	svc     *shard.Service
	srv     *netsvc.Server
	clients []*netsvc.Client
	fol     *replica.Follower
	ship    *replica.Shipper
	rec     *obs.Recorder

	drainMs float64
}

func newKV(spec kvSpec, seed uint64, traced, exact bool) *kvBench {
	return &kvBench{spec: spec, seed: seed, traced: traced, exact: exact}
}

func (b *kvBench) setup() error {
	sp := b.spec
	b.ks = newKeyspace(sp.tenants, sp.keys, b.seed)
	if sp.via == viaDo {
		b.model = append([]uint64(nil), b.ks.base...)
	}
	if b.traced {
		b.rec = obs.NewRecorder(1 << 16)
	}
	b.opts = core.Options{CPUs: sp.shards, DiskBytesEach: 512 << 20}
	var err error
	if b.sys, err = core.NewSystem(b.opts); err != nil {
		return err
	}
	cfg := shard.Config{Shards: sp.shards, RegionBytes: sp.regionBytes, Recorder: b.rec}
	if sp.replicated {
		folSys, err := core.NewSystem(b.opts)
		if err != nil {
			return err
		}
		b.fol, err = replica.NewFollower(folSys, replica.FollowerConfig{
			Shards: sp.shards, RegionBytes: sp.regionBytes, Recorder: b.rec})
		if err != nil {
			return err
		}
		link := replica.NewLink(replica.LinkConfig{Seed: b.seed})
		b.ship = replica.NewShipper(link, b.fol, sp.shards, replica.Config{Mode: replica.Sync, Recorder: b.rec})
		cfg.Replicator = b.ship
	}
	if b.svc, err = shard.New(b.sys, cfg); err != nil {
		return err
	}
	if b.ship != nil {
		b.ship.Attach(b.svc)
	}
	if err := b.preload(); err != nil {
		return err
	}
	if sp.via != viaTCP {
		return nil
	}
	b.srv, err = netsvc.Serve("127.0.0.1:0", b.svc, netsvc.Config{MaxInFlight: sp.depth, Recorder: b.rec})
	if err != nil {
		return err
	}
	for i := 0; i < sp.clients; i++ {
		c, err := netsvc.Dial(b.srv.Addr(), sp.depth)
		if err != nil {
			return err
		}
		if b.traced {
			// One in DefaultSampleRate requests carries wire trace
			// context, so the server's recorder has flows to stitch.
			c.EnableTracing(netsvc.Tracing{
				Recorder: b.rec, Sampler: obs.NewSampler(b.seed+uint64(i), obs.DefaultSampleRate),
				Now: b.svc.EndTime, Track: obs.ClientTrack(i),
			})
		}
		b.clients = append(b.clients, c)
	}
	return nil
}

// preload puts every key at its base value, pipelined through
// DoTagged so set-up stays near a second. How a pipelined load batches
// depends on host timing, and the batching decides disk layout and
// pre-image retention; an exact-replay run therefore loads one
// operation at a time, several times slower.
func (b *kvBench) preload() error {
	window := 1024
	if b.exact {
		window = 1
	}
	resp := make(chan shard.Response, window)
	inflight := 0
	var firstErr error
	reap := func() {
		if r := <-resp; r.Err != nil && firstErr == nil {
			firstErr = r.Err
		}
		inflight--
	}
	for idx, v := range b.ks.base {
		if inflight == window {
			reap()
		}
		op := shard.Op{Kind: shard.OpPut, Tenant: b.ks.tenants[idx/b.spec.keys], Key: b.ks.keys[idx%b.spec.keys], Value: v}
		if err := b.svc.DoTagged(op, uint64(idx), resp); err != nil {
			return err
		}
		inflight++
	}
	for inflight > 0 {
		reap()
	}
	return firstErr
}

func (b *kvBench) gen(lane int) *opGen {
	return &opGen{rng: sim.NewRNG(b.seed + b.phase<<32 + uint64(lane)), ks: b.ks, getPct: b.spec.getPct}
}

// drive runs the closed loop until the meter says stop: every client
// waits for a reply before it sends its next request.
func (b *kvBench) drive(m *meter) {
	b.phase++
	sp := b.spec
	var wg sync.WaitGroup
	run := func(id int, fn func(*lane)) {
		l := m.newLane(id, b.traced)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer l.end()
			fn(l)
		}()
	}
	for c := 0; c < sp.clients; c++ {
		switch sp.via {
		case viaTCP:
			for d := 0; d < sp.depth; d++ {
				client := b.clients[c]
				run(c*sp.depth+d, func(l *lane) { b.tcpLane(client, l) })
			}
		case viaTagged:
			run(c, b.taggedLane)
		case viaDo:
			run(c, b.doLane)
		}
	}
	wg.Wait()
	b.acked += m.acked
}

// settle checks one completed operation against what the key space
// allows and accounts for it. ok is false on a transport error or a
// non-OK status (after the client's own retries).
func (b *kvBench) settle(l *lane, o kvOp, ok, found bool, value uint64) {
	l.attempted++
	if !ok {
		l.failed++
		return
	}
	idx := o.t*b.spec.keys + o.k
	if !o.get {
		l.writes++
		l.acked += o.delta
	}
	switch {
	case b.model != nil:
		b.model[idx] += o.delta
		if value != b.model[idx] || (o.get && !found) {
			l.failed++
		}
	case o.get && (!found || value < b.ks.base[idx]):
		// Every key is preloaded and adds only grow a value.
		l.failed++
	case !o.get && value < b.ks.base[idx]+o.delta:
		l.failed++
	}
}

func (b *kvBench) shardOp(o kvOp) shard.Op {
	op := shard.Op{Kind: shard.OpGet, Tenant: b.ks.tenants[o.t], Key: b.ks.keys[o.k]}
	if !o.get {
		op.Kind, op.Value = shard.OpAdd, o.delta
	}
	return op
}

// reply is what a blocking call returned. gone marks a transport error:
// the lane stops instead of spinning on a dead connection.
type reply struct {
	ok, found, gone bool
	value           uint64
}

// syncLane is one blocking caller: generate, call, wait, check.
func (b *kvBench) syncLane(l *lane, name spanName, call func(kvOp) reply) {
	g := b.gen(l.id)
	prev := now()
	for {
		o := g.next()
		start := now()
		if !l.m.more(start) {
			return
		}
		r := call(o)
		end := now()
		l.record(start, end)
		b.settle(l, o, r.ok, r.found, r.value)
		l.span(name, prev, start, end)
		prev = end
		if r.gone {
			return
		}
	}
}

// tcpLane is one of a connection's depth concurrent callers.
func (b *kvBench) tcpLane(c *netsvc.Client, l *lane) {
	var q proto.Request
	b.syncLane(l, spanClientDo, func(o kvOp) reply {
		q = proto.Request{Kind: proto.KindGet, Tenant: b.ks.tenantsB[o.t], Key: b.ks.keysB[o.k]}
		if !o.get {
			q.Kind, q.Value = proto.KindAdd, o.delta
		}
		p, err := c.Do(&q)
		return reply{ok: err == nil && p.Status == proto.StatusOK, found: p.Found, value: p.Value, gone: err != nil}
	})
}

// doLane is the single blocking in-process caller.
func (b *kvBench) doLane(l *lane) {
	b.syncLane(l, spanShardDo, func(o kvOp) reply {
		r := b.svc.Do(b.shardOp(o))
		return reply{ok: r.Err == nil, found: r.Found, value: r.Value}
	})
}

// taggedLane keeps depth operations in flight through DoTagged on one
// response channel, the way netsvc's connection reader does.
func (b *kvBench) taggedLane(l *lane) {
	g := b.gen(l.id)
	depth := b.spec.depth
	resp := make(chan shard.Response, depth)
	type slot struct {
		op         kvOp
		gen, start time.Time
	}
	slots := make([]slot, depth)
	free := make([]int, depth)
	for i := range free {
		free[i] = i
	}
	stopped := false
	for {
		for !stopped && len(free) > 0 {
			genAt := now()
			o := g.next()
			start := genAt
			if l.tr != nil {
				start = now()
			}
			if !l.m.more(start) {
				stopped = true
				break
			}
			s := free[len(free)-1]
			if err := b.svc.DoTagged(b.shardOp(o), uint64(s), resp); err != nil {
				b.settle(l, o, false, false, 0)
				continue
			}
			free = free[:len(free)-1]
			slots[s] = slot{op: o, gen: genAt, start: start}
		}
		if len(free) == depth {
			return
		}
		r := <-resp
		end := now()
		s := &slots[r.Tag]
		l.record(s.start, end)
		b.settle(l, s.op, r.Err == nil, r.Found, r.Value)
		l.span(spanShardDoTagged, s.gen, s.start, end)
		free = append(free, int(r.Tag))
	}
}

func (b *kvBench) read(c *counters) {
	c.disk = b.sys.Array().Stats()
	c.mem = b.sys.Phys().Stats()
	readShard(b.svc, c)
	if b.srv != nil {
		c.net = b.srv.Stats()
		for _, cl := range b.clients {
			c.clientRetries += cl.Retries()
		}
	}
	if b.ship != nil {
		readReplica(b.ship, b.fol, c)
	}
}

// stopNet closes the clients and drains the server, timing the drain.
func (b *kvBench) stopNet() error {
	for _, c := range b.clients {
		c.Close()
	}
	b.clients = nil
	if b.srv == nil {
		return nil
	}
	start := now()
	err := b.srv.Close()
	b.drainMs = float64(time.Since(start)) / 1e6 //lint:allow walltime netsvc.drain_ms is host time
	b.srv = nil
	return err
}

// verify is the end-of-round correctness and durability check. The
// value sum must equal the preload plus every acknowledged add; then
// power is cut without closing the service, the store is recovered
// from the disk image alone, and the sum must still match: every
// acknowledged write survives a crash.
func (b *kvBench) verify() error {
	if err := b.stopNet(); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	want := b.ks.baseSum + b.acked
	got, err := b.svc.TotalValueSum()
	if err != nil {
		return err
	}
	if got != want {
		return fmt.Errorf("value sum %d, want preload %d + acknowledged adds %d = %d", got, b.ks.baseSum, b.acked, want)
	}
	if b.ship != nil {
		primary, err := b.svc.ShardDigests()
		if err != nil {
			return err
		}
		for i, d := range b.fol.Digests() {
			if d != primary[i] {
				return fmt.Errorf("shard %d: follower digest %#x, primary %#x", i, d, primary[i])
			}
		}
		var c counters
		readReplica(b.ship, b.fol, &c)
		if n := c.rep.Snapshots + c.fol.Snapshots; n != 0 {
			return fmt.Errorf("%d snapshot transfers on a healthy link, want 0", n)
		}
	}

	b.sys.Array().CutPower(b.svc.EndTime(), sim.NewRNG(b.seed))
	sys, at, err := core.Recover(b.opts, b.sys.Array(), b.svc.EndTime())
	if err != nil {
		return fmt.Errorf("recover: %w", err)
	}
	svc, err := shard.New(sys, shard.Config{Shards: b.spec.shards, RegionBytes: b.spec.regionBytes, StartAt: at})
	if err != nil {
		return fmt.Errorf("reopen: %w", err)
	}
	defer svc.Close()
	for _, r := range svc.Recovery() {
		if !r.Existing || !r.Consistent() {
			return fmt.Errorf("shard %d recovered inconsistent: %+v", r.Shard, r)
		}
	}
	if got, err = svc.TotalValueSum(); err != nil {
		return err
	}
	if got != want {
		return fmt.Errorf("after power cut: value sum %d, want %d", got, want)
	}
	return nil
}

func (b *kvBench) extra(out map[string]float64) {
	if b.spec.via == viaTCP {
		out["netsvc.drain_ms"] = b.drainMs
	}
}

func (b *kvBench) recorder() *obs.Recorder { return b.rec }

func (b *kvBench) close() error {
	err := b.stopNet()
	if b.svc != nil {
		err = errors.Join(err, b.svc.Close())
	}
	if b.ship != nil {
		err = errors.Join(err, b.ship.Close())
	}
	return err
}
