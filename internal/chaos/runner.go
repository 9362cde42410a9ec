package chaos

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"memsnap/internal/core"
	"memsnap/internal/netsvc"
	"memsnap/internal/proto"
	"memsnap/internal/replica"
	"memsnap/internal/shard"
)

// Config parameterizes a grid sweep. The zero value sweeps the full
// built-in grid: 3 seeds × every schedule × every supporting topology
// under the default YCSB-A workload.
type Config struct {
	// Seeds are the cell seeds (default 1, 7, 42).
	Seeds []uint64
	// Schedules restricts the fault schedules by name (default all).
	Schedules []string
	// Topologies restricts the topologies (default all).
	Topologies []Topology
	// Workload names the generator (see Workloads; default ycsb-a).
	Workload string
	// Shards is the service's shard count (default 2).
	Shards int
	// RegionBytes is the per-shard region size (default 256 KiB).
	RegionBytes int64
	// MinOps is the per-cell workload op floor (default 400); a cell
	// runs until it reaches MinOps and every scheduled fault fired.
	MinOps int
	// BundleDir, when non-empty, makes every failing cell write a
	// flight-recorder bundle (the cell's trace ring, stats and final
	// metrics — see obs.WriteBundle) into this directory, named after
	// the cell ID; CellResult.BundlePath records where.
	BundleDir string
}

func (c *Config) fill() {
	if len(c.Seeds) == 0 {
		c.Seeds = []uint64{1, 7, 42}
	}
	if len(c.Schedules) == 0 {
		c.Schedules = ScheduleNames()
	}
	if len(c.Topologies) == 0 {
		c.Topologies = Topologies()
	}
	if c.Workload == "" {
		c.Workload = "ycsb-a"
	}
	if c.Shards <= 0 {
		c.Shards = 2
	}
	if c.RegionBytes <= 0 {
		c.RegionBytes = 1 << 18
	}
	if c.MinOps <= 0 {
		c.MinOps = 400
	}
}

// Run sweeps the grid sequentially (cells share process-global pools,
// so they must not overlap) and returns the matrix report.
func Run(cfg Config) (*Report, error) {
	cfg.fill()
	for _, name := range cfg.Schedules {
		if _, ok := FindSchedule(name); !ok {
			return nil, fmt.Errorf("chaos: unknown schedule %q (have %v)", name, ScheduleNames())
		}
	}
	if _, err := newSource(cfg.Workload, 0); err != nil {
		return nil, err
	}
	rep := &Report{
		Workload:   cfg.Workload,
		Seeds:      cfg.Seeds,
		Schedules:  cfg.Schedules,
		Topologies: cfg.Topologies,
	}
	for _, name := range cfg.Schedules {
		sched, _ := FindSchedule(name)
		for _, topo := range cfg.Topologies {
			if !sched.Supports(topo) {
				continue
			}
			for _, seed := range cfg.Seeds {
				rep.Cells = append(rep.Cells, RunCell(cfg, Cell{Seed: seed, Schedule: name, Topology: topo}))
			}
		}
	}
	rep.Total = len(rep.Cells)
	for _, c := range rep.Cells {
		if !c.Pass {
			rep.Failed++
		}
	}
	return rep, nil
}

// RunCell executes one grid cell and asserts every invariant. A rerun
// of the same (cfg, cell) replays the same workload stream, fault
// instants, and final digests, which is what makes a printed cell ID
// a standalone reproducer (see the package comment for the one
// carve-out: virtual-time drift under pipelined-concurrency faults).
func RunCell(cfg Config, cell Cell) CellResult {
	cfg.fill()
	res := CellResult{
		ID: cell.ID(), Seed: cell.Seed, Schedule: cell.Schedule,
		Topology: cell.Topology, Workload: cfg.Workload,
	}
	sched, ok := FindSchedule(cell.Schedule)
	if !ok {
		res.fail("unknown schedule %q", cell.Schedule)
		return res
	}
	if !sched.Supports(cell.Topology) {
		res.fail("schedule %q does not support topology %q (topos: %v)", cell.Schedule, cell.Topology, sched.Topos)
		return res
	}
	src, err := newSource(cfg.Workload, cell.Seed)
	if err != nil {
		res.fail("%v", err)
		return res
	}

	basePages, baseSlices := core.CapturePoolStats()
	baseExt := core.CaptureExtentStats()
	baseEnc := replica.EncPoolStats()
	cl, err := buildCluster(cell, cfg.Shards, cfg.RegionBytes)
	if err != nil {
		res.fail("build %s topology: %v", cell.Topology, err)
		return res
	}

	d := &driver{cfg: cfg, cl: cl, md: newModel(), src: src, res: &res,
		lastKeyByShard: make([]string, cfg.Shards)}
	d.installWindows(sched)
	d.seedPhase()
	d.runLoop(sched)
	d.endPhase()
	d.finalAudit()
	cl.teardown()
	res.Recoveries = cl.recoveries

	// Leak accounting: with the cell fully torn down, the capture
	// pools must be back at their cell-start in-use level.
	endPages, endSlices := core.CapturePoolStats()
	if got, want := endPages.InUse(), basePages.InUse(); got != want {
		res.fail("leak: capture page pool in-use %d, was %d at cell start", got, want)
	}
	if got, want := endSlices.InUse(), baseSlices.InUse(); got != want {
		res.fail("leak: capture slice pool in-use %d, was %d at cell start", got, want)
	}
	if got, want := core.CaptureExtentStats().InUse(), baseExt.InUse(); got != want {
		res.fail("leak: diff extent pool in-use %d, was %d at cell start", got, want)
	}
	if got, want := replica.EncPoolStats().InUse(), baseEnc.InUse(); got != want {
		res.fail("leak: delta encoding pool in-use %d, was %d at cell start", got, want)
	}

	// Frame balance, on every machine the cell booted: all of its
	// uCheckpoints have retired, so its live frames are exactly the
	// pages its regions map — each frame an in-flight COW displaced went
	// back to the allocator.
	for i, sys := range cl.machines {
		st := sys.Phys().Stats()
		if got, want := st.TotalFrames-st.FreeFrames, sys.MappedFrames(); got != want {
			res.fail("leak: machine %d of the cell holds %d live frames, its regions map %d", i, got, want)
		}
	}

	res.Pass = len(res.Violations) == 0
	if !res.Pass && cfg.BundleDir != "" {
		writeCellBundle(cfg.BundleDir, cl, &res)
	}
	return res
}

// driver runs one cell: it feeds workload ops through the cluster one
// at a time (one outstanding op keeps virtual time, and therefore the
// whole cell, deterministic), fires schedule events at quiescent
// instants, and shadows every outcome in the model.
type driver struct {
	cfg Config
	cl  *cluster
	md  *model
	src opSource
	res *CellResult

	// probes holds one key routed to each shard, used to settle every
	// shard with a single-op commit after pipelined phases.
	probes []string
	// lastKeyByShard tracks the most recent write key per shard: with
	// one synchronous client, a power cut can tear at most the final
	// commit of each shard, so exactly these keys become uncertain.
	lastKeyByShard []string
	pending        []Event
	drainRound     int
	settleSeq      uint64
}

// installWindows pre-installs window faults (their injection points
// evaluate virtual-time overlap, so installing them ahead of time is
// exact) and queues point faults, sorted by instant.
func (d *driver) installWindows(sched Schedule) {
	for _, ev := range sched.Events {
		switch ev.Kind {
		case FaultLinkOutage:
			if d.cl.link == nil {
				continue
			}
			d.cl.link.OutageWindow(ev.At, ev.At+ev.Dur)
			if end := ev.At + ev.Dur; end > d.cl.outageEnd {
				d.cl.outageEnd = end
			}
			d.res.FaultsFired++
		case FaultSlowDisk:
			switch ev.Target {
			case TargetPrimary:
				d.cl.sys.Array().SetStraggler(ev.Dev, ev.At, ev.At+ev.Dur, ev.Factor)
			case TargetFollower:
				if d.cl.folSys == nil {
					continue
				}
				d.cl.folSys.Array().SetStraggler(ev.Dev, ev.At, ev.At+ev.Dur, ev.Factor)
			default:
				d.res.fail("slowdisk event targets %q: no device there", ev.Target)
				continue
			}
			d.res.FaultsFired++
		default:
			if ev.Kind == FaultFollowerCrash && d.cl.fol == nil {
				continue
			}
			d.pending = append(d.pending, ev)
		}
	}
	sort.SliceStable(d.pending, func(i, j int) bool { return d.pending[i].At < d.pending[j].At })
}

// seedPhase finds one probe key per shard and writes it, so every
// shard opens with at least one commit before any fault can fire.
func (d *driver) seedPhase() {
	d.probes = make([]string, d.cfg.Shards)
	found := 0
	for i := 0; i < 1<<16 && found < d.cfg.Shards; i++ {
		k := fmt.Sprintf("probe%05d", i)
		if sh := d.cl.svc.ShardOf("t", k); d.probes[sh] == "" {
			d.probes[sh] = k
			found++
		}
	}
	if found < d.cfg.Shards {
		d.res.fail("no probe key found for %d of %d shards", d.cfg.Shards-found, d.cfg.Shards)
		return
	}
	d.settle()
}

// settle writes one probe key per shard synchronously, guaranteeing
// each shard's most recent commit holds exactly one op (the tear
// granularity lastKeyByShard assumes) and flushing any replication
// gap left by an outage or follower rebuild.
func (d *driver) settle() {
	for sh := 0; sh < d.cfg.Shards; sh++ {
		d.settleSeq++
		d.apply(shard.Op{Kind: shard.OpPut, Tenant: "t", Key: d.probes[sh], Value: d.settleSeq})
	}
}

// runLoop drives workload ops until the op floor is met and every
// point fault has fired at its scheduled virtual instant.
func (d *driver) runLoop(sched Schedule) {
	minOps, maxOps := int64(d.cfg.MinOps), int64(d.cfg.MinOps)*20
	for d.res.Ops < minOps || len(d.pending) > 0 {
		if d.res.Ops >= maxOps {
			d.res.fail("op budget exhausted at %v with %d scheduled faults still pending", d.cl.now(), len(d.pending))
			return
		}
		for len(d.pending) > 0 && d.cl.now() >= d.pending[0].At {
			ev := d.pending[0]
			d.pending = d.pending[1:]
			d.fire(ev)
			d.res.FaultsFired++
		}
		d.apply(d.src.Next())
	}
	// Outlive any remaining outage window so the end-phase settle can
	// replicate cleanly.
	for d.cl.outageEnd > 0 && d.cl.now() <= d.cl.outageEnd && d.res.Ops < maxOps {
		d.apply(d.src.Next())
	}
}

// fire executes one point fault at a quiescent instant (no op in
// flight).
func (d *driver) fire(ev Event) {
	switch ev.Kind {
	case FaultPowerCut:
		if d.cl.topo == TopoReplica {
			if err := d.cl.failover(ev, d.res); err != nil {
				d.res.fail("failover: %v", err)
				return
			}
			// The promoted follower holds every confirmed write;
			// only unconfirmed (ErrLinkDown) suffixes are ambiguous.
			d.md.failover()
			return
		}
		if err := d.cl.svc.Close(); err != nil {
			d.res.fail("powercut close: %v", err)
		}
		cutAt := d.cl.cutPrimary(ev.At, 0x1)
		d.markTearUncertain()
		if err := d.cl.recoverPrimary(cutAt, d.res); err != nil {
			d.res.fail("powercut: %v", err)
		}
	case FaultFollowerCrash:
		if err := d.cl.crashFollower(d.res); err != nil {
			d.res.fail("folcrash: %v", err)
		}
	case FaultDrain:
		if d.cl.topo == TopoNet {
			d.fireDrainNet()
		} else {
			d.fireDrain()
		}
	default:
		d.res.fail("unhandled point fault %q", ev.Kind)
	}
}

// markTearUncertain flags each shard's most recent write key: a power
// cut inside the final commits' IO window can roll exactly those back.
func (d *driver) markTearUncertain() {
	for _, key := range d.lastKeyByShard {
		if key != "" {
			d.md.markUncertain(key)
		}
	}
}

// apply drives one synchronous operation and validates its outcome
// against the model.
func (d *driver) apply(op shard.Op) {
	d.res.Ops++
	d.res.Admitted++
	r := d.cl.do(op)
	d.res.Responses++
	key := op.Key
	switch op.Kind {
	case shard.OpGet:
		if r.Err != nil {
			d.res.fail("get %q: %v", key, r.Err)
			return
		}
		if v := d.md.checkRead(key, r.Value, r.Found); v != "" {
			d.res.fail("%s", v)
		}
	case shard.OpPut:
		switch {
		case r.Err == nil:
			d.md.confirmedWrite(key, op.Value, true)
			d.noteWrite(key)
		case errors.Is(r.Err, replica.ErrLinkDown):
			d.res.LinkDown++
			d.md.unconfirmedWrite(key, op.Value, true)
			d.noteWrite(key)
		default:
			d.res.fail("put %q: unsanctioned error %v", key, r.Err)
		}
	case shard.OpAdd:
		switch {
		case r.Err == nil:
			if v := d.md.checkAdd(key, op.Value, r.Value); v != "" {
				d.res.fail("%s", v)
			}
			d.md.confirmedWrite(key, r.Value, true)
			d.noteWrite(key)
		case errors.Is(r.Err, replica.ErrLinkDown):
			// The response still carries the primary's applied value.
			d.res.LinkDown++
			if v := d.md.checkAdd(key, op.Value, r.Value); v != "" {
				d.res.fail("%s", v)
			}
			d.md.unconfirmedWrite(key, r.Value, true)
			d.noteWrite(key)
		default:
			d.res.fail("add %q: unsanctioned error %v", key, r.Err)
		}
	case shard.OpDelete:
		switch {
		case r.Err == nil:
			if cur, exact := d.md.current(key); exact && r.Found != cur.present {
				d.res.fail("delete %q: found=%v, model says present=%v", key, r.Found, cur.present)
			}
			d.md.confirmedWrite(key, 0, false)
			d.noteWrite(key)
		case errors.Is(r.Err, replica.ErrLinkDown):
			d.res.LinkDown++
			d.md.unconfirmedWrite(key, 0, false)
			d.noteWrite(key)
		default:
			d.res.fail("delete %q: unsanctioned error %v", key, r.Err)
		}
	default:
		d.res.fail("workload produced unsupported op kind %v", op.Kind)
	}
}

func (d *driver) noteWrite(key string) {
	d.lastKeyByShard[d.cl.svc.ShardOf("t", key)] = key
}

// fireDrain pipelines a burst of tagged writes into the service and
// closes it while they are still queued, asserting the drain
// contract: every admitted request receives exactly one real-outcome
// response. The service then reopens over the same store.
func (d *driver) fireDrain() {
	const burst = 24
	d.drainRound++
	resp := make(chan shard.Response, burst)
	keys := make([]string, burst)
	admitted := 0
	for i := 0; i < burst; i++ {
		keys[i] = fmt.Sprintf("drain%d-%02d", d.drainRound, i)
		op := shard.Op{Kind: shard.OpPut, Tenant: "t", Key: keys[i], Value: uint64(7000 + i)}
		if err := d.cl.svc.DoTagged(op, uint64(i+1), resp); err != nil {
			d.res.fail("drain burst admit %d: %v", i, err)
			continue
		}
		d.res.Ops++
		d.res.Admitted++
		admitted++
	}
	if err := d.cl.svc.Close(); err != nil {
		d.res.fail("drain close: %v", err)
	}
	seen := make(map[uint64]bool, admitted)
	for i := 0; i < admitted; i++ {
		select {
		case r := <-resp:
			d.res.Responses++
			if seen[r.Tag] {
				d.res.fail("drain: duplicate response for tag %d", r.Tag)
				continue
			}
			seen[r.Tag] = true
			key := keys[r.Tag-1]
			switch {
			case r.Err == nil:
				d.md.confirmedWrite(key, uint64(7000+int(r.Tag)-1), true)
				d.noteWrite(key)
			case errors.Is(r.Err, replica.ErrLinkDown):
				d.res.LinkDown++
				d.md.unconfirmedWrite(key, uint64(7000+int(r.Tag)-1), true)
				d.noteWrite(key)
			case errors.Is(r.Err, shard.ErrClosed):
				d.res.fail("drain: admitted request %d answered ErrClosed — drain ordering broken", r.Tag)
			default:
				d.res.fail("drain: request %d unsanctioned error %v", r.Tag, r.Err)
			}
		default:
			d.res.fail("drain: %d of %d admitted requests never answered", admitted-i, admitted)
			i = admitted
		}
	}
	// Reopen over the same store and settle each shard.
	svc2, err := shard.New(d.cl.sys, d.cl.shardConfig(d.cl.svc.EndTime()))
	if err != nil {
		d.res.fail("post-drain reopen: %v", err)
		return
	}
	checkRecovery(svc2, "post-drain reopen", d.res)
	if d.cl.ship != nil {
		d.cl.ship.Attach(svc2)
	}
	d.cl.svc = svc2
	d.cl.recoveries++
	d.settle()
}

// fireDrainNet is the drain fault on the TCP topology: concurrent
// pipelined requests race the server's graceful close; afterwards the
// server must have answered exactly what it admitted. The shard
// service itself stays open; a fresh server and client replace the
// drained ones.
func (d *driver) fireDrainNet() {
	const workers, perWorker = 4, 6
	d.drainRound++
	type outcome struct {
		key  string
		val  uint64
		resp proto.Response
		err  error
	}
	results := make([]outcome, workers*perWorker)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				idx := w*perWorker + i
				key := fmt.Sprintf("drain%d-%02d", d.drainRound, idx)
				val := uint64(9000 + idx)
				q := proto.Request{
					ID:   uint64(d.drainRound)<<32 | uint64(idx+1)<<8,
					Kind: proto.KindPut, Tenant: []byte("t"), Key: []byte(key), Value: val,
				}
				resp, err := d.cl.cli.Do(&q)
				results[idx] = outcome{key: key, val: val, resp: resp, err: err}
			}
		}(w)
	}
	if err := d.cl.srv.Close(); err != nil {
		d.res.fail("net drain: server close: %v", err)
	}
	wg.Wait()
	for _, o := range results {
		switch {
		case o.err != nil:
			// The connection died before a response: the write may or
			// may not have been admitted. Either surviving state is
			// legal; a torn value is not.
			d.md.maybeWrite(o.key, o.val, true)
		case o.resp.Status == proto.StatusOK:
			d.res.Ops++
			d.res.Admitted++
			d.res.Responses++
			d.md.confirmedWrite(o.key, o.val, true)
			d.noteWrite(o.key)
		default:
			d.res.fail("net drain: put %q answered status %v", o.key, o.resp.Status)
		}
	}
	// Admitted ⇒ answered, on the server's own ledger.
	st := d.cl.srv.Stats()
	if st.Requests != st.Responses {
		d.res.fail("net drain: server admitted %d requests but answered %d", st.Requests, st.Responses)
	}
	if st.InFlight != 0 {
		d.res.fail("net drain: %d requests still in flight after close", st.InFlight)
	}
	d.cl.cli.Close()
	srv2, err := netsvc.Serve("127.0.0.1:0", d.cl.svc, netsvc.Config{})
	if err != nil {
		d.res.fail("net drain: reopen server: %v", err)
		return
	}
	cli2, err := netsvc.Dial(srv2.Addr(), 8)
	if err != nil {
		d.res.fail("net drain: redial: %v", err)
		srv2.Close()
		return
	}
	d.cl.srv, d.cl.cli = srv2, cli2
	d.settle()
}

// endPhase quiesces the cell: settle every shard, then assert the
// replica convergence invariant and record the final digests.
func (d *driver) endPhase() {
	d.settle()
	if d.cl.topo == TopoReplica {
		d.cl.checkConverged(d.res)
	}
	if digests, err := d.cl.svc.ShardDigests(); err != nil {
		d.res.fail("final digests: %v", err)
	} else {
		for _, dg := range digests {
			d.res.Digests = append(d.res.Digests, fmt.Sprintf("%016x", dg))
		}
	}
	d.res.VirtualEnd = d.cl.now()
}

// finalAudit is the cell's closing crash drill, run on every cell
// including steady ones: cut power inside the final commits' IO
// window, recover through the manifest, and verify every key the cell
// ever wrote against the model's surviving-state sets.
func (d *driver) finalAudit() {
	cl := d.cl
	if cl.cli != nil {
		cl.cli.Close()
		cl.cli = nil
	}
	if cl.srv != nil {
		cl.srv.Close()
		cl.srv = nil
	}
	if err := cl.svc.Close(); err != nil {
		d.res.fail("final audit: close: %v", err)
	}
	cutAt := cl.cutPrimary(cl.now(), 0x3)
	if cl.ship != nil {
		cl.ship.Close()
		cl.ship = nil
	}
	d.markTearUncertain()
	sys2, doneAt, err := cl.reboot(cl.sys.Array(), cutAt)
	if err != nil {
		d.res.fail("final audit: recover: %v", err)
		return
	}
	svc2, err := shard.New(sys2, cl.shardConfig(doneAt))
	if err != nil {
		d.res.fail("final audit: reopen: %v", err)
		return
	}
	cl.recoveries++
	checkRecovery(svc2, "final cut-power audit", d.res)
	bad := 0
	for _, k := range d.md.sortedKeys() {
		r := svc2.Do(shard.Op{Kind: shard.OpGet, Tenant: "t", Key: k})
		if r.Err != nil {
			d.res.fail("final audit: get %q: %v", k, r.Err)
			bad++
		} else if v := d.md.checkRead(k, r.Value, r.Found); v != "" {
			d.res.fail("final audit: %s", v)
			bad++
		}
		if bad >= 5 {
			d.res.fail("final audit: stopping after %d mismatches", bad)
			break
		}
	}
	svc2.Close()
	cl.sys, cl.svc = sys2, svc2
}
