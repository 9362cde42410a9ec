package chaos

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"

	"memsnap/internal/core"
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
	cl, err := buildRig(cell, cfg.Shards, cfg.RegionBytes)
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
	for i, sys := range cl.Machines() {
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
	cl  *rig
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
			if d.cl.Link == nil {
				continue
			}
			d.cl.Link.OutageWindow(ev.At, ev.At+ev.Dur)
			if end := ev.At + ev.Dur; end > d.cl.outageEnd {
				d.cl.outageEnd = end
			}
			d.res.FaultsFired++
		case FaultSlowDisk:
			switch ev.Target {
			case TargetPrimary:
				d.cl.Sys.Array().SetStraggler(ev.Dev, ev.At, ev.At+ev.Dur, ev.Factor)
			case TargetFollower:
				if d.cl.FolSys == nil {
					continue
				}
				d.cl.FolSys.Array().SetStraggler(ev.Dev, ev.At, ev.At+ev.Dur, ev.Factor)
			default:
				d.res.fail("slowdisk event targets %q: no device there", ev.Target)
				continue
			}
			d.res.FaultsFired++
		default:
			if ev.Kind == FaultFollowerCrash && d.cl.Fol == nil {
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
		if sh := d.cl.Svc.ShardOf("t", k); d.probes[sh] == "" {
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
		cutAt := d.cl.CutPower(ev.At, d.cl.rng(0x1))
		if d.cl.topo == TopoReplica {
			if err := d.cl.Failover(cutAt, d.cl.outageEnd); err != nil {
				d.res.fail("failover: %v", err)
				return
			}
			d.cl.checkRecovery("promotion recovery", d.res)
			for _, rec := range d.cl.Svc.Recovery() {
				if rec.Era == 0 {
					d.res.fail("promotion recovery: shard %d did not bump the replication era", rec.Shard)
				}
			}
			// The promoted follower holds every confirmed write;
			// only unconfirmed (ErrLinkDown) suffixes are ambiguous.
			d.md.failover()
			return
		}
		d.markTearUncertain()
		if err := d.cl.Recover(cutAt); err != nil {
			d.res.fail("powercut: %v", err)
			return
		}
		d.cl.checkRecovery("primary power-cut recovery", d.res)
	case FaultFollowerCrash:
		if err := d.cl.RestartFollower(d.cl.rng(0x2)); err != nil {
			d.res.fail("folcrash: %v", err)
			return
		}
		d.cl.recoveries++
		d.cl.checkFollowerBehind(d.res)
	case FaultDrain:
		if d.cl.topo == TopoNet {
			d.fireDrainNet()
		} else {
			d.fireDrain()
		}
		d.reopen()
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
		d.noteOutcome("put", key, op.Value, true, r.Err)
	case shard.OpAdd:
		if r.Err == nil || errors.Is(r.Err, replica.ErrLinkDown) {
			// An ErrLinkDown response still carries the primary's
			// applied value.
			if v := d.md.checkAdd(key, op.Value, r.Value); v != "" {
				d.res.fail("%s", v)
			}
		}
		d.noteOutcome("add", key, r.Value, true, r.Err)
	case shard.OpDelete:
		if cur, exact := d.md.current(key); r.Err == nil && exact && r.Found != cur.present {
			d.res.fail("delete %q: found=%v, model says present=%v", key, r.Found, cur.present)
		}
		d.noteOutcome("delete", key, 0, false, r.Err)
	default:
		d.res.fail("workload produced unsupported op kind %v", op.Kind)
	}
}

// noteOutcome shadows a write's outcome in the model: confirmed, or
// durable locally with replication unconfirmed (ErrLinkDown); any other
// error is a violation. val and present are the key's state after the
// write.
func (d *driver) noteOutcome(what, key string, val uint64, present bool, err error) {
	switch {
	case err == nil:
		d.md.confirmedWrite(key, val, present)
	case errors.Is(err, replica.ErrLinkDown):
		d.res.LinkDown++
		d.md.unconfirmedWrite(key, val, present)
	default:
		d.res.fail("%s %q: unsanctioned error %v", what, key, err)
		return
	}
	d.lastKeyByShard[d.cl.Svc.ShardOf("t", key)] = key
}

// fireDrain pipelines a burst of tagged writes into the service and
// closes it while they are still queued, asserting the drain
// contract: every admitted request receives exactly one real-outcome
// response.
//
// The burst is queued while every shard worker is parked, so how it
// splits into group commits — which the manifest's commit counter,
// and so the cell digest, records — does not depend on how fast a
// worker wakes. Each worker parks on a write whose response channel
// has no buffer: once that write's group commit has retired, the
// worker is stuck handing back its response and dequeues nothing until
// the driver takes it, after the whole burst is queued.
func (d *driver) fireDrain() {
	const burst = 24
	d.drainRound++
	// The parking write overwrites the shard's probe key, so it cannot
	// fail to apply and always commits.
	parked := make([]chan shard.Response, len(d.probes))
	vals := make([]uint64, len(d.probes))
	for sh, probe := range d.probes {
		base := d.cl.Svc.Stats()[sh].Commits
		d.settleSeq++
		vals[sh] = d.settleSeq
		ch := make(chan shard.Response)
		if err := d.cl.Svc.DoTagged(shard.Op{Kind: shard.OpPut, Tenant: "t", Key: probe, Value: vals[sh]}, 0, ch); err != nil {
			d.res.fail("drain park %d: %v", sh, err)
			continue
		}
		parked[sh] = ch
		for st := d.cl.Svc.Stats()[sh]; st.Commits == base || st.CommitHist.Count != st.Commits; st = d.cl.Svc.Stats()[sh] {
			runtime.Gosched()
		}
	}
	resp := make(chan shard.Response, burst)
	keys := make([]string, burst)
	admitted := 0
	for i := 0; i < burst; i++ {
		keys[i] = fmt.Sprintf("drain%d-%02d", d.drainRound, i)
		op := shard.Op{Kind: shard.OpPut, Tenant: "t", Key: keys[i], Value: uint64(7000 + i)}
		if err := d.cl.Svc.DoTagged(op, uint64(i+1), resp); err != nil {
			d.res.fail("drain burst admit %d: %v", i, err)
			continue
		}
		d.res.Ops++
		d.res.Admitted++
		admitted++
	}
	for sh, ch := range parked {
		if ch == nil {
			continue
		}
		r := <-ch
		d.res.Ops++
		d.res.Admitted++
		d.res.Responses++
		d.noteOutcome("drain park put", d.probes[sh], vals[sh], true, r.Err)
	}
	if err := d.cl.Svc.Close(); err != nil {
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
			if errors.Is(r.Err, shard.ErrClosed) {
				d.res.fail("drain: admitted request %d answered ErrClosed — drain ordering broken", r.Tag)
				continue
			}
			d.noteOutcome("drain put", keys[r.Tag-1], uint64(7000+int(r.Tag)-1), true, r.Err)
		default:
			d.res.fail("drain: %d of %d admitted requests never answered", admitted-i, admitted)
			i = admitted
		}
	}
}

// fireDrainNet is the drain fault on the TCP topology: concurrent
// pipelined requests race the server's graceful close; afterwards the
// server must have answered exactly what it admitted.
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
	if err := d.cl.Srv.Close(); err != nil {
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
			d.noteOutcome("net drain put", o.key, o.val, true, nil)
		default:
			d.res.fail("net drain: put %q answered status %v", o.key, o.resp.Status)
		}
	}
	// Admitted ⇒ answered, on the server's own ledger.
	st := d.cl.Srv.Stats()
	if st.Requests != st.Responses {
		d.res.fail("net drain: server admitted %d requests but answered %d", st.Requests, st.Responses)
	}
	if st.InFlight != 0 {
		d.res.fail("net drain: %d requests still in flight after close", st.InFlight)
	}
	d.cl.closeClient()
}

// reopen brings the drained service (and TCP front) back up over the
// same store, redials the net topology's client and settles each
// shard.
func (d *driver) reopen() {
	if err := d.cl.Reopen(); err != nil {
		d.res.fail("post-drain reopen: %v", err)
		return
	}
	d.cl.checkRecovery("post-drain reopen", d.res)
	if err := d.cl.dial(); err != nil {
		d.res.fail("post-drain redial: %v", err)
		return
	}
	d.settle()
}

// endPhase quiesces the cell: settle every shard, then assert the
// replica convergence invariant and record the final digests.
func (d *driver) endPhase() {
	d.settle()
	if d.cl.topo == TopoReplica {
		d.cl.checkConverged(d.res)
	}
	if digests, err := d.cl.Svc.ShardDigests(); err != nil {
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
	d.cl.closeClient()
	cutAt := d.cl.CutPower(d.cl.now(), d.cl.rng(0x3))
	d.markTearUncertain()
	if err := d.cl.Recover(cutAt); err != nil {
		d.res.fail("final audit: %v", err)
		return
	}
	d.cl.checkRecovery("final cut-power audit", d.res)
	bad := 0
	for _, k := range d.md.sortedKeys() {
		r := d.cl.Svc.Do(shard.Op{Kind: shard.OpGet, Tenant: "t", Key: k})
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
}
