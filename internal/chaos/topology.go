package chaos

import (
	"fmt"
	"time"

	"memsnap/internal/core"
	"memsnap/internal/disk"
	"memsnap/internal/netsvc"
	"memsnap/internal/obs"
	"memsnap/internal/proto"
	"memsnap/internal/replica"
	"memsnap/internal/shard"
	"memsnap/internal/sim"
)

// cluster is one cell's live system: the primary machine and service,
// plus the follower pair (replica topology) or the TCP front end (net
// topology).
type cluster struct {
	topo        Topology
	seed        uint64
	shards      int
	regionBytes int64
	batch       int
	sysOpts     core.Options

	sys *core.System
	svc *shard.Service
	// machines lists every system the cell booted, current or
	// replaced by a recovery, for the end-of-cell frame audit.
	machines []*core.System

	// rec is the cell's flight-recorder ring, shared by every lane the
	// topology has (shard workers, shipper, follower, net edge) so a
	// failing cell's bundle holds the whole recent cross-lane history.
	rec *obs.Recorder

	// Replica topology.
	folSys *core.System
	fol    *replica.Follower
	link   *replica.Link
	ship   *replica.Shipper

	// Net topology.
	srv *netsvc.Server
	cli *netsvc.Client

	// outageEnd is the latest pre-installed link-outage end; fault
	// handlers that need the link up (reconcile after failover) start
	// no earlier than this.
	outageEnd time.Duration

	recoveries int
	nextReqID  uint64
}

// shardConfig builds the service config shared by every (re)open.
func (cl *cluster) shardConfig(startAt time.Duration) shard.Config {
	cfg := shard.Config{
		Shards:      cl.shards,
		RegionBytes: cl.regionBytes,
		BatchSize:   cl.batch,
		StartAt:     startAt,
		Recorder:    cl.rec,
	}
	if cl.ship != nil {
		cfg.Replicator = cl.ship
	}
	return cfg
}

// buildCluster boots the cell's topology from scratch.
func buildCluster(cell Cell, shards int, regionBytes int64) (*cluster, error) {
	cl := &cluster{
		topo:        cell.Topology,
		seed:        cell.Seed,
		shards:      shards,
		regionBytes: regionBytes,
		batch:       4,
		sysOpts:     core.Options{CPUs: shards, Disks: 2, DiskBytesEach: 64 << 20},
		rec:         obs.NewRecorder(flightRingEvents),
	}
	var err error
	if cl.sys, err = cl.boot(); err != nil {
		return nil, err
	}
	if cell.Topology == TopoReplica {
		if cl.folSys, err = cl.boot(); err != nil {
			return nil, err
		}
		cl.link = replica.NewLink(replica.LinkConfig{Seed: cell.Seed})
		cl.fol, err = replica.NewFollower(cl.folSys, replica.FollowerConfig{
			Shards: shards, RegionBytes: regionBytes, Recorder: cl.rec,
		})
		if err != nil {
			return nil, err
		}
		cl.ship = replica.NewShipper(cl.link, cl.fol, shards, replica.Config{Mode: replica.Sync, Recorder: cl.rec})
	}
	if cl.svc, err = shard.New(cl.sys, cl.shardConfig(0)); err != nil {
		return nil, err
	}
	if cl.ship != nil {
		cl.ship.Attach(cl.svc)
	}
	if cell.Topology == TopoNet {
		if cl.srv, err = netsvc.Serve("127.0.0.1:0", cl.svc, netsvc.Config{Recorder: cl.rec}); err != nil {
			return nil, err
		}
		if cl.cli, err = netsvc.Dial(cl.srv.Addr(), 8); err != nil {
			return nil, err
		}
	}
	return cl, nil
}

// boot formats a fresh machine and records it for the frame audit.
func (cl *cluster) boot() (*core.System, error) {
	sys, err := core.NewSystem(cl.sysOpts)
	if err == nil {
		cl.machines = append(cl.machines, sys)
	}
	return sys, err
}

// reboot recovers a machine over arr after a power cut at cutAt and
// records it for the frame audit.
func (cl *cluster) reboot(arr *disk.Array, cutAt time.Duration) (*core.System, time.Duration, error) {
	sys, doneAt, err := core.Recover(cl.sysOpts, arr, cutAt)
	if err == nil {
		cl.machines = append(cl.machines, sys)
	}
	return sys, doneAt, err
}

// now is the cell's virtual clock: the primary's latest worker time.
func (cl *cluster) now() time.Duration { return cl.svc.EndTime() }

// rng derives a deterministic per-purpose RNG from the cell seed.
func (cl *cluster) rng(salt uint64) *sim.RNG {
	return sim.NewRNG(cl.seed*0x9e3779b97f4a7c15 + salt)
}

// do runs one synchronous operation through the topology's client
// path: directly against the service, or over TCP on the net
// topology.
func (cl *cluster) do(op shard.Op) shard.Response {
	if cl.topo != TopoNet {
		return cl.svc.Do(op)
	}
	cl.nextReqID++
	q := proto.Request{
		ID:     cl.nextReqID,
		Tenant: []byte(op.Tenant),
		Key:    []byte(op.Key),
		Value:  op.Value,
	}
	switch op.Kind {
	case shard.OpGet:
		q.Kind = proto.KindGet
	case shard.OpPut:
		q.Kind = proto.KindPut
	case shard.OpAdd:
		q.Kind = proto.KindAdd
	case shard.OpDelete:
		q.Kind = proto.KindDelete
	default:
		return shard.Response{Err: fmt.Errorf("chaos: op kind %v not mapped onto the wire", op.Kind)}
	}
	p, err := cl.cli.Do(&q)
	if err != nil {
		return shard.Response{Err: err}
	}
	r := shard.Response{Value: p.Value, Found: p.Found}
	if p.Status != proto.StatusOK {
		r.Err = fmt.Errorf("chaos: wire status %v", p.Status)
	}
	return r
}

// cutPrimary cuts the primary array inside (or after) its final
// commit's IO window and returns the cut instant.
func (cl *cluster) cutPrimary(at time.Duration, salt uint64) time.Duration {
	cutAt := at
	for _, st := range cl.svc.Stats() {
		if t := st.LastCommitSubmit + time.Nanosecond; t > cutAt {
			cutAt = t
		}
	}
	cl.sys.Array().CutPower(cutAt, cl.rng(salt))
	return cutAt
}

// recoverPrimary boots a fresh service over the primary's (possibly
// torn) array and swaps it in, recording recovery-consistency
// violations on res.
func (cl *cluster) recoverPrimary(cutAt time.Duration, res *CellResult) error {
	sys2, doneAt, err := cl.reboot(cl.sys.Array(), cutAt)
	if err != nil {
		return fmt.Errorf("recover primary: %w", err)
	}
	svc2, err := shard.New(sys2, cl.shardConfig(doneAt))
	if err != nil {
		return fmt.Errorf("reopen primary: %w", err)
	}
	checkRecovery(svc2, "primary power-cut recovery", res)
	if cl.ship != nil {
		cl.ship.Attach(svc2)
	}
	cl.sys, cl.svc = sys2, svc2
	cl.recoveries++
	return nil
}

// checkRecovery asserts the cell's crash-consistency invariant: every
// shard reopened an existing region whose manifest-committed counters
// match a full rescan of its data.
func checkRecovery(svc *shard.Service, what string, res *CellResult) {
	for _, rec := range svc.Recovery() {
		if !rec.Existing {
			res.fail("%s: shard %d reopened as freshly formatted, not from its manifest", what, rec.Shard)
		}
		if !rec.Consistent() {
			res.fail("%s: shard %d manifest/scan mismatch: records %d/%d sum %d/%d (epoch %d)",
				what, rec.Shard, rec.Records, rec.ScanRecords, rec.ValueSum, rec.ScanSum, rec.Epoch)
		}
	}
}

// failover implements FaultPowerCut on the replica topology: close
// and cut the primary mid-commit, promote the follower through
// manifest recovery, then recover the torn ex-primary and rejoin it
// as the new follower, reconciling away its divergent epochs.
func (cl *cluster) failover(ev Event, res *CellResult) error {
	if err := cl.svc.Close(); err != nil {
		res.fail("failover: close primary: %v", err)
	}
	cutAt := cl.cutPrimary(ev.At, 0x1)
	cl.ship.Close()

	ship2 := replica.NewShipper(cl.link, nil, cl.shards, replica.Config{Mode: replica.Sync, Recorder: cl.rec})
	svc2, err := cl.fol.Promote(shard.Config{BatchSize: cl.batch, Replicator: ship2, Recorder: cl.rec})
	if err != nil {
		return fmt.Errorf("promote follower: %w", err)
	}
	ship2.Attach(svc2)
	checkRecovery(svc2, "promotion recovery", res)
	for _, rec := range svc2.Recovery() {
		if rec.Era == 0 {
			res.fail("promotion recovery: shard %d did not bump the replication era", rec.Shard)
		}
	}

	// The torn ex-primary rejoins as the new follower.
	exSys, doneAt, err := cl.reboot(cl.sys.Array(), cutAt)
	if err != nil {
		return fmt.Errorf("recover ex-primary: %w", err)
	}
	fol2, err := replica.NewFollower(exSys, replica.FollowerConfig{
		Shards: cl.shards, RegionBytes: cl.regionBytes, StartAt: doneAt, Recorder: cl.rec,
	})
	if err != nil {
		return fmt.Errorf("rejoin ex-primary: %w", err)
	}
	ship2.Connect(fol2)

	// Reconcile once the link is guaranteed back up (an outage window
	// may legally cover the cut instant — the cutrace schedule).
	recAt := svc2.EndTime()
	if doneAt > recAt {
		recAt = doneAt
	}
	if cl.outageEnd > recAt {
		recAt = cl.outageEnd
	}
	if err := ship2.Reconcile(recAt + time.Millisecond); err != nil {
		res.fail("reconcile ex-primary after failover: %v", err)
	}

	cl.sys, cl.folSys = cl.folSys, exSys
	cl.svc, cl.fol, cl.ship = svc2, fol2, ship2
	cl.recoveries++
	return nil
}

// crashFollower implements FaultFollowerCrash: cut the follower's
// array one nanosecond before its last applied delta became durable —
// tearing the tail of its most recent µCheckpoint — rebuild a
// follower over the recovered store, and reconnect it. The next
// shipped commit sees the seq gap and drives replay or snapshot
// catch-up.
func (cl *cluster) crashFollower(res *CellResult) error {
	cutAt := cl.fol.EndTime()
	if cutAt > 0 {
		cutAt -= time.Nanosecond
	}
	cl.folSys.Array().CutPower(cutAt, cl.rng(0x2))
	sys2, doneAt, err := cl.reboot(cl.folSys.Array(), cutAt)
	if err != nil {
		return fmt.Errorf("recover follower: %w", err)
	}
	fol2, err := replica.NewFollower(sys2, replica.FollowerConfig{
		Shards: cl.shards, RegionBytes: cl.regionBytes, StartAt: doneAt, Recorder: cl.rec,
	})
	if err != nil {
		return fmt.Errorf("rebuild follower: %w", err)
	}
	// Prefix invariant: a recovered follower can be behind the
	// primary, never ahead (deltas ship only after local durability).
	for sh := 0; sh < cl.shards; sh++ {
		fseq, _ := fol2.LastApplied(sh)
		meta, err := cl.svc.ShardMeta(sh)
		if err != nil {
			return fmt.Errorf("shard %d meta: %w", sh, err)
		}
		if fseq > meta.Seq {
			res.fail("follower crash recovery: shard %d follower seq %d ahead of primary %d",
				sh, fseq, meta.Seq)
		}
	}
	cl.ship.Connect(fol2)
	cl.folSys, cl.fol = sys2, fol2
	cl.recoveries++
	return nil
}

// checkConverged asserts the byte-identical-prefix invariant at a
// quiesced instant: the follower's per-shard digests, sums, and
// replication positions equal the primary's exactly.
func (cl *cluster) checkConverged(res *CellResult) {
	pd, err := cl.svc.ShardDigests()
	if err != nil {
		res.fail("primary digests: %v", err)
		return
	}
	ps, err := cl.svc.ShardSums()
	if err != nil {
		res.fail("primary sums: %v", err)
		return
	}
	fd, fs := cl.fol.Digests(), cl.fol.Sums()
	for sh := 0; sh < cl.shards; sh++ {
		if fd[sh] != pd[sh] {
			res.fail("convergence: shard %d digest %#x != primary %#x", sh, fd[sh], pd[sh])
		}
		if fs[sh] != ps[sh] {
			res.fail("convergence: shard %d sum %d != primary %d", sh, fs[sh], ps[sh])
		}
		meta, err := cl.svc.ShardMeta(sh)
		if err != nil {
			res.fail("shard %d meta: %v", sh, err)
			continue
		}
		fseq, fera := cl.fol.LastApplied(sh)
		if fseq != meta.Seq || fera != meta.Era {
			res.fail("convergence: shard %d follower at (seq %d, era %d), primary at (seq %d, era %d)",
				sh, fseq, fera, meta.Seq, meta.Era)
		}
	}
}

// teardown closes whatever is still open, tolerating half-built
// clusters.
func (cl *cluster) teardown() {
	if cl.cli != nil {
		cl.cli.Close()
	}
	if cl.srv != nil {
		cl.srv.Close()
	}
	if cl.svc != nil {
		cl.svc.Close()
	}
	if cl.ship != nil {
		cl.ship.Close()
	}
}
