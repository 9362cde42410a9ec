package chaos

import (
	"fmt"
	"time"

	"memsnap/internal/cluster"
	"memsnap/internal/core"
	"memsnap/internal/netsvc"
	"memsnap/internal/obs"
	"memsnap/internal/proto"
	"memsnap/internal/replica"
	"memsnap/internal/shard"
	"memsnap/internal/sim"
)

// rig is one cell's live system: the cluster its topology assembles,
// plus the client path the driver sends ops through.
type rig struct {
	*cluster.Cluster
	topo   Topology
	seed   uint64
	shards int

	// rec is the cell's flight-recorder ring, shared by every lane the
	// topology has (shard workers, shipper, follower, net edge) so a
	// failing cell's bundle holds the whole recent cross-lane history.
	rec *obs.Recorder
	// cli is the net topology's client.
	cli *netsvc.Client

	// outageEnd is the latest pre-installed link-outage end; fault
	// handlers that need the link up (reconcile after failover) start
	// no earlier than this.
	outageEnd time.Duration

	recoveries int
	nextReqID  uint64
}

// buildRig boots the cell's topology from scratch.
func buildRig(cell Cell, shards int, regionBytes int64) (*rig, error) {
	r := &rig{topo: cell.Topology, seed: cell.Seed, shards: shards, rec: obs.NewRecorder(flightRingEvents)}
	cfg := cluster.Config{
		Machine: core.Options{CPUs: shards, Disks: 2, DiskBytesEach: 64 << 20},
		Shard:   shard.Config{Shards: shards, RegionBytes: regionBytes, BatchSize: 4, Recorder: r.rec},
	}
	switch cell.Topology {
	case TopoReplica:
		cfg.Replica = &replica.Config{Mode: replica.Sync}
		cfg.Link = replica.LinkConfig{Seed: cell.Seed}
	case TopoNet:
		cfg.Listen = "127.0.0.1:0"
	}
	var err error
	if r.Cluster, err = cluster.New(cfg); err != nil {
		return nil, err
	}
	if err := r.dial(); err != nil {
		r.teardown()
		return nil, err
	}
	return r, nil
}

// dial connects the net topology's client to the current server.
func (r *rig) dial() error {
	if r.Srv == nil {
		return nil
	}
	var err error
	r.cli, err = netsvc.Dial(r.Srv.Addr(), 8)
	return err
}

// now is the cell's virtual clock: the primary's latest worker time.
func (r *rig) now() time.Duration { return r.Svc.EndTime() }

// rng derives a deterministic per-purpose RNG from the cell seed.
func (r *rig) rng(salt uint64) *sim.RNG {
	return sim.NewRNG(r.seed*0x9e3779b97f4a7c15 + salt)
}

// do runs one synchronous operation through the topology's client
// path: directly against the service, or over TCP on the net
// topology.
func (r *rig) do(op shard.Op) shard.Response {
	if r.cli == nil {
		return r.Svc.Do(op)
	}
	r.nextReqID++
	q := proto.Request{
		ID:     r.nextReqID,
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
	p, err := r.cli.Do(&q)
	if err != nil {
		return shard.Response{Err: err}
	}
	resp := shard.Response{Value: p.Value, Found: p.Found}
	if p.Status != proto.StatusOK {
		resp.Err = fmt.Errorf("chaos: wire status %v", p.Status)
	}
	return resp
}

// closeClient closes the net topology's client, if one is open.
func (r *rig) closeClient() {
	if r.cli != nil {
		r.cli.Close()
		r.cli = nil
	}
}

// checkRecovery asserts the cell's crash-consistency invariant on the
// service the cluster just (re)opened: every shard reopened an existing
// region whose manifest-committed counters match a full rescan of its
// data. It counts the recovery.
func (r *rig) checkRecovery(what string, res *CellResult) {
	r.recoveries++
	for _, rec := range r.Svc.Recovery() {
		if !rec.Existing {
			res.fail("%s: shard %d reopened as freshly formatted, not from its manifest", what, rec.Shard)
		}
		if !rec.Consistent() {
			res.fail("%s: shard %d manifest/scan mismatch: records %d/%d sum %d/%d (epoch %d)",
				what, rec.Shard, rec.Records, rec.ScanRecords, rec.ValueSum, rec.ScanSum, rec.Epoch)
		}
	}
}

// checkFollowerBehind asserts the prefix invariant after a follower
// crash: a recovered follower can be behind the primary, never ahead
// (deltas ship only after local durability).
func (r *rig) checkFollowerBehind(res *CellResult) {
	for sh := 0; sh < r.shards; sh++ {
		fseq, _ := r.Fol.LastApplied(sh)
		meta, err := r.Svc.ShardMeta(sh)
		if err != nil {
			res.fail("follower crash recovery: shard %d meta: %v", sh, err)
			continue
		}
		if fseq > meta.Seq {
			res.fail("follower crash recovery: shard %d follower seq %d ahead of primary %d",
				sh, fseq, meta.Seq)
		}
	}
}

// checkConverged asserts the byte-identical-prefix invariant at a
// quiesced instant: the follower's per-shard digests, sums, and
// replication positions equal the primary's exactly.
func (r *rig) checkConverged(res *CellResult) {
	pd, err := r.Svc.ShardDigests()
	if err != nil {
		res.fail("primary digests: %v", err)
		return
	}
	ps, err := r.Svc.ShardSums()
	if err != nil {
		res.fail("primary sums: %v", err)
		return
	}
	fd, fs := r.Fol.Digests(), r.Fol.Sums()
	for sh := range pd {
		if fd[sh] != pd[sh] {
			res.fail("convergence: shard %d digest %#x != primary %#x", sh, fd[sh], pd[sh])
		}
		if fs[sh] != ps[sh] {
			res.fail("convergence: shard %d sum %d != primary %d", sh, fs[sh], ps[sh])
		}
		meta, err := r.Svc.ShardMeta(sh)
		if err != nil {
			res.fail("shard %d meta: %v", sh, err)
			continue
		}
		fseq, fera := r.Fol.LastApplied(sh)
		if fseq != meta.Seq || fera != meta.Era {
			res.fail("convergence: shard %d follower at (seq %d, era %d), primary at (seq %d, era %d)",
				sh, fseq, fera, meta.Seq, meta.Era)
		}
	}
}

// teardown closes the client and the cluster.
func (r *rig) teardown() {
	r.closeClient()
	r.Close()
}
