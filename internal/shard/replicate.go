package shard

import (
	"time"

	"memsnap/internal/core"
	"memsnap/internal/objstore"
)

// Commit is one group commit's replication payload: the dirty-page
// delta of a single uCheckpoint, captured after it became locally
// durable. Seq is the manifest group-commit counter — because every
// commit writes a manifest copy into a slot page it dirtied, Seq is
// stored inside one of Pages and is therefore durable and atomic with
// the data it numbers, on the primary and on every follower that
// applies the delta.
type Commit struct {
	Seq   uint64
	Era   uint64
	Epoch objstore.Epoch
	Pages []core.CommittedPage
	// Owned marks Pages as capture-pool pages whose ownership passes
	// to the Replicator, which must release them (core.ReleasePages)
	// once the commit is fully shipped. Commits built from plain
	// slices leave it unset.
	Owned bool
	// TraceID carries the distributed trace id of the batch's sampled
	// request (0: untraced) onto replication ship/apply spans.
	TraceID uint64
}

// Snapshot is a full copy of one shard region at a replication
// position, used for catch-up transfers when a follower's delta gap
// exceeds the retained window. Pages holds every page of the region
// in index order.
type Snapshot struct {
	Shard int
	Seq   uint64
	Era   uint64
	Pages []core.CommittedPage
}

// Meta is a shard's current replication position.
type Meta struct {
	Seq uint64
	Era uint64
}

// Replicator receives every group commit after it is locally durable.
// Whoever is running the shard — its worker, or a blocking caller that
// found it idle — calls ShipCommit from its own goroutine, holding the
// shard's execution lock, at virtual time at (the local durability
// time), and advances the shard clock to the returned time before
// acknowledging the batch's writers. Calls for one shard never overlap,
// and ShipCommit must not wait for an op on that shard (nobody else can
// run it meanwhile); snap is the way to read the shard from inside. A
// synchronous replicator thus holds client acks until the follower
// acks, while an asynchronous one returns at unchanged. A non-nil
// error is propagated into every write response of the batch: the
// writes are durable locally but their replication could not be
// confirmed. snap reads a full region snapshot on the calling
// goroutine, serialized with the commit; it must only be invoked
// during the ShipCommit call.
type Replicator interface {
	ShipCommit(shard int, at time.Duration, c Commit, snap func() Snapshot) (time.Duration, error)
}

// snapshot copies the shard's full region. Confined to the execution
// lock's holder: all reads go through the shard context, and the copy
// cost lands on the shard clock.
func (sh *shard) snapshot() Snapshot {
	pages := sh.region.Len() / core.PageSize
	snap := Snapshot{
		Shard: sh.id,
		Seq:   sh.tab.man.commits,
		Era:   sh.tab.man.era,
		Pages: make([]core.CommittedPage, 0, pages),
	}
	for i := int64(0); i < pages; i++ {
		pg := sh.ctx.PageForRead(sh.region, i*core.PageSize)
		data := make([]byte, len(pg))
		copy(data, pg)
		snap.Pages = append(snap.Pages, core.CommittedPage{Index: i, Data: data})
	}
	sh.ctx.Clock().Advance(sh.svc.sys.Costs().MemcpyCost(int(pages) * core.PageSize))
	return snap
}

// ShardSnapshot copies one shard's full region, serialized with
// in-flight applies — the source of a replication catch-up transfer.
func (s *Service) ShardSnapshot(shard int) (*Snapshot, error) {
	resp, err := s.probe(s.shards[shard], opSnapshot)
	if err != nil {
		return nil, err
	}
	return resp.snap, nil
}

// ShardMeta reads one shard's replication position, serialized with
// in-flight applies.
func (s *Service) ShardMeta(shard int) (Meta, error) {
	resp, err := s.probe(s.shards[shard], opMeta)
	if err != nil {
		return Meta{}, err
	}
	return Meta{Seq: resp.snap.Seq, Era: resp.snap.Era}, nil
}

// ShardDigests computes every shard's page-level region digest,
// serialized with in-flight applies (see DigestRegion).
func (s *Service) ShardDigests() ([]uint64, error) {
	out := make([]uint64, len(s.shards))
	for i, sh := range s.shards {
		resp, err := s.probe(sh, opDigest)
		if err != nil {
			return nil, err
		}
		out[i] = resp.Value
	}
	return out, nil
}
