// Package replica implements primary/backup replication for the shard
// service by shipping uCheckpoint epochs.
//
// The unit of replication is the shard worker's group commit: one
// uCheckpoint whose dirty-page delta (slot pages plus the manifest
// page that numbers it) the primary captures after local durability
// and ships over a simulated Link to a Follower. The follower applies
// each delta in sequence order onto its own region — in one MSSync
// uCheckpoint per delta, so a follower region always holds a whole
// prefix of the primary's commit history and can never expose a torn
// delta — and acks with its applied position.
//
// A Shipper drives the per-shard pipeline: asynchronous by default
// (deltas queue in a bounded in-flight window behind the worker),
// synchronous on request (the worker holds client acks until the
// follower acks). Lost deltas and lost acks are retried on a timeout;
// duplicate deliveries are acked idempotently. When a follower's
// sequence gap exceeds the shipper's retained window, catch-up falls
// back to a full-region Snapshot transfer.
//
// Failover: Follower.Promote reopens the follower's regions through
// the standard shard manifest recovery path, at the last *fully
// applied* epoch, under a bumped replication era. Reconciliation: the
// demoted primary recovers its own store, rejoins as a follower, and
// the era mismatch forces a snapshot transfer that discards whatever
// it had committed beyond the new primary's history.
package replica

import (
	"errors"
	"sync"
	"sync/atomic"

	"memsnap/internal/core"
	"memsnap/internal/objstore"
)

// Errors.
var (
	// ErrLinkDown is returned when a synchronous commit (or snapshot
	// transfer) exhausted its retries without a follower ack. The
	// commit is durable locally but unconfirmed remotely.
	ErrLinkDown = errors.New("replica: follower unreachable: commit durable locally but not acknowledged")
	// ErrStale is returned when the follower rejected us as
	// superseded: it has seen a newer replication era (we are a
	// demoted primary, or it was promoted).
	ErrStale = errors.New("replica: superseded by a newer replication era")
	// ErrNotAttached is returned by operations that need a service or
	// follower endpoint that has not been attached yet, and by a Sync
	// ShipCommit after Close.
	ErrNotAttached = errors.New("replica: shipper not attached to a service and follower")
	// ErrPromoted is returned by follower operations after Promote.
	ErrPromoted = errors.New("replica: follower has been promoted")
)

// Delta is one shipped group commit (see shard.Commit): the dirty-page
// delta of a single uCheckpoint, identified by the shard, its
// replication era and the manifest commit sequence number that rides
// in one of the delta's own slot pages.
type Delta struct {
	Shard int
	Seq   uint64
	Era   uint64
	Epoch objstore.Epoch
	Pages []core.CommittedPage
	// TraceID carries the originating batch's distributed trace id
	// (0: untraced) onto the follower's apply spans.
	TraceID uint64

	// enc is the delta's sub-page wire encoding (see codec.go),
	// produced exactly once by ShipCommit and cached for the delta's
	// whole pipeline life — retransmissions, batch assembly and
	// retained-window replay all reuse these bytes, so WireSize is a
	// constant of the delta and maxBatchBytes accounting cannot drift
	// when the pre-image buffers are released after encoding. nil for
	// deltas constructed outside the Shipper (tests), which
	// ship with the legacy full-page wire size and are applied from
	// Pages directly.
	enc []byte

	// refs counts the pipeline's holders of this delta (the retained
	// replay window, a queued async job, a replay borrow); pooled marks
	// Pages as owned capture-pool pages that return to the pool when
	// the last holder releases, and recycled marks a delta ShipCommit
	// took from deltaPool, which the last holder puts back. Deltas
	// constructed outside the Shipper (tests) are never recycled: they
	// are ordinary garbage-collected values.
	refs     atomic.Int32
	pooled   bool
	recycled bool
}

// deltaPool recycles the deltas ShipCommit builds, so a replicated
// commit allocates no Delta in the steady state
// (TestShipCommitSteadyStateZeroAlloc).
var deltaPool = sync.Pool{New: func() any { return new(Delta) }}

// retain adds one pipeline reference.
func (d *Delta) retain() { d.refs.Add(1) }

// release drops one pipeline reference; the last one returns pooled
// pages to the capture pool, the cached encoding to its pool and a
// recycled delta to deltaPool. No holder touches d after its release;
// a release without a reference to drop panics.
func (d *Delta) release() {
	switch n := d.refs.Add(-1); {
	case n > 0:
		return
	case n < 0:
		panic("replica: delta released more times than it was retained")
	}
	if d.enc != nil {
		encPool.Put(d.enc)
		d.enc = nil
	}
	if d.pooled {
		core.ReleasePages(d.Pages)
		d.Pages = nil
	}
	if d.recycled {
		*d = Delta{}
		deltaPool.Put(d)
	}
}

// Wire sizes: a fixed per-message header, 8 bytes of page index plus
// the page contents per page, and a small fixed ack.
const (
	msgHeaderBytes = 32
	pageWireBytes  = 8 + core.PageSize
	ackWireBytes   = 32
)

// WireSize is the delta's size on the link in bytes: the cached
// sub-page encoding when the delta has been encoded, the legacy
// full-page framing otherwise. For an encoded delta this is a
// constant for its whole pipeline life (the encoding is never
// recomputed), so retry and batch byte accounting cannot drift.
func (d *Delta) WireSize() int {
	if d.enc != nil {
		return msgHeaderBytes + len(d.enc)
	}
	return msgHeaderBytes + len(d.Pages)*pageWireBytes
}

// runFlow is a run's flow id for its trace spans: the first member's
// non-zero trace id.
func runFlow(run []*Delta) uint64 {
	for _, d := range run {
		if d.TraceID != 0 {
			return d.TraceID
		}
	}
	return 0
}

func pagesWireSize(n int) int { return msgHeaderBytes + n*pageWireBytes }

func maxd[T ~int64](a, b T) T {
	if a > b {
		return a
	}
	return b
}
