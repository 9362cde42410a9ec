// Package obs is the observability substrate for the MemSnap
// simulation: a fixed-capacity, allocation-free span/event ring
// recorder stamped with virtual time, log2-bucketed latency
// histograms, a Chrome trace-event JSON exporter, and a minimal TCP
// front end serving Prometheus text, expvar-style JSON and trace
// drains (see server.go).
//
// Everything in this package is denominated in virtual time: call
// sites stamp events with durations read from their own sim.Clock, so
// a drained trace is deterministic for a deterministic workload and
// byte-identical across machines. The recorder itself never reads the
// wall clock (the walltime lint analyzer enforces this) and never
// allocates on the record path (a pre-sized ring of value events
// behind a plain mutex), so tracing can stay enabled on the persist
// hot path without breaking the repo's zero-allocation ceilings.
package obs

import (
	"sync"
	"time"
)

// Cat is the event category — the "cat" field of the exported trace,
// one per instrumented subsystem.
type Cat uint8

const (
	// CatVM: page-fault machinery (tracking faults, in-flight COW
	// duplications, page-ins) from internal/vm.
	CatVM Cat = iota
	// CatPersist: the uCheckpoint pipeline stages of Context.Persist
	// (reset tracking, initiate writes, wait for IO) from internal/core.
	CatPersist
	// CatShard: group-commit and queue-wait spans from internal/shard.
	CatShard
	// CatReplica: ship/retry/apply/snapshot spans from internal/replica.
	CatReplica
	// CatNet: wire-edge request spans from internal/netsvc (server conn
	// handling and client round trips of sampled requests).
	CatNet
	catCount
)

var catNames = [catCount]string{"vm", "persist", "shard", "replica", "net"}

// String returns the category's trace label.
func (c Cat) String() string {
	if int(c) < len(catNames) {
		return catNames[c]
	}
	return "unknown"
}

// Name identifies an instrumentation point. Names are a closed enum so
// recording never formats or interns strings.
type Name uint8

const (
	// NameTrackingFault: first write to a clean tracked page (no copy).
	NameTrackingFault Name = iota
	// NameCOWFault: write to a checkpoint-in-progress page (frame copy).
	NameCOWFault
	// NamePageIn: page faulted in from backing storage.
	NamePageIn
	// NamePersist: one whole Persist call (arg: pages).
	NamePersist
	// NameResetTracking: protection reset + TLB shootdown phase.
	NameResetTracking
	// NameInitiateWrites: snapshot + IO submission phase.
	NameInitiateWrites
	// NameWaitIO: durability wait (Persist MSSync tail, or Wait).
	NameWaitIO
	// NameQueueWait: submit-to-apply wait of a shard batch's first
	// request (arg: batch size).
	NameQueueWait
	// NameGroupCommit: apply-to-ack span of one shard group commit
	// (arg: write ops).
	NameGroupCommit
	// NameShip: one delta's durability-to-follower-ack round (arg: seq).
	NameShip
	// NameShipBatch: a coalesced delta run's round (arg: deltas).
	NameShipBatch
	// NameRetry: a retransmission after a lost delta or ack (arg: try).
	NameRetry
	// NameSnapshot: a full-region catch-up transfer (arg: pages).
	NameSnapshot
	// NameApply: follower applying one delta as a uCheckpoint (arg: seq).
	NameApply
	// NameApplyBatch: follower applying a coalesced run (arg: deltas).
	NameApplyBatch
	// NameEncode: sub-page delta encoding of one shipped commit
	// (arg: encoded wire bytes).
	NameEncode
	// NameNetRequest: server-side decode-to-complete span of one sampled
	// wire request (arg: frame bytes).
	NameNetRequest
	// NameClientRequest: client-side submit-to-response round trip of
	// one sampled request (arg: wire op kind).
	NameClientRequest
	nameCount
)

var nameStrings = [nameCount]string{
	"fault_track", "fault_cow", "page_in",
	"persist", "reset_tracking", "initiate_writes", "wait_io",
	"queue_wait", "group_commit",
	"ship", "ship_batch", "retry", "snapshot", "apply", "apply_batch",
	"encode",
	"net_request", "client_request",
}

// String returns the name's trace label.
func (n Name) String() string {
	if int(n) < len(nameStrings) {
		return nameStrings[n]
	}
	return "unknown"
}

// Kind selects the trace-event phase an Event exports as.
type Kind uint8

const (
	// KindSpan is a complete span: Start plus Dur ("X" phase).
	KindSpan Kind = iota
	// KindInstant is a point event at Start ("i" phase).
	KindInstant
)

// Track lanes: every event carries a track id — the "tid" of the
// exported trace. By convention shard workers (and the vm/persist
// events of their worker threads) use the shard id, replica shippers
// shard+2000, followers shard+3000, so a primary/backup pair drains
// into one trace without lane collisions.
const (
	shipTrackBase     = 2000
	followerTrackBase = 3000
	netTrackBase      = 4000
	clientTrackBase   = 5000
)

// ShardTrack returns the trace lane of a shard worker.
func ShardTrack(shard int) int32 { return int32(shard) }

// ShipTrack returns the trace lane of a shard's replication sender.
func ShipTrack(shard int) int32 { return int32(shipTrackBase + shard) }

// FollowerTrack returns the trace lane of a follower shard.
func FollowerTrack(shard int) int32 { return int32(followerTrackBase + shard) }

// NetTrack returns the trace lane of the network server's wire edge.
func NetTrack(i int) int32 { return int32(netTrackBase + i) }

// ClientTrack returns the trace lane of a tracing client.
func ClientTrack(i int) int32 { return int32(clientTrackBase + i) }

// TrackName renders a track id as the human lane label exported in
// trace thread-name metadata.
func TrackName(track int32) (string, int32) {
	switch {
	case track >= clientTrackBase:
		return "client", track - clientTrackBase
	case track >= netTrackBase:
		return "netsvc", track - netTrackBase
	case track >= followerTrackBase:
		return "follower", track - followerTrackBase
	case track >= shipTrackBase:
		return "shipper", track - shipTrackBase
	default:
		return "worker", track
	}
}

// Event is one recorded span or instant. Events are
// plain values: recording copies one into the ring, so the hot path
// performs no allocation and retains no pointers.
type Event struct {
	Kind  Kind
	Cat   Cat
	Name  Name
	Track int32
	// Start is the event's virtual timestamp; Dur is the span length
	// (zero for instants).
	Start time.Duration
	Dur   time.Duration
	// Arg is the event's one numeric payload (pages, sequence number,
	// batch size — see the Name doc comments).
	Arg int64
	// Flow is the trace id binding this span into a cross-lane request
	// flow (0: not part of a flow). WriteTrace stitches all spans
	// sharing a Flow with Chrome flow events, so one sampled request
	// reads as a single arrow-connected path across lanes.
	Flow uint64
}

// RecorderStats snapshots a recorder's accounting counters.
type RecorderStats struct {
	// Recorded counts events written into the ring.
	Recorded int64
	// Wraps counts cursor cycles around a full ring (each cycle evicts
	// the oldest events).
	Wraps int64
	// Capacity is the ring size in events.
	Capacity int
}

// Recorder is the fixed-capacity event ring. All methods are safe for
// concurrent use and safe on a nil receiver (a nil *Recorder is the
// disabled recorder: every record call is a cheap no-op), so
// instrumentation points call unconditionally.
//
// The record path takes one mutex and copies one Event value — no
// allocation, no string formatting, no wall-clock reads.
type Recorder struct {
	mu   sync.Mutex
	ring []Event
	next int // next write slot
	size int // valid events (≤ len(ring))

	recorded int64
	wraps    int64
}

// NewRecorder returns a recorder with a pre-sized ring of capacity
// events (minimum 16). A full ring overwrites its oldest events
// (counted in Wraps).
func NewRecorder(capacity int) *Recorder {
	if capacity < 16 {
		capacity = 16
	}
	return &Recorder{ring: make([]Event, capacity)}
}

// Span records a complete span.
func (r *Recorder) Span(cat Cat, name Name, track int32, start, dur time.Duration, arg int64) {
	if r == nil {
		return
	}
	r.record(Event{Kind: KindSpan, Cat: cat, Name: name, Track: track, Start: start, Dur: dur, Arg: arg})
}

// SpanFlow records a complete span bound into the cross-lane request
// flow identified by flow (a sampled request's trace id; 0 records a
// plain span). The record path is identical to Span — one mutex, one
// value copy, no allocation — so trace propagation stays safe on the
// hot paths.
//
//memsnap:hotpath
func (r *Recorder) SpanFlow(cat Cat, name Name, track int32, start, dur time.Duration, arg int64, flow uint64) {
	if r == nil {
		return
	}
	r.record(Event{Kind: KindSpan, Cat: cat, Name: name, Track: track, Start: start, Dur: dur, Arg: arg, Flow: flow})
}

// Instant records a point event.
func (r *Recorder) Instant(cat Cat, name Name, track int32, at time.Duration, arg int64) {
	if r == nil {
		return
	}
	r.record(Event{Kind: KindInstant, Cat: cat, Name: name, Track: track, Start: at, Arg: arg})
}

// Enabled reports whether the recorder records (false on nil), for
// call sites that want to skip computing expensive arguments.
func (r *Recorder) Enabled() bool { return r != nil }

func (r *Recorder) record(ev Event) {
	r.mu.Lock()
	r.ring[r.next] = ev
	r.next++
	if r.next == len(r.ring) {
		r.next = 0
		r.wraps++
	}
	if r.size < len(r.ring) {
		r.size++
	}
	r.recorded++
	r.mu.Unlock()
}

// Drain returns the ring's events oldest-first and resets it to empty:
// Peek plus a reset. Accounting counters survive the drain.
func (r *Recorder) Drain() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := r.oldestFirst()
	r.next, r.size = 0, 0
	return out
}

// Peek returns a copy of the ring's events oldest-first without
// resetting it — the flight-recorder read: a post-mortem bundle can
// snapshot the recent past while /tracez draining keeps working for
// the living. Cold path, like Drain; allocates the returned slice.
func (r *Recorder) Peek() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.oldestFirst()
}

// oldestFirst copies the size events that end at the cursor; r.mu held.
func (r *Recorder) oldestFirst() []Event {
	out := make([]Event, r.size)
	start := (r.next - r.size + len(r.ring)) % len(r.ring)
	n := copy(out, r.ring[start:])
	copy(out[n:], r.ring[:r.size-n])
	return out
}

// Stats snapshots the accounting counters.
func (r *Recorder) Stats() RecorderStats {
	if r == nil {
		return RecorderStats{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return RecorderStats{
		Recorded: r.recorded,
		Wraps:    r.wraps,
		Capacity: len(r.ring),
	}
}
