package netsvc

import (
	"sync/atomic"

	"memsnap/internal/obs"
)

// counters is the server's live stat block. All fields are atomics:
// they are bumped from per-connection reader/writer goroutines and
// snapshotted by Stats without locks.
type counters struct {
	accepted   atomic.Int64
	openConns  atomic.Int64
	inFlight   atomic.Int64
	requests   atomic.Int64
	responses  atomic.Int64
	retryAfter atomic.Int64
	badFrames  atomic.Int64
	bytesIn    atomic.Int64
	bytesOut   atomic.Int64
}

// Stats is a point-in-time snapshot of the server's counters, exposed
// through FormatPrometheus and (as JSON) the obs server's /varz.
type Stats struct {
	// Accepted counts connections accepted since start.
	Accepted int64 `json:"accepted"`
	// OpenConns is the number of currently open connections.
	OpenConns int64 `json:"open_conns"`
	// InFlight is the number of requests admitted but not yet answered,
	// across all connections.
	InFlight int64 `json:"in_flight"`
	// Requests counts well-formed requests decoded; Responses counts
	// completions written (or discarded on a broken peer). They differ
	// only by the in-flight window.
	Requests  int64 `json:"requests"`
	Responses int64 `json:"responses"`
	// RetryAfter counts responses carrying StatusRetryAfter — shard
	// backpressure surfaced on the wire.
	RetryAfter int64 `json:"retry_after"`
	// BadFrames counts protocol violations that closed a connection
	// (malformed frames, oversized prefixes, duplicate in-flight ids).
	BadFrames int64 `json:"bad_frames"`
	// BytesIn / BytesOut are wire bytes, length prefixes included.
	BytesIn  int64 `json:"bytes_in"`
	BytesOut int64 `json:"bytes_out"`
	// OpLatency is the wall-clock request latency histogram (request
	// decoded to response encoded), including queueing and durability
	// waits inside the shard service. It marshals as its compact
	// summary (count, sum, max, quantiles), not the bucket array.
	OpLatency obs.HistSnapshot `json:"op_latency"`
}

// Stats snapshots the server counters.
func (s *Server) Stats() Stats {
	return Stats{
		Accepted:   s.st.accepted.Load(),
		OpenConns:  s.st.openConns.Load(),
		InFlight:   s.st.inFlight.Load(),
		Requests:   s.st.requests.Load(),
		Responses:  s.st.responses.Load(),
		RetryAfter: s.st.retryAfter.Load(),
		BadFrames:  s.st.badFrames.Load(),
		BytesIn:    s.st.bytesIn.Load(),
		BytesOut:   s.st.bytesOut.Load(),
		OpLatency:  s.opLatency.Snapshot(),
	}
}
