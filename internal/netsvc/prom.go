package netsvc

import (
	"io"

	"memsnap/internal/obs"
)

// netFamilies are the data-plane server's series. The op latency
// histogram is in (wall) seconds with the same log2 le edges as the
// shard-side histograms.
var netFamilies = []obs.Family[Stats]{
	obs.Counter("memsnap_net_accepted_total", "Connections accepted by the data-plane server.",
		func(st *Stats) int64 { return st.Accepted }),
	obs.Gauge("memsnap_net_open_connections", "Currently open data-plane connections.",
		func(st *Stats) int64 { return st.OpenConns }),
	obs.Gauge("memsnap_net_inflight_requests", "Requests admitted but not yet answered.",
		func(st *Stats) int64 { return st.InFlight }),
	obs.Counter("memsnap_net_requests_total", "Well-formed requests decoded.",
		func(st *Stats) int64 { return st.Requests }),
	obs.Counter("memsnap_net_responses_total", "Responses completed.",
		func(st *Stats) int64 { return st.Responses }),
	obs.Counter("memsnap_net_retry_after_total", "Responses answered RETRY_AFTER (shard backpressure on the wire).",
		func(st *Stats) int64 { return st.RetryAfter }),
	obs.Counter("memsnap_net_bad_frames_total", "Protocol violations that closed a connection.",
		func(st *Stats) int64 { return st.BadFrames }),
	obs.Counter("memsnap_net_bytes_in_total", "Wire bytes read, length prefixes included.",
		func(st *Stats) int64 { return st.BytesIn }),
	obs.Counter("memsnap_net_bytes_out_total", "Wire bytes written, length prefixes included.",
		func(st *Stats) int64 { return st.BytesOut }),
	obs.Hist("memsnap_net_op_latency_seconds", "Client-visible request latency histogram (wall seconds).",
		func(st *Stats) *obs.HistSnapshot { return &st.OpLatency }),
}

// formatPrometheus writes st in the Prometheus text exposition format;
// deterministic for a given Stats value, so it can be golden-tested.
func formatPrometheus(w io.Writer, st Stats) error {
	return obs.WriteFamilies(w, "", nil, []Stats{st}, netFamilies)
}

// FormatPrometheus writes the server's current statistics to w. Safe
// to call while the server is running.
func (s *Server) FormatPrometheus(w io.Writer) error {
	return formatPrometheus(w, s.Stats())
}
