package netsvc

import (
	"fmt"
	"io"

	"memsnap/internal/obs"
)

// FormatPrometheus writes network server statistics to w in the
// Prometheus text exposition format. Counters carry the _total suffix;
// the op latency histogram is exported in (wall) seconds with the same
// log2 le boundaries as the shard-side histograms. The output is
// deterministic for a given Stats value, so it can be golden-tested.
func FormatPrometheus(w io.Writer, st Stats) error {
	metrics := []struct {
		name, help, typ string
		value           int64
	}{
		{"memsnap_net_accepted_total", "Connections accepted by the data-plane server.", "counter", st.Accepted},
		{"memsnap_net_open_connections", "Currently open data-plane connections.", "gauge", st.OpenConns},
		{"memsnap_net_inflight_requests", "Requests admitted but not yet answered.", "gauge", st.InFlight},
		{"memsnap_net_requests_total", "Well-formed requests decoded.", "counter", st.Requests},
		{"memsnap_net_responses_total", "Responses completed.", "counter", st.Responses},
		{"memsnap_net_retry_after_total", "Responses answered RETRY_AFTER (shard backpressure on the wire).", "counter", st.RetryAfter},
		{"memsnap_net_bad_frames_total", "Protocol violations that closed a connection.", "counter", st.BadFrames},
		{"memsnap_net_bytes_in_total", "Wire bytes read, length prefixes included.", "counter", st.BytesIn},
		{"memsnap_net_bytes_out_total", "Wire bytes written, length prefixes included.", "counter", st.BytesOut},
	}
	for _, m := range metrics {
		if err := obs.WritePromHeader(w, m.name, m.help, m.typ); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s %d\n", m.name, m.value); err != nil {
			return err
		}
	}
	const histName = "memsnap_net_op_latency_seconds"
	if err := obs.WritePromHeader(w, histName, "Client-visible request latency histogram (wall seconds).", "histogram"); err != nil {
		return err
	}
	return st.OpLatency.WriteProm(w, histName, "")
}

// FormatPrometheus writes the server's current statistics to w. Safe
// to call while the server is running.
func (s *Server) FormatPrometheus(w io.Writer) error {
	return FormatPrometheus(w, s.Stats())
}
