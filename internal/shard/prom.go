package shard

import (
	"fmt"
	"io"

	"memsnap/internal/obs"
)

// FormatPrometheus writes per-shard serving statistics to w in the
// Prometheus text exposition format, one {shard="N"} series per
// metric. Counters carry the _total suffix, virtual-time latencies
// are exported in seconds. The output is deterministic for a given
// stats slice, so it can be golden-tested.
func FormatPrometheus(w io.Writer, stats []ShardStats) error {
	type metric struct {
		name, help, typ string
		value           func(st *ShardStats) string
	}
	metrics := []metric{
		{"memsnap_shard_ops_total", "Operations applied by the shard worker.", "counter",
			func(st *ShardStats) string { return fmt.Sprintf("%d", st.Ops) }},
		{"memsnap_shard_reads_total", "Read operations answered.", "counter",
			func(st *ShardStats) string { return fmt.Sprintf("%d", st.Reads) }},
		{"memsnap_shard_writes_total", "Durably acknowledged write operations.", "counter",
			func(st *ShardStats) string { return fmt.Sprintf("%d", st.Writes) }},
		{"memsnap_shard_commits_total", "Group commits (uCheckpoints) persisted.", "counter",
			func(st *ShardStats) string { return fmt.Sprintf("%d", st.Commits) }},
		{"memsnap_shard_rejected_total", "Admissions refused with backpressure.", "counter",
			func(st *ShardStats) string { return fmt.Sprintf("%d", st.Rejected) }},
		{"memsnap_shard_batch_occupancy", "Mean write ops coalesced per group commit.", "gauge",
			func(st *ShardStats) string { return obs.PromFloat(st.BatchOccupancy) }},
		{"memsnap_shard_queue_high_water", "Deepest request queue observed at submit.", "gauge",
			func(st *ShardStats) string { return fmt.Sprintf("%d", st.QueueHighWater) }},
		{"memsnap_shard_commit_latency_seconds_mean", "Mean group-commit ack latency (virtual seconds).", "gauge",
			func(st *ShardStats) string { return obs.PromSeconds(st.CommitHist.Mean()) }},
		{"memsnap_shard_commit_latency_seconds_p99", "99th percentile group-commit ack latency (virtual seconds).", "gauge",
			func(st *ShardStats) string { return obs.PromSeconds(st.CommitHist.P99()) }},
		{"memsnap_shard_elapsed_seconds", "Worker virtual time since the service opened.", "gauge",
			func(st *ShardStats) string { return obs.PromSeconds(st.Elapsed) }},
		{"memsnap_shard_persist_reset_seconds_total", "Cumulative Persist time spent resetting write tracking (virtual seconds).", "counter",
			func(st *ShardStats) string { return obs.PromSeconds(st.PersistStages.ResetTracking) }},
		{"memsnap_shard_persist_initiate_seconds_total", "Cumulative Persist time spent initiating uCheckpoint IO (virtual seconds).", "counter",
			func(st *ShardStats) string { return obs.PromSeconds(st.PersistStages.InitiateWrites) }},
		{"memsnap_shard_persist_waitio_seconds_total", "Cumulative Persist time spent waiting for durability (virtual seconds).", "counter",
			func(st *ShardStats) string { return obs.PromSeconds(st.PersistStages.WaitIO) }},
	}
	for _, m := range metrics {
		if err := obs.WritePromHeader(w, m.name, m.help, m.typ); err != nil {
			return err
		}
		for i := range stats {
			st := &stats[i]
			if _, err := fmt.Fprintf(w, "%s{shard=%q} %s\n", m.name, fmt.Sprint(st.Shard), m.value(st)); err != nil {
				return err
			}
		}
	}

	// Latency histograms: proper _bucket/_sum/_count series with log2
	// le boundaries in seconds, one per shard.
	hists := []struct {
		name, help string
		snap       func(st *ShardStats) *obs.HistSnapshot
	}{
		{"memsnap_shard_commit_latency_seconds", "Group-commit ack latency histogram (virtual seconds).",
			func(st *ShardStats) *obs.HistSnapshot { return &st.CommitHist }},
		{"memsnap_shard_persist_latency_seconds", "uCheckpoint IO latency histogram, submit to durable (virtual seconds).",
			func(st *ShardStats) *obs.HistSnapshot { return &st.PersistHist }},
	}
	for _, h := range hists {
		if err := obs.WritePromHeader(w, h.name, h.help, "histogram"); err != nil {
			return err
		}
		for i := range stats {
			st := &stats[i]
			labels := fmt.Sprintf("shard=%q", fmt.Sprint(st.Shard))
			if err := h.snap(st).WriteProm(w, h.name, labels); err != nil {
				return err
			}
		}
	}

	// Trace-recorder accounting: the event ring is service-wide, so
	// these are unlabeled (taken from the first row's snapshot).
	if len(stats) > 0 {
		o := stats[0].Obs
		obsMetrics := []struct {
			name, help string
			value      int64
		}{
			{"memsnap_obs_events_recorded_total", "Trace events written into the ring recorder.", o.Recorded},
			{"memsnap_obs_events_dropped_total", "Trace events offered but dropped (sampling or full ring).", o.Dropped},
			{"memsnap_obs_ring_wraps_total", "Ring recorder cursor wraps (oldest events overwritten).", o.Wraps},
		}
		for _, m := range obsMetrics {
			if err := obs.WritePromHeader(w, m.name, m.help, "counter"); err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "%s %d\n", m.name, m.value); err != nil {
				return err
			}
		}
	}
	return nil
}

// FormatPrometheus writes the service's current per-shard statistics
// to w in the Prometheus text exposition format. Safe to call while
// the service is running.
func (s *Service) FormatPrometheus(w io.Writer) error {
	return FormatPrometheus(w, s.Stats())
}
