package shard

import (
	"io"
	"strconv"
	"time"

	"memsnap/internal/obs"
)

// shardFamilies are the per-shard series, one {shard="N"} sample per
// shard. Virtual-time latencies are exported in seconds.
var shardFamilies = []obs.Family[ShardStats]{
	obs.Counter("memsnap_shard_ops_total", "Operations applied by the shard worker.",
		func(st *ShardStats) int64 { return st.Ops }),
	obs.Counter("memsnap_shard_reads_total", "Read operations answered.",
		func(st *ShardStats) int64 { return st.Reads }),
	obs.Counter("memsnap_shard_writes_total", "Durably acknowledged write operations.",
		func(st *ShardStats) int64 { return st.Writes }),
	obs.Counter("memsnap_shard_commits_total", "Group commits (uCheckpoints) persisted.",
		func(st *ShardStats) int64 { return st.Commits }),
	obs.Counter("memsnap_shard_rejected_total", "Admissions refused with backpressure.",
		func(st *ShardStats) int64 { return st.Rejected }),
	obs.Gauge("memsnap_shard_batch_occupancy", "Mean write ops coalesced per group commit.",
		func(st *ShardStats) float64 { return st.BatchOccupancy }),
	obs.Gauge("memsnap_shard_queue_high_water", "Deepest request queue observed at submit.",
		func(st *ShardStats) int { return st.QueueHighWater }),
	obs.Gauge("memsnap_shard_commit_latency_seconds_mean", "Mean group-commit ack latency (virtual seconds).",
		func(st *ShardStats) time.Duration { return st.CommitHist.Mean() }),
	obs.Gauge("memsnap_shard_commit_latency_seconds_p99", "99th percentile group-commit ack latency (virtual seconds).",
		func(st *ShardStats) time.Duration { return st.CommitHist.P99() }),
	obs.Gauge("memsnap_shard_elapsed_seconds", "Worker virtual time since the service opened.",
		func(st *ShardStats) time.Duration { return st.Elapsed }),
	obs.Counter("memsnap_shard_persist_reset_seconds_total", "Cumulative Persist time spent resetting write tracking (virtual seconds).",
		func(st *ShardStats) time.Duration { return st.PersistStages.ResetTracking }),
	obs.Counter("memsnap_shard_persist_initiate_seconds_total", "Cumulative Persist time spent initiating uCheckpoint IO (virtual seconds).",
		func(st *ShardStats) time.Duration { return st.PersistStages.InitiateWrites }),
	obs.Counter("memsnap_shard_persist_waitio_seconds_total", "Cumulative Persist time spent waiting for durability (virtual seconds).",
		func(st *ShardStats) time.Duration { return st.PersistStages.WaitIO }),
	obs.Hist("memsnap_shard_commit_latency_seconds", "Group-commit ack latency histogram (virtual seconds).",
		func(st *ShardStats) *obs.HistSnapshot { return &st.CommitHist }),
	obs.Hist("memsnap_shard_persist_latency_seconds", "uCheckpoint IO latency histogram, submit to durable (virtual seconds).",
		func(st *ShardStats) *obs.HistSnapshot { return &st.PersistHist }),
}

// recorderFamilies are the trace recorder's accounting. The event ring
// is service-wide, so they are unlabeled, read off the first row.
var recorderFamilies = []obs.Family[ShardStats]{
	obs.Counter("memsnap_obs_events_recorded_total", "Trace events written into the ring recorder.",
		func(st *ShardStats) int64 { return st.Obs.Recorded }),
	obs.Counter("memsnap_obs_events_dropped_total", "Trace events offered but dropped (sampling or full ring).",
		func(st *ShardStats) int64 { return st.Obs.Dropped }),
	obs.Counter("memsnap_obs_ring_wraps_total", "Ring recorder cursor wraps (oldest events overwritten).",
		func(st *ShardStats) int64 { return st.Obs.Wraps }),
}

// formatPrometheus writes stats in the Prometheus text exposition
// format; deterministic for a given slice, so it can be golden-tested.
func formatPrometheus(w io.Writer, stats []ShardStats) error {
	key := func(st *ShardStats) string { return strconv.Itoa(st.Shard) }
	if err := obs.WriteFamilies(w, "shard", key, stats, shardFamilies); err != nil {
		return err
	}
	if len(stats) == 0 {
		return nil
	}
	return obs.WriteFamilies(w, "", nil, stats[:1], recorderFamilies)
}

// FormatPrometheus writes the service's current per-shard statistics
// to w in the Prometheus text exposition format. Safe to call while
// the service is running.
func (s *Service) FormatPrometheus(w io.Writer) error {
	return formatPrometheus(w, s.Stats())
}
