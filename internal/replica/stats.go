package replica

import (
	"io"
	"strconv"
	"time"

	"memsnap/internal/obs"
)

// shipperFamilies are the shipper's per-shard replication series, one
// {shard="N"} sample per shard.
var shipperFamilies = []obs.Family[ShardRepStats]{
	obs.Counter("memsnap_replica_shipped_total", "Delta transmissions, retransmissions included.",
		func(st *ShardRepStats) int64 { return st.Shipped }),
	obs.Counter("memsnap_replica_acked_total", "Deltas confirmed by the follower.",
		func(st *ShardRepStats) int64 { return st.Acked }),
	obs.Counter("memsnap_replica_duplicates_total", "Duplicate deliveries re-acked by the follower.",
		func(st *ShardRepStats) int64 { return st.Duplicates }),
	obs.Counter("memsnap_replica_retries_total", "Retransmissions after a lost delta or ack.",
		func(st *ShardRepStats) int64 { return st.Retries }),
	obs.Counter("memsnap_replica_lost_deltas_total", "Delta transmissions lost on the link.",
		func(st *ShardRepStats) int64 { return st.LostDeltas }),
	obs.Counter("memsnap_replica_lost_acks_total", "Follower acks lost on the link.",
		func(st *ShardRepStats) int64 { return st.LostAcks }),
	obs.Counter("memsnap_replica_gaps_total", "Follower gap reports.",
		func(st *ShardRepStats) int64 { return st.Gaps }),
	obs.Counter("memsnap_replica_snapshots_total", "Full-region catch-up transfers.",
		func(st *ShardRepStats) int64 { return st.Snapshots }),
	obs.Counter("memsnap_replica_stale_total", "Era rejections from the follower.",
		func(st *ShardRepStats) int64 { return st.Stale }),
	obs.Counter("memsnap_replica_exhausted_total", "Messages abandoned after the retry budget.",
		func(st *ShardRepStats) int64 { return st.Exhausted }),
	obs.Counter("memsnap_replica_unsent_total", "Deltas dropped with no follower connected.",
		func(st *ShardRepStats) int64 { return st.Unsent }),
	obs.Counter("memsnap_replica_batches_total", "Coalesced multi-delta transmissions acked as a unit.",
		func(st *ShardRepStats) int64 { return st.Batches }),
	obs.Counter("memsnap_replica_batched_deltas_total", "Deltas carried inside coalesced transmissions.",
		func(st *ShardRepStats) int64 { return st.BatchedDeltas }),
	obs.Counter("memsnap_replica_wire_bytes_total", "Delta, batch and snapshot payload bytes put on the link, retransmissions included.",
		func(st *ShardRepStats) int64 { return st.WireBytes }),
	obs.Counter("memsnap_replica_diff_saved_bytes_total", "Wire bytes avoided by sub-page delta encoding versus full-page framing.",
		func(st *ShardRepStats) int64 { return st.DiffSavedBytes }),
	obs.Counter("memsnap_replica_extents_total", "Byte-range extents emitted by the sub-page encoder.",
		func(st *ShardRepStats) int64 { return st.Extents }),
	obs.Counter("memsnap_replica_encode_seconds_total", "Cumulative virtual time spent encoding sub-page deltas.",
		func(st *ShardRepStats) time.Duration { return st.EncodeTime }),
	obs.Gauge("memsnap_replica_last_acked_seq", "Highest sequence number the follower acked.",
		func(st *ShardRepStats) uint64 { return st.LastAckedSeq }),
	obs.Gauge("memsnap_replica_ack_latency_seconds_mean", "Mean durability-to-follower-ack latency (virtual seconds).",
		func(st *ShardRepStats) time.Duration { return st.AckHist.Mean() }),
	obs.Gauge("memsnap_replica_ack_latency_seconds_p99", "99th percentile durability-to-follower-ack latency (virtual seconds).",
		func(st *ShardRepStats) time.Duration { return st.AckHist.P99() }),
	obs.Hist("memsnap_replica_ack_latency_seconds", "Durability-to-follower-ack latency histogram (virtual seconds).",
		func(st *ShardRepStats) *obs.HistSnapshot { return &st.AckHist }),
}

// followerFamilies are the follower's per-shard apply series.
var followerFamilies = []obs.Family[FollowerShardStats]{
	obs.Counter("memsnap_follower_applied_total", "Deltas applied in sequence order.",
		func(st *FollowerShardStats) int64 { return st.Applied }),
	obs.Counter("memsnap_follower_duplicates_total", "Duplicate deltas re-acked idempotently.",
		func(st *FollowerShardStats) int64 { return st.Duplicates }),
	obs.Counter("memsnap_follower_gaps_total", "Out-of-sequence deltas reported as gaps.",
		func(st *FollowerShardStats) int64 { return st.Gaps }),
	obs.Counter("memsnap_follower_stale_total", "Deltas rejected from a superseded era.",
		func(st *FollowerShardStats) int64 { return st.Stale }),
	obs.Counter("memsnap_follower_snapshots_total", "Full-region snapshots installed.",
		func(st *FollowerShardStats) int64 { return st.Snapshots }),
	obs.Counter("memsnap_follower_batches_total", "Coalesced delta runs applied as one uCheckpoint.",
		func(st *FollowerShardStats) int64 { return st.Batches }),
	obs.Counter("memsnap_follower_patched_bytes_total", "Bytes written through sub-page frames.",
		func(st *FollowerShardStats) int64 { return st.PatchedBytes }),
	obs.Gauge("memsnap_follower_last_seq", "Last fully applied sequence number.",
		func(st *FollowerShardStats) uint64 { return st.LastSeq }),
	obs.Gauge("memsnap_follower_era", "Replication era the shard follows.",
		func(st *FollowerShardStats) uint64 { return st.Era }),
}

// FormatPrometheus writes the shipper's per-shard replication
// statistics to w in the Prometheus text exposition format.
// Deterministic for a given state, so it can be golden-tested.
func (s *Shipper) FormatPrometheus(w io.Writer) error {
	return obs.WriteFamilies(w, "shard", func(st *ShardRepStats) string { return strconv.Itoa(st.Shard) },
		s.Stats(), shipperFamilies)
}

// FormatPrometheus writes the follower's per-shard apply statistics to
// w in the Prometheus text exposition format.
func (f *Follower) FormatPrometheus(w io.Writer) error {
	return obs.WriteFamilies(w, "shard", func(st *FollowerShardStats) string { return strconv.Itoa(st.Shard) },
		f.Stats(), followerFamilies)
}
