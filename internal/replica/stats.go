package replica

import (
	"fmt"
	"io"

	"memsnap/internal/obs"
)

// FormatPrometheus writes the shipper's per-shard replication
// counters to w in the Prometheus text exposition format, one
// {shard="N"} series per metric. Deterministic for a given state, so
// it can be golden-tested.
func (s *Shipper) FormatPrometheus(w io.Writer) error {
	stats := s.Stats()
	type metric struct {
		name, help, typ string
		value           func(st *ShardRepStats) string
	}
	metrics := []metric{
		{"memsnap_replica_shipped_total", "Delta transmissions, retransmissions included.", "counter",
			func(st *ShardRepStats) string { return fmt.Sprintf("%d", st.Shipped) }},
		{"memsnap_replica_acked_total", "Deltas confirmed by the follower.", "counter",
			func(st *ShardRepStats) string { return fmt.Sprintf("%d", st.Acked) }},
		{"memsnap_replica_duplicates_total", "Duplicate deliveries re-acked by the follower.", "counter",
			func(st *ShardRepStats) string { return fmt.Sprintf("%d", st.Duplicates) }},
		{"memsnap_replica_retries_total", "Retransmissions after a lost delta or ack.", "counter",
			func(st *ShardRepStats) string { return fmt.Sprintf("%d", st.Retries) }},
		{"memsnap_replica_lost_deltas_total", "Delta transmissions lost on the link.", "counter",
			func(st *ShardRepStats) string { return fmt.Sprintf("%d", st.LostDeltas) }},
		{"memsnap_replica_lost_acks_total", "Follower acks lost on the link.", "counter",
			func(st *ShardRepStats) string { return fmt.Sprintf("%d", st.LostAcks) }},
		{"memsnap_replica_gaps_total", "Follower gap reports.", "counter",
			func(st *ShardRepStats) string { return fmt.Sprintf("%d", st.Gaps) }},
		{"memsnap_replica_snapshots_total", "Full-region catch-up transfers.", "counter",
			func(st *ShardRepStats) string { return fmt.Sprintf("%d", st.Snapshots) }},
		{"memsnap_replica_stale_total", "Era rejections from the follower.", "counter",
			func(st *ShardRepStats) string { return fmt.Sprintf("%d", st.Stale) }},
		{"memsnap_replica_exhausted_total", "Messages abandoned after the retry budget.", "counter",
			func(st *ShardRepStats) string { return fmt.Sprintf("%d", st.Exhausted) }},
		{"memsnap_replica_unsent_total", "Deltas dropped with no follower connected.", "counter",
			func(st *ShardRepStats) string { return fmt.Sprintf("%d", st.Unsent) }},
		{"memsnap_replica_batches_total", "Coalesced multi-delta transmissions acked as a unit.", "counter",
			func(st *ShardRepStats) string { return fmt.Sprintf("%d", st.Batches) }},
		{"memsnap_replica_batched_deltas_total", "Deltas carried inside coalesced transmissions.", "counter",
			func(st *ShardRepStats) string { return fmt.Sprintf("%d", st.BatchedDeltas) }},
		{"memsnap_replica_wire_bytes_total", "Delta, batch and snapshot payload bytes put on the link, retransmissions included.", "counter",
			func(st *ShardRepStats) string { return fmt.Sprintf("%d", st.WireBytes) }},
		{"memsnap_replica_diff_saved_bytes_total", "Wire bytes avoided by sub-page delta encoding versus full-page framing.", "counter",
			func(st *ShardRepStats) string { return fmt.Sprintf("%d", st.DiffSavedBytes) }},
		{"memsnap_replica_extents_total", "Byte-range extents emitted by the sub-page encoder.", "counter",
			func(st *ShardRepStats) string { return fmt.Sprintf("%d", st.Extents) }},
		{"memsnap_replica_encode_seconds_total", "Cumulative virtual time spent encoding sub-page deltas.", "counter",
			func(st *ShardRepStats) string { return obs.PromSeconds(st.EncodeTime) }},
		{"memsnap_replica_last_acked_seq", "Highest sequence number the follower acked.", "gauge",
			func(st *ShardRepStats) string { return fmt.Sprintf("%d", st.LastAckedSeq) }},
		{"memsnap_replica_ack_latency_seconds_mean", "Mean durability-to-follower-ack latency (virtual seconds).", "gauge",
			func(st *ShardRepStats) string { return obs.PromSeconds(st.AckHist.Mean()) }},
		{"memsnap_replica_ack_latency_seconds_p99", "99th percentile durability-to-follower-ack latency (virtual seconds).", "gauge",
			func(st *ShardRepStats) string { return obs.PromSeconds(st.AckHist.P99()) }},
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
	// Replication ack latency as a proper histogram (log2 le
	// boundaries in seconds), one per shard.
	const histName = "memsnap_replica_ack_latency_seconds"
	if err := obs.WritePromHeader(w, histName, "Durability-to-follower-ack latency histogram (virtual seconds).", "histogram"); err != nil {
		return err
	}
	for i := range stats {
		st := &stats[i]
		if err := st.AckHist.WriteProm(w, histName, fmt.Sprintf("shard=%q", fmt.Sprint(st.Shard))); err != nil {
			return err
		}
	}
	return nil
}

// FormatPrometheus writes the follower's per-shard apply counters to
// w in the Prometheus text exposition format.
func (f *Follower) FormatPrometheus(w io.Writer) error {
	stats := f.Stats()
	type metric struct {
		name, help, typ string
		value           func(st *FollowerShardStats) string
	}
	metrics := []metric{
		{"memsnap_follower_applied_total", "Deltas applied in sequence order.", "counter",
			func(st *FollowerShardStats) string { return fmt.Sprintf("%d", st.Applied) }},
		{"memsnap_follower_duplicates_total", "Duplicate deltas re-acked idempotently.", "counter",
			func(st *FollowerShardStats) string { return fmt.Sprintf("%d", st.Duplicates) }},
		{"memsnap_follower_gaps_total", "Out-of-sequence deltas reported as gaps.", "counter",
			func(st *FollowerShardStats) string { return fmt.Sprintf("%d", st.Gaps) }},
		{"memsnap_follower_stale_total", "Deltas rejected from a superseded era.", "counter",
			func(st *FollowerShardStats) string { return fmt.Sprintf("%d", st.Stale) }},
		{"memsnap_follower_snapshots_total", "Full-region snapshots installed.", "counter",
			func(st *FollowerShardStats) string { return fmt.Sprintf("%d", st.Snapshots) }},
		{"memsnap_follower_batches_total", "Coalesced delta runs applied as one uCheckpoint.", "counter",
			func(st *FollowerShardStats) string { return fmt.Sprintf("%d", st.Batches) }},
		{"memsnap_follower_patched_bytes_total", "Bytes written through sub-page frames.", "counter",
			func(st *FollowerShardStats) string { return fmt.Sprintf("%d", st.PatchedBytes) }},
		{"memsnap_follower_last_seq", "Last fully applied sequence number.", "gauge",
			func(st *FollowerShardStats) string { return fmt.Sprintf("%d", st.LastSeq) }},
		{"memsnap_follower_era", "Replication era the shard follows.", "gauge",
			func(st *FollowerShardStats) string { return fmt.Sprintf("%d", st.Era) }},
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
	return nil
}
