package harness

import (
	"fmt"
	"time"

	"memsnap/internal/cluster"
	"memsnap/internal/core"
	"memsnap/internal/replica"
	"memsnap/internal/shard"
)

// Replica evaluates the primary/backup epoch-shipping layer
// (internal/replica): client throughput and commit latency with
// replication enabled, across a mode (async/sync) x in-flight window
// grid, plus the shipping-side counters that show how far the backup
// trails the primary.
func Replica(opts Options) (*Result, error) {
	opts = opts.fill()
	res := &Result{
		ID:     "replica",
		Title:  "Epoch shipping: throughput and lag vs mode x window",
		Header: []string{"Mode", "Window", "Kops/s", "Commit p50 (us)", "Commit p99 (us)", "Shipped", "Acked", "Ack p99 (us)", "Max lag", "Snapshots", "Wire B/txn"},
		Notes: []string{
			"4 shards, 2 async clients per shard with 8 outstanding ops each, 75% Add / 25% Get",
			fmt.Sprintf("%d ops per client (scale %.2f); clean link at default cost model", opts.scaled(200), opts.Scale),
			"sync mode holds the client ack until the follower ack, so commit latency includes the round trip",
			"max lag is the largest (primary commit seq - follower acked seq) across shards, sampled before the final flush",
			"wire B/txn is replication link bytes per write op, with sub-page delta shipping on (the default)",
		},
	}
	for _, mode := range []replica.Mode{replica.Async, replica.Sync} {
		for _, window := range []int{4, 16} {
			row, err := replicaRun(mode, window, opts)
			if err != nil {
				return nil, err
			}
			res.Rows = append(res.Rows, row)
		}
	}
	return res, nil
}

// replicaRun serves one grid cell: a primary system replicating every
// group commit over a clean link to a follower on its own array.
func replicaRun(mode replica.Mode, window int, opts Options) ([]string, error) {
	const shards = 4
	cl, err := cluster.New(cluster.Config{
		Machine: core.Options{CPUs: shards, DiskBytesEach: 512 << 20},
		Shard:   shard.Config{Shards: shards, BatchSize: 8},
		Replica: &replica.Config{Mode: mode, Window: window},
		Link:    replica.LinkConfig{Seed: opts.Seed},
	})
	if err != nil {
		return nil, err
	}
	defer cl.Close()
	svc, ship := cl.Svc, cl.Ship
	clients, opsPer := 2*shards, opts.scaled(200)
	if err := windowedClients(svc, clients, 8, opsPer, 4, 256); err != nil {
		return nil, err
	}

	// Sample replication lag before flushing the pipeline: how far the
	// follower's acked position trails each shard's commit counter.
	var maxLag uint64
	repStats := ship.Stats()
	for i := 0; i < shards; i++ {
		meta, err := svc.ShardMeta(i)
		if err != nil {
			return nil, err
		}
		if lag := meta.Seq - repStats[i].LastAckedSeq; lag > maxLag {
			maxLag = lag
		}
	}

	st := svc.TotalStats()
	if err := svc.Close(); err != nil {
		return nil, err
	}
	ship.Flush()
	repStats = ship.Stats()
	var shipped, acked, snapshots, wireBytes int64
	var ackP99 time.Duration
	for _, rs := range repStats {
		shipped += rs.Shipped
		acked += rs.Acked
		snapshots += rs.Snapshots
		wireBytes += rs.WireBytes
		ackP99 = max(ackP99, rs.AckHist.P99())
	}
	if err := cl.Close(); err != nil {
		return nil, err
	}

	kops := 0.0
	if st.Elapsed > 0 {
		kops = float64(st.Ops) / st.Elapsed.Seconds() / 1000
	}
	modeName := "async"
	if mode == replica.Sync {
		modeName = "sync"
	}
	// 3 of every 4 client ops are writes; only those ship deltas.
	writeTxns := int64(clients) * int64(opsPer) * 3 / 4
	bytesPerTxn := 0.0
	if writeTxns > 0 {
		bytesPerTxn = float64(wireBytes) / float64(writeTxns)
	}
	return []string{
		modeName,
		fmt.Sprintf("%d", window),
		fmt.Sprintf("%.1f", kops),
		us(st.CommitHist.P50()),
		us(st.CommitHist.P99()),
		fmt.Sprintf("%d", shipped),
		fmt.Sprintf("%d", acked),
		us(ackP99),
		fmt.Sprintf("%d", maxLag),
		fmt.Sprintf("%d", snapshots),
		fmt.Sprintf("%.0f", bytesPerTxn),
	}, nil
}
