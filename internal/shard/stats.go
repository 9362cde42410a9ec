package shard

import (
	"time"

	"memsnap/internal/core"
	"memsnap/internal/obs"
)

// ShardStats is a snapshot of one shard's serving statistics. All
// durations are virtual time.
type ShardStats struct {
	Shard int
	// Ops/Reads/Writes count applied operations (writes only count
	// successfully applied, durably acknowledged mutations).
	Ops, Reads, Writes int64
	// Commits counts group commits; BatchOccupancy is the mean number
	// of write ops coalesced per commit.
	Commits        int64
	BatchOccupancy float64
	// QueueHighWater is the deepest queue observed at submit time;
	// Rejected counts TryDoTagged admissions refused with
	// ErrBackpressure.
	QueueHighWater int
	Rejected       int64
	// Elapsed is the shard clock's virtual time since the service opened;
	// LastCommitSubmit/LastCommitDurable bracket the most recent
	// group commit's IO (used by crash-injection tests to cut power
	// mid-commit).
	Elapsed           time.Duration
	LastCommitSubmit  time.Duration
	LastCommitDurable time.Duration
	// PersistStages breaks the shard's cumulative Persist time into
	// the pipeline's stages (reset write tracking, initiate IO, wait
	// for durability), as of the last group commit.
	PersistStages core.PersistStageTotals
	// CommitHist is the histogram of group-commit ack latency (apply
	// start to writer ack, the latency a writer sees); PersistHist covers
	// the IO window (uCheckpoint submit to durable). Both are value
	// snapshots.
	CommitHist  obs.HistSnapshot
	PersistHist obs.HistSnapshot
	// Obs snapshots the service's trace-recorder accounting (events
	// recorded / dropped / ring wraps). The recorder is service-wide,
	// so every shard row carries the same values; zero when no
	// Recorder is configured.
	Obs obs.RecorderStats
}

// Stats snapshots every shard's statistics. Safe to call while the
// service is running, at a cost that does not depend on how long it has
// run. retire takes statsMu on the goroutine a client is waiting on
// (its own, when it runs the shard), so the lock covers only the plain
// counters; the histograms are lock-free and are read before it. A
// commit enters Commits when it is submitted and CommitHist when it
// retires, so on a running service CommitHist.Count may trail Commits
// by the commits in flight and never leads it; on a quiet service they
// are equal.
func (s *Service) Stats() []ShardStats {
	out := make([]ShardStats, len(s.shards))
	recStats := s.cfg.Recorder.Stats()
	for i, sh := range s.shards {
		st := &out[i]
		st.Shard, st.Obs = sh.id, recStats
		st.CommitHist, st.PersistHist = sh.commitHist.Snapshot(), sh.persistHist.Snapshot()
		sh.statsMu.Lock()
		st.Ops, st.Reads, st.Writes, st.Commits = sh.ops, sh.reads, sh.writes, sh.commits
		st.LastCommitSubmit, st.LastCommitDurable = sh.lastSubmit, sh.lastDur
		st.Elapsed = sh.ctx.Clock().Now() - sh.startedAt
		st.PersistStages = sh.stages
		if sh.commits > 0 {
			st.BatchOccupancy = float64(sh.batchOps) / float64(sh.commits)
		}
		sh.statsMu.Unlock()
		st.QueueHighWater = int(sh.queueHW.Load())
		st.Rejected = sh.rejected.Load()
	}
	return out
}

// TotalStats folds Stats into one service-wide view: counters sum,
// histograms merge, occupancy averages weighted by commits, and
// Elapsed, the last-commit times and the queue high-water mark are the
// max across shards.
func (s *Service) TotalStats() ShardStats {
	total := ShardStats{Shard: -1}
	stats := s.Stats()
	for i := range stats {
		st := &stats[i]
		total.Ops += st.Ops
		total.Reads += st.Reads
		total.Writes += st.Writes
		total.Commits += st.Commits
		total.BatchOccupancy += st.BatchOccupancy * float64(st.Commits)
		total.Rejected += st.Rejected
		total.QueueHighWater = max(total.QueueHighWater, st.QueueHighWater)
		total.Elapsed = max(total.Elapsed, st.Elapsed)
		total.LastCommitSubmit = max(total.LastCommitSubmit, st.LastCommitSubmit)
		total.LastCommitDurable = max(total.LastCommitDurable, st.LastCommitDurable)
		total.PersistStages.ResetTracking += st.PersistStages.ResetTracking
		total.PersistStages.InitiateWrites += st.PersistStages.InitiateWrites
		total.PersistStages.WaitIO += st.PersistStages.WaitIO
		total.CommitHist.Merge(st.CommitHist)
		total.PersistHist.Merge(st.PersistHist)
		total.Obs = st.Obs
	}
	if total.Commits > 0 {
		total.BatchOccupancy /= float64(total.Commits)
	}
	return total
}
