package shard

import (
	"time"

	"memsnap/internal/core"
	"memsnap/internal/obs"
	"memsnap/internal/sim"
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
	// CommitLatency summarizes per-batch latency from first apply to
	// durability (the writer-visible group-commit ack latency).
	CommitLatency sim.Summary
	// QueueHighWater is the deepest queue observed at submit time;
	// Rejected counts TryDo admissions refused with ErrBackpressure.
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
	// CommitHist is the log2-bucketed histogram of group-commit ack
	// latency (apply start to writer ack); PersistHist covers the IO
	// window (uCheckpoint submit to durable). Both are value snapshots.
	CommitHist  obs.HistSnapshot
	PersistHist obs.HistSnapshot
	// Obs snapshots the service's trace-recorder accounting (events
	// recorded / dropped / ring wraps). The recorder is service-wide,
	// so every shard row carries the same values; zero when no
	// Recorder is configured.
	Obs obs.RecorderStats
}

// Stats snapshots every shard's statistics. Safe to call while the
// service is running. retire takes statsMu on the goroutine a client
// is waiting on (its own, when it runs the shard), so the commit
// latency is summarized after the unlock: the recorder copies its
// samples under its own lock and sorts them outside it. A commit that
// retires in between shows in the summary one scrape before it shows
// in the counters.
func (s *Service) Stats() []ShardStats {
	out := make([]ShardStats, 0, len(s.shards))
	recStats := s.cfg.Recorder.Stats()
	for _, sh := range s.shards {
		sh.statsMu.Lock()
		st := ShardStats{
			Shard:             sh.id,
			Ops:               sh.ops,
			Reads:             sh.reads,
			Writes:            sh.writes,
			Commits:           sh.commits,
			LastCommitSubmit:  sh.lastSubmit,
			LastCommitDurable: sh.lastDur,
			Elapsed:           sh.ctx.Clock().Now() - sh.startedAt,
			PersistStages:     sh.stages,
			CommitHist:        sh.commitHist.Snapshot(),
			PersistHist:       sh.persistHist.Snapshot(),
			Obs:               recStats,
		}
		if sh.commits > 0 {
			st.BatchOccupancy = float64(sh.batchOps) / float64(sh.commits)
		}
		sh.statsMu.Unlock()
		st.CommitLatency = sh.commitLat.Summarize()
		st.QueueHighWater = int(sh.queueHW.Load())
		st.Rejected = sh.rejected.Load()
		out = append(out, st)
	}
	return out
}

// TotalStats aggregates shard statistics into one service-wide view:
// counters sum, latency recorders merge, occupancy averages weighted
// by commits, and Elapsed is the max across shards.
func (s *Service) TotalStats() ShardStats {
	merged := sim.NewLatencyRecorder()
	var total ShardStats
	total.Shard = -1
	for _, sh := range s.shards {
		sh.statsMu.Lock()
		total.Ops += sh.ops
		total.Reads += sh.reads
		total.Writes += sh.writes
		total.Commits += sh.commits
		total.BatchOccupancy += float64(sh.batchOps)
		merged.Merge(sh.commitLat)
		if e := sh.ctx.Clock().Now() - sh.startedAt; e > total.Elapsed {
			total.Elapsed = e
		}
		if sh.lastSubmit > total.LastCommitSubmit {
			total.LastCommitSubmit = sh.lastSubmit
		}
		if sh.lastDur > total.LastCommitDurable {
			total.LastCommitDurable = sh.lastDur
		}
		total.PersistStages.ResetTracking += sh.stages.ResetTracking
		total.PersistStages.InitiateWrites += sh.stages.InitiateWrites
		total.PersistStages.WaitIO += sh.stages.WaitIO
		sh.statsMu.Unlock()
		total.CommitHist.Merge(sh.commitHist.Snapshot())
		total.PersistHist.Merge(sh.persistHist.Snapshot())
		if hw := int(sh.queueHW.Load()); hw > total.QueueHighWater {
			total.QueueHighWater = hw
		}
		total.Rejected += sh.rejected.Load()
	}
	if total.Commits > 0 {
		total.BatchOccupancy /= float64(total.Commits)
	} else {
		total.BatchOccupancy = 0
	}
	total.CommitLatency = merged.Summarize()
	total.Obs = s.cfg.Recorder.Stats()
	return total
}
