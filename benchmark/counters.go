package main

import (
	"runtime"
	"time"

	"memsnap/internal/core"
	"memsnap/internal/disk"
	"memsnap/internal/mem"
	"memsnap/internal/netsvc"
	"memsnap/internal/obs"
	"memsnap/internal/replica"
	"memsnap/internal/shard"
	"memsnap/internal/vm"
)

// counters is one reading of every layer's existing statistics, taken
// through public Stats() calls only. A workload fills the parts its
// layers have and leaves the rest zero; metrics are deltas between the
// reading before and after the measured phase, so a layer a workload
// does not run reads zero.
type counters struct {
	// Process-wide: client and server share the process.
	mallocs uint64
	heap    uint64 // HeapAlloc after a forced GC
	io      procIO

	disk disk.Stats
	mem  mem.Stats
	// virt is the summed advance of every serving clock (shard workers,
	// or the one context of persist_64k); end is the latest of them.
	virt time.Duration
	end  time.Duration

	shard         shardTotals
	net           netsvc.Stats
	clientRetries int64

	vm           vm.FaultStats
	stages       core.PersistStageTotals // persist_64k's own context
	persists     int64
	persistTotal time.Duration // sum of its PersistBreakdown.Total

	rep replica.ShardRepStats
	fol replica.FollowerShardStats
}

// shardTotals sums shard.Service.Stats() across shards. Only counters
// and histogram Sum/Count are read: sim.Summary percentiles and log2
// quantiles are slated to go (ROADMAP item 3).
type shardTotals struct {
	ops, writes, commits, rejected int64
	commit, persist                obs.HistSnapshot
	stages                         core.PersistStageTotals
	queueHW                        int
	statsCall                      time.Duration // host time of the Stats() call itself
}

func readShard(svc *shard.Service, c *counters) {
	start := time.Now()                   //lint:allow walltime shard.stats_call_us is the host cost of Stats()
	stats := svc.Stats()                  // sorts every shard's sample slice under statsMu today
	c.shard.statsCall = time.Since(start) //lint:allow walltime shard.stats_call_us is the host cost of Stats()
	for _, st := range stats {
		c.shard.ops += st.Ops
		c.shard.writes += st.Writes
		c.shard.commits += st.Commits
		c.shard.rejected += st.Rejected
		c.shard.commit.Merge(st.CommitHist)
		c.shard.persist.Merge(st.PersistHist)
		c.shard.stages.ResetTracking += st.PersistStages.ResetTracking
		c.shard.stages.InitiateWrites += st.PersistStages.InitiateWrites
		c.shard.stages.WaitIO += st.PersistStages.WaitIO
		c.shard.queueHW = max(c.shard.queueHW, st.QueueHighWater)
		c.virt += st.Elapsed
		c.end = max(c.end, st.Elapsed)
	}
}

func readReplica(ship *replica.Shipper, fol *replica.Follower, c *counters) {
	for _, st := range ship.Stats() {
		c.rep.Shipped += st.Shipped
		c.rep.Retries += st.Retries
		c.rep.Snapshots += st.Snapshots
		c.rep.WireBytes += st.WireBytes
		c.rep.DiffSavedBytes += st.DiffSavedBytes
		c.rep.Extents += st.Extents
		c.rep.EncodeTime += st.EncodeTime
		c.rep.AckHist.Merge(st.AckHist)
	}
	for _, st := range fol.Stats() {
		c.fol.PatchedBytes += st.PatchedBytes
		c.fol.Snapshots += st.Snapshots
	}
}

// readProcess fills the process-wide part. It forces a GC so heap is
// live bytes, not live plus garbage; call it outside the measured
// phase.
func readProcess(c *counters) {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.mallocs = ms.Mallocs
	c.heap = ms.HeapAlloc
	c.io = readProcIO()
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }

// histMeanUs is the mean of the samples a histogram gained between two
// snapshots, in microseconds.
func histMeanUs(a, b obs.HistSnapshot) float64 {
	return ratio(us(b.Sum-a.Sum), float64(b.Count-a.Count))
}

// countMetrics derives every counter-based metric from the readings
// around a measured phase of ops operations, writes of them
// acknowledged adds.
func countMetrics(a, b *counters, ops, writes int64, out map[string]float64) {
	n, w, kops := float64(ops), float64(writes), float64(ops)/1e3

	out["disk_bytes_per_op"] = ratio(float64(b.disk.BytesWritten-a.disk.BytesWritten), n)
	out["virt_us_per_op"] = ratio(us(b.virt-a.virt), n)
	out["allocs_per_op"] = ratio(float64(b.mallocs-a.mallocs), n)
	out["heap_growth_b_per_op"] = ratio(float64(int64(b.heap)-int64(a.heap)), n)
	out["repl_wire_bytes_per_write"] = ratio(float64(b.rep.WireBytes-a.rep.WireBytes), w)

	if a.io.ok && b.io.ok && b.net.Requests > a.net.Requests {
		out["netsvc.sys_reads_per_op"] = ratio(float64(b.io.syscr-a.io.syscr), n)
		out["netsvc.sys_writes_per_op"] = ratio(float64(b.io.syscw-a.io.syscw), n)
	}
	out["netsvc.bytes_in_per_op"] = ratio(float64(b.net.BytesIn-a.net.BytesIn), n)
	out["netsvc.bytes_out_per_op"] = ratio(float64(b.net.BytesOut-a.net.BytesOut), n)
	out["netsvc.retry_after_share"] = ratio(float64(b.net.RetryAfter-a.net.RetryAfter), float64(b.net.Responses-a.net.Responses))
	out["netsvc.client_retries_per_kop"] = ratio(float64(b.clientRetries-a.clientRetries), kops)

	commits := float64(b.shard.commits - a.shard.commits)
	out["shard.batch_occupancy"] = ratio(float64(b.shard.writes-a.shard.writes), commits)
	out["shard.commits_per_kop"] = ratio(commits, kops)
	out["shard.queue_high_water"] = float64(b.shard.queueHW)
	out["shard.rejected_share"] = ratio(float64(b.shard.rejected-a.shard.rejected), n)
	out["shard.commit_virt_mean_us"] = histMeanUs(a.shard.commit, b.shard.commit)
	out["shard.persist_io_virt_mean_us"] = histMeanUs(a.shard.persist, b.shard.persist)
	out["shard.stats_call_us"] = us(b.shard.statsCall)
	if b.shard.ops > a.shard.ops {
		out["shard.virt_ops_per_s"] = ratio(n, (b.end - a.end).Seconds())
	}
	out["core.stage_reset_virt_us_per_commit"] = ratio(us(b.shard.stages.ResetTracking-a.shard.stages.ResetTracking), commits)
	out["core.stage_initiate_virt_us_per_commit"] = ratio(us(b.shard.stages.InitiateWrites-a.shard.stages.InitiateWrites), commits)
	out["core.stage_wait_virt_us_per_commit"] = ratio(us(b.shard.stages.WaitIO-a.shard.stages.WaitIO), commits)

	persists := float64(b.persists - a.persists)
	out["core.reset_virt_us"] = ratio(us(b.stages.ResetTracking-a.stages.ResetTracking), persists)
	out["core.initiate_virt_us"] = ratio(us(b.stages.InitiateWrites-a.stages.InitiateWrites), persists)
	out["core.wait_io_virt_us"] = ratio(us(b.stages.WaitIO-a.stages.WaitIO), persists)
	// Total also holds the fixed syscall-entry and argument cost before
	// the first stage, so the four parts sum to the mean exactly.
	out["core.persist_virt_mean_us"] = ratio(us(b.persistTotal-a.persistTotal), persists)
	out["core.entry_virt_us"] = out["core.persist_virt_mean_us"] - out["core.reset_virt_us"] - out["core.initiate_virt_us"] - out["core.wait_io_virt_us"]
	out["vm.tracking_faults_per_op"] = ratio(float64(b.vm.TrackingFaults-a.vm.TrackingFaults), n)
	out["vm.cow_faults_per_kop"] = ratio(float64(b.vm.COWFaults-a.vm.COWFaults), kops)
	out["mem.frames_grown_per_kop"] = ratio(float64(b.mem.TotalFrames-a.mem.TotalFrames), kops)
	out["mem.allocations_per_op"] = ratio(float64(b.mem.Allocations-a.mem.Allocations), n)
	out["disk.writes_per_op"] = ratio(float64(b.disk.Writes-a.disk.Writes), n)

	wire := float64(b.rep.WireBytes - a.rep.WireBytes)
	saved := float64(b.rep.DiffSavedBytes - a.rep.DiffSavedBytes)
	out["replica.diff_saved_share"] = ratio(saved, saved+wire)
	out["replica.extents_per_write"] = ratio(float64(b.rep.Extents-a.rep.Extents), w)
	out["replica.encode_virt_us_per_write"] = ratio(us(b.rep.EncodeTime-a.rep.EncodeTime), w)
	out["replica.msgs_per_write"] = ratio(float64(b.rep.Shipped-a.rep.Shipped), w)
	out["replica.retries_per_kop"] = ratio(float64(b.rep.Retries-a.rep.Retries), kops)
	out["replica.snapshots"] = float64(b.rep.Snapshots + b.fol.Snapshots)
	out["replica.follower_patched_bytes_per_write"] = ratio(float64(b.fol.PatchedBytes-a.fol.PatchedBytes), w)
	out["replica.ack_virt_mean_us"] = histMeanUs(a.rep.AckHist, b.rep.AckHist)
}
