package main

import "slices"

// metric is one named number the benchmark reports. The tables below
// are the single source of names, units, clocks, directions and
// bounds: BENCHMARK.json and the README glossary must agree with them
// (catalog_test.go checks both).
type metric struct {
	name   string
	unit   string
	clock  string // host: real time or CPU of this machine; virtual: the simulation's modelled time; count: neither
	better string
	// bound is the share of the parent's median by which the metric
	// may worsen before a change counts as a regression. End-to-end
	// metrics only.
	bound float64
	// only lists the workloads the metric applies to; empty means all.
	// Elsewhere it reads zero.
	only []string
}

// endToEnd are the metrics a user of the stack would see, reported by
// every workload from an untraced run.
var endToEnd = []metric{
	{name: "ops_per_s", unit: "1/s", clock: "host", better: "higher", bound: 0.25},
	{name: "lat_p50_us", unit: "us", clock: "host", better: "lower", bound: 0.25},
	{name: "lat_p90_us", unit: "us", clock: "host", better: "lower", bound: 0.25},
	{name: "cpu_us_per_op", unit: "us", clock: "host", better: "lower", bound: 0.25},
	{name: "disk_bytes_per_op", unit: "B", clock: "count", better: "lower", bound: 0.05},
	{name: "virt_us_per_op", unit: "us", clock: "virtual", better: "lower", bound: 0.05},
	{name: "setup_s", unit: "s", clock: "host", better: "lower", bound: 0.25},
}

var (
	netWorkloads = []string{"net_get95_d16", "net_write_d1"}
	kvWorkloads  = []string{"net_get95_d16", "net_write_d1", "shard_rw50_d16", "replica_sync_rw50"}
	onlyPersist  = []string{"persist_64k"}
	onlyReplica  = []string{"replica_sync_rw50"}
)

// appliesTo reports whether the metric means anything on the workload.
func (d metric) appliesTo(workload string) bool {
	return len(d.only) == 0 || slices.Contains(d.only, workload)
}

// workloadSpecific are the first four per-layer metrics: end-to-end in
// nature, but each either applies to one workload or is near zero on
// some, which the end-to-end list cannot hold. They are taken from the
// traced run's untraced reference pass, and the suite prints them
// beside the end-to-end list.
var workloadSpecific = perLayer[:4]

// perLayer are the metrics of single layers, reported by a traced run.
var perLayer = []metric{
	{name: "allocs_per_op", unit: "count", clock: "count", better: "lower"},
	{name: "heap_growth_b_per_op", unit: "B", clock: "count", better: "lower"},
	{name: "persist_virt_us", unit: "us", clock: "virtual", better: "lower", only: onlyPersist},
	{name: "repl_wire_bytes_per_write", unit: "B", clock: "count", better: "lower", only: onlyReplica},

	{name: "proto.encode_req_ns", unit: "ns", clock: "host", better: "lower", only: netWorkloads},
	{name: "proto.decode_req_ns", unit: "ns", clock: "host", better: "lower", only: netWorkloads},
	{name: "proto.encode_resp_ns", unit: "ns", clock: "host", better: "lower", only: netWorkloads},
	{name: "proto.decode_resp_ns", unit: "ns", clock: "host", better: "lower", only: netWorkloads},
	{name: "proto.frame_next_ns", unit: "ns", clock: "host", better: "lower", only: netWorkloads},
	{name: "proto.reads_per_frame", unit: "count", clock: "count", better: "lower", only: netWorkloads},
	{name: "proto.req_bytes", unit: "B", clock: "count", better: "lower", only: netWorkloads},
	{name: "proto.resp_bytes", unit: "B", clock: "count", better: "lower", only: netWorkloads},

	{name: "netsvc.sys_reads_per_op", unit: "count", clock: "count", better: "lower", only: netWorkloads},
	{name: "netsvc.sys_writes_per_op", unit: "count", clock: "count", better: "lower", only: netWorkloads},
	{name: "netsvc.bytes_in_per_op", unit: "B", clock: "count", better: "lower", only: netWorkloads},
	{name: "netsvc.bytes_out_per_op", unit: "B", clock: "count", better: "lower", only: netWorkloads},
	{name: "netsvc.retry_after_share", unit: "share", clock: "count", better: "lower", only: netWorkloads},
	{name: "netsvc.client_retries_per_kop", unit: "count", clock: "count", better: "lower", only: netWorkloads},
	{name: "netsvc.drain_ms", unit: "ms", clock: "host", better: "lower", only: netWorkloads},
	{name: "netsvc.wire_self_us_per_op", unit: "us", clock: "host", better: "lower", only: netWorkloads},
	{name: "netsvc.wire_self_lat_p50_us", unit: "us", clock: "host", better: "lower", only: netWorkloads},

	{name: "shard.batch_occupancy", unit: "count", clock: "count", better: "higher", only: kvWorkloads},
	{name: "shard.commits_per_kop", unit: "count", clock: "count", better: "lower", only: kvWorkloads},
	{name: "shard.queue_high_water", unit: "count", clock: "count", better: "lower", only: kvWorkloads},
	{name: "shard.rejected_share", unit: "share", clock: "count", better: "lower", only: kvWorkloads},
	{name: "shard.commit_virt_mean_us", unit: "us", clock: "virtual", better: "lower", only: kvWorkloads},
	{name: "shard.persist_io_virt_mean_us", unit: "us", clock: "virtual", better: "lower", only: kvWorkloads},
	{name: "shard.virt_ops_per_s", unit: "1/s", clock: "virtual", better: "higher", only: kvWorkloads},
	{name: "shard.read_path_ns_per_op", unit: "ns", clock: "host", better: "lower", only: kvWorkloads},
	{name: "shard.stats_call_us", unit: "us", clock: "host", better: "lower", only: kvWorkloads},

	{name: "core.dirty_ns_per_page", unit: "ns", clock: "host", better: "lower", only: onlyPersist},
	{name: "core.persist_ns_per_page", unit: "ns", clock: "host", better: "lower", only: onlyPersist},
	{name: "core.entry_virt_us", unit: "us", clock: "virtual", better: "lower", only: onlyPersist},
	{name: "core.reset_virt_us", unit: "us", clock: "virtual", better: "lower", only: onlyPersist},
	{name: "core.initiate_virt_us", unit: "us", clock: "virtual", better: "lower", only: onlyPersist},
	{name: "core.wait_io_virt_us", unit: "us", clock: "virtual", better: "lower", only: onlyPersist},
	{name: "core.persist_virt_mean_us", unit: "us", clock: "virtual", better: "lower", only: onlyPersist},
	{name: "core.stage_reset_virt_us_per_commit", unit: "us", clock: "virtual", better: "lower", only: kvWorkloads},
	{name: "core.stage_initiate_virt_us_per_commit", unit: "us", clock: "virtual", better: "lower", only: kvWorkloads},
	{name: "core.stage_wait_virt_us_per_commit", unit: "us", clock: "virtual", better: "lower", only: kvWorkloads},
	{name: "vm.tracking_faults_per_op", unit: "count", clock: "count", better: "lower", only: onlyPersist},
	{name: "vm.cow_faults_per_kop", unit: "count", clock: "count", better: "lower", only: onlyPersist},
	{name: "mem.frames_grown_per_kop", unit: "count", clock: "count", better: "lower"},
	{name: "mem.allocations_per_op", unit: "count", clock: "count", better: "lower"},

	{name: "objstore.commit_ns_per_block", unit: "ns", clock: "host", better: "lower"},
	{name: "objstore.commit_virt_us", unit: "us", clock: "virtual", better: "lower"},
	{name: "objstore.write_amp", unit: "ratio", clock: "count", better: "lower"},
	{name: "objstore.disk_writes_per_commit", unit: "count", clock: "count", better: "lower"},
	{name: "objstore.read_block_ns", unit: "ns", clock: "host", better: "lower"},

	{name: "disk.writev_ns_per_extent", unit: "ns", clock: "host", better: "lower"},
	{name: "disk.writev_virt_us_64k", unit: "us", clock: "virtual", better: "lower"},
	{name: "disk.write_virt_us_4k", unit: "us", clock: "virtual", better: "lower"},
	{name: "disk.read_ns_4k", unit: "ns", clock: "host", better: "lower"},
	{name: "disk.writes_per_op", unit: "count", clock: "count", better: "lower"},

	{name: "replica.diff_saved_share", unit: "share", clock: "count", better: "higher", only: onlyReplica},
	{name: "replica.extents_per_write", unit: "count", clock: "count", better: "lower", only: onlyReplica},
	{name: "replica.encode_virt_us_per_write", unit: "us", clock: "virtual", better: "lower", only: onlyReplica},
	{name: "replica.msgs_per_write", unit: "count", clock: "count", better: "lower", only: onlyReplica},
	{name: "replica.retries_per_kop", unit: "count", clock: "count", better: "lower", only: onlyReplica},
	{name: "replica.snapshots", unit: "count", clock: "count", better: "lower", only: onlyReplica},
	{name: "replica.follower_patched_bytes_per_write", unit: "B", clock: "count", better: "lower", only: onlyReplica},
	{name: "replica.ack_virt_mean_us", unit: "us", clock: "virtual", better: "lower", only: onlyReplica},
	{name: "replica.self_us_per_op", unit: "us", clock: "host", better: "lower", only: onlyReplica},
	{name: "replica.apply_ns_per_delta", unit: "ns", clock: "host", better: "lower", only: onlyReplica},

	{name: "obs.trace_overhead_share", unit: "share", clock: "host", better: "lower"},
	{name: "client.lat_p99_us", unit: "us", clock: "host", better: "lower"},
	{name: "client.lat_p999_us", unit: "us", clock: "host", better: "lower"},
	{name: "client.lat_max_us", unit: "us", clock: "host", better: "lower"},
	{name: "client.samples", unit: "count", clock: "count", better: "higher"},
	{name: "client.gen_ns_per_op", unit: "ns", clock: "host", better: "lower", only: kvWorkloads},
	{name: "client.window_cv", unit: "share", clock: "host", better: "lower"},
}
