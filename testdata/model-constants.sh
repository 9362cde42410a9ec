#!/usr/bin/env bash
# Prints the model constants: the modelled metrics of fixed-op runs of
# the two single-client benchmark workloads, which replay bit for bit.
# CI diffs this output against testdata/model-constants.txt, so a change
# to the cost model or the on-disk layout must edit that file, and a
# change meant only to make the simulator faster cannot move a value
# unseen. To re-pin after an intended model change:
#
#   bash testdata/model-constants.sh > testdata/model-constants.txt
#
# Each line is `<run> <metric> <value>`; a run is a workload, or a
# workload with /trace for its traced run (the per-layer table). A
# metric a run does not report, or reports as 0, has no line.
set -euo pipefail
cd "$(dirname "$0")/.."
run() {
	local name=$1
	shift
	bash benchmark/run.sh --seed 7 --ops 20000 --full "$@" | tail -n 1 |
		python3 -c '
import json, sys
name = sys.argv[1]
metrics = json.load(sys.stdin)["metrics"]
for key in ("disk_bytes_per_op", "virt_us_per_op", "persist_virt_us", "repl_wire_bytes_per_write"):
    if metrics.get(key, {}).get("value"):
        print(name, key, repr(metrics[key]["value"]))
' "$name"
}
run persist_64k --workload persist_64k
run replica_sync_rw50 --workload replica_sync_rw50
run replica_sync_rw50/trace --workload replica_sync_rw50 --trace 1
