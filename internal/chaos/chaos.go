// Package chaos is a declarative fault-matrix scenario runner over the
// simulated MemSnap stack. A scenario cell composes three orthogonal
// axes:
//
//   - a topology — a single shard service, a primary+follower pair
//     replicating over a simulated link (internal/replica), or a
//     TCP-fronted service (internal/netsvc);
//   - a workload — the YCSB-style mixed-ratio generator, TATP, or
//     TPC-C (internal/workload), driven deterministically from the
//     cell seed;
//   - a fault schedule — a list of (virtual-time, target, fault)
//     events on sim.Clock virtual time: power cuts, link outage
//     windows, slow-disk stragglers, follower crashes mid-batch, and
//     service drains mid-pipeline.
//
// The runner sweeps seeds × schedules × topologies and asserts on
// every cell, regardless of which faults fired:
//
//   - recovery consistency: after every crash and at a final
//     cut-power audit, every shard reopens on a manifest-committed
//     epoch whose manifest counters match a full data rescan
//     (shard.ShardRecovery.Consistent);
//   - replica convergence: at quiesce the follower's per-shard page
//     digests and value sums are byte-identical to the primary's, and
//     its replication position never runs ahead;
//   - exactly-once responses: every admitted request receives exactly
//     one response carrying a real outcome (never ErrClosed after
//     admission), and read/response values match a client-side model
//     that tracks which writes could legally have survived each
//     crash;
//   - leak accounting: the capture pools drain back to their
//     cell-start in-use level once the cell tears down.
//
// A failure anywhere in the grid reprints as its cell ID
// `seed=S/sched=NAME/topo=T`, and feeding that ID back (msnap-chaos
// -cell, or RunCell) reproduces the run: the workload stream, fault
// instants, and final per-shard digests are bit-for-bit identical
// across reruns. The drain schedule is the one carve-out: its burst
// splits into the same group commits every run (it is queued behind a
// parked worker on every shard), but the shards then drain it
// concurrently into one disk array, whose queue order is real-time
// order, and the net topology's burst races real TCP; so virtual-time
// instants may drift there, while the digests of the single and
// replica topologies, and every invariant verdict, may not. Cells
// share process-global pools, so cells must not run concurrently; Run
// executes them sequentially.
package chaos

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// Topology selects the system shape a cell runs against.
type Topology string

// The three topologies.
const (
	// TopoSingle is one shard service over one simulated machine.
	TopoSingle Topology = "single"
	// TopoReplica is a primary shard service synchronously shipping
	// µCheckpoint deltas to a follower over a simulated link.
	TopoReplica Topology = "replica"
	// TopoNet fronts a single shard service with the real-TCP framed
	// protocol server and drives it through a pipelined client.
	TopoNet Topology = "net"
)

// Topologies lists all topologies in grid order.
func Topologies() []Topology { return []Topology{TopoSingle, TopoReplica, TopoNet} }

// Cell names one grid cell: the cross product point of a seed, a
// fault schedule, and a topology.
type Cell struct {
	Seed     uint64
	Schedule string
	Topology Topology
}

// ID renders the canonical cell ID, e.g. "seed=7/sched=powercut/topo=replica".
func (c Cell) ID() string {
	return fmt.Sprintf("seed=%d/sched=%s/topo=%s", c.Seed, c.Schedule, c.Topology)
}

// ParseCellID parses an ID in the format produced by Cell.ID.
func ParseCellID(id string) (Cell, error) {
	var c Cell
	parts := strings.Split(strings.Trim(id, "{} "), "/")
	if len(parts) != 3 {
		return c, fmt.Errorf("chaos: cell ID %q: want seed=S/sched=NAME/topo=T", id)
	}
	for _, p := range parts {
		k, v, ok := strings.Cut(p, "=")
		if !ok {
			return c, fmt.Errorf("chaos: cell ID part %q: want key=value", p)
		}
		switch k {
		case "seed":
			n, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				return c, fmt.Errorf("chaos: cell ID seed %q: %v", v, err)
			}
			c.Seed = n
		case "sched":
			c.Schedule = v
		case "topo":
			c.Topology = Topology(v)
		default:
			return c, fmt.Errorf("chaos: cell ID part %q: unknown key", p)
		}
	}
	if c.Schedule == "" || c.Topology == "" {
		return c, fmt.Errorf("chaos: cell ID %q: missing sched or topo", id)
	}
	return c, nil
}

// CellResult is the outcome of one grid cell.
type CellResult struct {
	ID       string   `json:"id"`
	Seed     uint64   `json:"seed"`
	Schedule string   `json:"schedule"`
	Topology Topology `json:"topology"`
	Workload string   `json:"workload"`
	Pass     bool     `json:"pass"`
	// Violations lists every invariant breach, empty on pass.
	Violations []string `json:"violations,omitempty"`
	// Ops counts workload operations driven; Admitted/Responses are
	// the exactly-once ledger (every admitted request must produce
	// exactly one response).
	Ops       int64 `json:"ops"`
	Admitted  int64 `json:"admitted"`
	Responses int64 `json:"responses"`
	// LinkDown counts operations acknowledged with the sanctioned
	// "durable locally, replication unconfirmed" outcome.
	LinkDown int64 `json:"link_down"`
	// FaultsFired counts schedule events that executed; Recoveries
	// counts manifest recoveries performed (crash events plus the
	// final cut-power audit).
	FaultsFired int `json:"faults_fired"`
	Recoveries  int `json:"recoveries"`
	// Digests are the primary's final per-shard page digests at the
	// pre-audit quiesce point (hex); a cell rerun from the same ID
	// must reproduce them bit for bit.
	Digests []string `json:"digests,omitempty"`
	// VirtualEnd is the primary's virtual clock when the cell
	// finished, before the final audit. Deterministic except under
	// the drain schedule (see the package comment).
	VirtualEnd time.Duration `json:"virtual_end"`
	// BundlePath is where the cell's flight-recorder bundle was
	// written (failing cells only, and only when Config.BundleDir is
	// set).
	BundlePath string `json:"bundle_path,omitempty"`
}

// fail appends a formatted violation.
func (r *CellResult) fail(format string, args ...any) {
	r.Violations = append(r.Violations, fmt.Sprintf(format, args...))
}
