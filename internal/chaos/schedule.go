package chaos

import "time"

// FaultKind is one injectable fault.
type FaultKind string

// The injectable faults.
const (
	// FaultPowerCut crashes the primary: the service closes, the
	// array loses power inside the final commit's IO window (sector
	// tearing), and the store recovers through the standard manifest
	// path. On the replica topology this is a failover: the follower
	// is promoted and the torn ex-primary rejoins as a follower.
	FaultPowerCut FaultKind = "powercut"
	// FaultLinkOutage installs a bounded link blackout [At, At+Dur):
	// every replication message overlapping it is lost. Windows are
	// pre-installed at cell start (the link evaluates them by
	// virtual-time overlap), so an outage can legally coincide with
	// any other fault instant.
	FaultLinkOutage FaultKind = "linkout"
	// FaultSlowDisk makes one device a straggler: IO whose service
	// starts in [At, At+Dur) costs Factor× normal latency. Also
	// pre-installed at cell start.
	FaultSlowDisk FaultKind = "slowdisk"
	// FaultFollowerCrash cuts power on the follower machine one
	// nanosecond before its last applied delta's durability point —
	// tearing the tail of its most recent µCheckpoint — then rebuilds
	// a follower over the recovered store and reconnects it, forcing
	// the shipper through its gap replay / snapshot catch-up path.
	FaultFollowerCrash FaultKind = "folcrash"
	// FaultDrain submits a pipelined burst of tagged writes and closes
	// the service while they are still queued, asserting the drain
	// contract: every admitted request gets exactly one real-outcome
	// response, never ErrClosed. The burst is queued while every shard
	// worker is parked, so it splits into group commits the same way
	// every run. The service is then reopened over the same store and
	// the workload continues. On the net topology the burst goes over
	// TCP and the server is closed mid-flight instead.
	FaultDrain FaultKind = "drain"
)

// Target selects which component a fault event applies to.
type Target string

// Fault targets.
const (
	// TargetPrimary is the primary machine / service.
	TargetPrimary Target = "primary"
	// TargetFollower is the follower machine (replica topology only;
	// events targeting an absent component are skipped).
	TargetFollower Target = "follower"
	// TargetLink is the replication link (replica topology only).
	TargetLink Target = "link"
)

// Event is one scheduled fault: at virtual time At, inject Kind on
// Target. Window faults (linkout, slowdisk) span [At, At+Dur) and are
// pre-installed before the workload starts; point faults (powercut,
// folcrash, drain) fire at the first quiescent instant at or after At
// — the runner drives one synchronous operation at a time and checks
// the primary's virtual clock between operations, so firing points
// are deterministic.
type Event struct {
	At     time.Duration `json:"at"`
	Dur    time.Duration `json:"dur,omitempty"`
	Target Target        `json:"target"`
	Kind   FaultKind     `json:"kind"`
	// Dev is the straggling device index for slowdisk.
	Dev int `json:"dev,omitempty"`
	// Factor is the slowdisk latency multiplier.
	Factor int `json:"factor,omitempty"`
}

// Schedule is a named fault schedule plus the topologies it applies
// to.
type Schedule struct {
	Name   string
	Desc   string
	Topos  []Topology
	Events []Event
}

// Supports reports whether the schedule runs on topo.
func (s Schedule) Supports(topo Topology) bool {
	for _, t := range s.Topos {
		if t == topo {
			return true
		}
	}
	return false
}

// Schedules returns the built-in fault schedules. Virtual-time
// instants are calibrated to the cell's op rate (a synchronously
// replicated write costs on the order of 100µs virtual), so every
// event fires well inside the default op budget.
func Schedules() []Schedule {
	return []Schedule{
		{
			Name:  "steady",
			Desc:  "no faults: control cell, exercises only the final cut-power audit",
			Topos: []Topology{TopoSingle, TopoReplica, TopoNet},
		},
		{
			Name:  "powercut",
			Desc:  "primary power cut mid-commit at 4ms, manifest recovery (failover on replica)",
			Topos: []Topology{TopoSingle, TopoReplica},
			Events: []Event{
				{At: 4 * time.Millisecond, Target: TargetPrimary, Kind: FaultPowerCut},
			},
		},
		{
			Name:  "linkflap",
			Desc:  "two link outage windows, one outlasting the shipper's retry budget so writes ack ErrLinkDown and the gap replays",
			Topos: []Topology{TopoReplica},
			Events: []Event{
				{At: 1500 * time.Microsecond, Dur: 2500 * time.Microsecond, Target: TargetLink, Kind: FaultLinkOutage},
				{At: 6 * time.Millisecond, Dur: 800 * time.Microsecond, Target: TargetLink, Kind: FaultLinkOutage},
			},
		},
		{
			Name:  "slowdisk",
			Desc:  "fail-slow straggler windows (8x latency) on a primary and a follower device",
			Topos: []Topology{TopoSingle, TopoReplica},
			Events: []Event{
				{At: 1 * time.Millisecond, Dur: 6 * time.Millisecond, Target: TargetPrimary, Kind: FaultSlowDisk, Dev: 0, Factor: 8},
				{At: 2 * time.Millisecond, Dur: 6 * time.Millisecond, Target: TargetFollower, Kind: FaultSlowDisk, Dev: 1, Factor: 8},
			},
		},
		{
			Name:  "folcrash",
			Desc:  "follower power cut tearing its last applied µCheckpoint mid-batch, rebuild, gap catch-up",
			Topos: []Topology{TopoReplica},
			Events: []Event{
				{At: 3 * time.Millisecond, Target: TargetFollower, Kind: FaultFollowerCrash},
			},
		},
		{
			Name:  "drain",
			Desc:  "service drain mid-pipeline: close with a tagged burst still queued, assert exactly-once, reopen",
			Topos: []Topology{TopoSingle, TopoReplica, TopoNet},
			Events: []Event{
				{At: 2 * time.Millisecond, Target: TargetPrimary, Kind: FaultDrain},
			},
		},
		{
			Name: "diffcrash",
			Desc: "follower crashes tearing sub-page-patched batch applies (2ms and 6ms) around a link outage; the follower resumes at its manifest position and converges by replay or snapshot resync",
			// The replica topology ships sub-page frames by default, so
			// each crash tears a µCheckpoint whose pages were assembled
			// from extent patches. The rebuilt follower resumes at the
			// last manifest position that survived, and the next delta's
			// sequence gap drives replay or a snapshot resync. Extents
			// are literal bytes, so re-applying a delta over a torn page
			// rewrites it rather than patching against it. The outage
			// window between the crashes piles up a gap so the second
			// crash lands on a follower that just resynced.
			Topos: []Topology{TopoReplica},
			Events: []Event{
				{At: 2 * time.Millisecond, Target: TargetFollower, Kind: FaultFollowerCrash},
				{At: 4 * time.Millisecond, Dur: 1500 * time.Microsecond, Target: TargetLink, Kind: FaultLinkOutage},
				{At: 6 * time.Millisecond, Target: TargetFollower, Kind: FaultFollowerCrash},
			},
		},
		{
			Name:  "cutrace",
			Desc:  "link outage window overlapping a power cut at the same virtual instant (outage 3-5ms, cut at 3ms)",
			Topos: []Topology{TopoReplica},
			Events: []Event{
				{At: 3 * time.Millisecond, Dur: 2 * time.Millisecond, Target: TargetLink, Kind: FaultLinkOutage},
				{At: 3 * time.Millisecond, Target: TargetPrimary, Kind: FaultPowerCut},
			},
		},
	}
}

// FindSchedule returns the named built-in schedule.
func FindSchedule(name string) (Schedule, bool) {
	for _, s := range Schedules() {
		if s.Name == name {
			return s, true
		}
	}
	return Schedule{}, false
}

// ScheduleNames returns the built-in schedule names in grid order.
func ScheduleNames() []string {
	all := Schedules()
	names := make([]string, len(all))
	for i, s := range all {
		names[i] = s.Name
	}
	return names
}
