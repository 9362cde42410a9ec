package replica

import (
	"fmt"
	"sync"
	"time"

	"memsnap/internal/core"
	"memsnap/internal/obs"
	"memsnap/internal/shard"
)

// ApplyCode classifies the follower's response to a delta.
type ApplyCode int

const (
	// ApplyOK: the delta was the next in sequence and is durable on
	// the follower.
	ApplyOK ApplyCode = iota
	// ApplyDuplicate: the delta was already applied (a retransmission
	// after a lost ack); re-acked idempotently.
	ApplyDuplicate
	// ApplyGap: the delta is ahead of the follower's position (or
	// from a newer era the follower has no base for); the shipper
	// must replay the missing deltas or transfer a snapshot.
	ApplyGap
	// ApplyStale: the sender is superseded — the follower was
	// promoted or follows a newer era.
	ApplyStale
)

// ApplyStatus is the follower's ack payload: the outcome plus its
// last fully applied sequence number, which the shipper uses to size
// a catch-up.
type ApplyStatus struct {
	Code    ApplyCode
	LastSeq uint64
}

// FollowerConfig sizes a follower. Shards and RegionBytes must match
// the primary's shard.Config.
type FollowerConfig struct {
	Shards      int
	RegionBytes int64
	// StartAt positions the follower's clocks, e.g. at the recovery
	// completion time when rejoining from a recovered store.
	StartAt time.Duration
	// Recorder, when set, receives apply/apply_batch spans (and the
	// apply Contexts' persist/fault events) on each shard's follower
	// lane (obs.FollowerTrack).
	Recorder *obs.Recorder
}

func (c *FollowerConfig) fill() {
	if c.Shards <= 0 {
		c.Shards = 8
	}
	if c.RegionBytes <= 0 {
		c.RegionBytes = 4 << 20
	}
}

// FollowerShardStats are one follower shard's apply counters and
// replication position.
type FollowerShardStats struct {
	Shard      int
	Applied    int64
	Duplicates int64
	Gaps       int64
	Stale      int64
	Snapshots  int64
	// Batches counts coalesced delta runs applied as one uCheckpoint.
	Batches int64
	// PatchedBytes counts bytes written through sub-page frames (extent
	// literals and full frames of encoded deltas).
	PatchedBytes int64
	LastSeq      uint64
	Era          uint64
}

// Follower is the backup endpoint: it owns a full set of shard
// regions in its own System (its own disk array — it survives the
// primary's death) and applies shipped deltas in sequence order, each
// as one synchronous uCheckpoint. Regions carry the same names as the
// primary's, so Promote can bring the follower up through the
// standard shard recovery path.
//
// A fresh follower formats its regions exactly as a fresh primary
// would (format is deterministic), so even a shard that never ships a
// delta is byte-identical across the pair; each delta (starting at
// seq 1) then carries the manifest copy among its slot pages and keeps
// the region bit-for-bit in step. A follower built over a recovered
// store (a rejoining ex-primary) instead resumes from the position of
// each region's newest manifest copy.
type Follower struct {
	cfg FollowerConfig
	sys *core.System

	mu       sync.Mutex
	promoted bool

	shards []*followerShard
}

type followerShard struct {
	mu     sync.Mutex
	ctx    *core.Context
	region *core.Region

	lastSeq uint64
	era     uint64

	applied      int64
	duplicates   int64
	gaps         int64
	stale        int64
	snapshots    int64
	batches      int64
	patchedBytes int64
}

// validateEnc walks one encoded delta's frames and checks every
// payload's structure, so that patchEnc cannot meet a malformed frame
// after some bytes have landed. It returns the full-frame payload bytes
// it walked (the caller charges DiffCost for them) and ok=false when any
// frame is malformed or of an unknown kind; the caller must then reject
// the whole delta with ApplyGap before writing anything.
func validateEnc(enc []byte) (full int, ok bool) {
	for len(enc) > 0 {
		fr, rest, err := decodeFrame(enc)
		if err != nil || checkFrame(core.PageSize, fr) != nil {
			return full, false
		}
		if fr.kind == kindFull {
			full += len(fr.payload)
		}
		enc = rest
	}
	return full, true
}

// patchEnc applies a validated encoding onto the live region pages and
// returns the bytes written. Frames were structure-checked by
// validateEnc, so patching cannot fail midway.
func (fs *followerShard) patchEnc(enc []byte) (written int) {
	for len(enc) > 0 {
		var fr frame
		fr, enc, _ = decodeFrame(enc)
		page := fs.ctx.PageForWrite(fs.region, fr.index*core.PageSize)
		written += patchFrame(page[:core.PageSize], fr)
	}
	return written
}

// NewFollower opens a follower over sys. Pre-existing shard regions
// (a rejoining ex-primary's) are resumed at their manifest position;
// missing ones start empty at sequence zero.
func NewFollower(sys *core.System, cfg FollowerConfig) (*Follower, error) {
	cfg.fill()
	f := &Follower{cfg: cfg, sys: sys}
	existing := make(map[string]bool)
	for _, name := range sys.RegionNames() {
		existing[name] = true
	}
	for i := 0; i < cfg.Shards; i++ {
		// One process per follower shard, as on the primary.
		proc := sys.NewProcess()
		ctx := proc.NewContext(i)
		ctx.Clock().AdvanceTo(cfg.StartAt)
		ctx.SetRecorder(cfg.Recorder, obs.FollowerTrack(i))
		pre := existing[shard.RegionName(i)]
		region, err := proc.Open(ctx, shard.RegionName(i), cfg.RegionBytes)
		if err != nil {
			return nil, err
		}
		fs := &followerShard{ctx: ctx, region: region}
		if pre {
			if seq, era, _, ok := shard.ManifestMeta(ctx, region); ok {
				fs.lastSeq, fs.era = seq, era
			}
		} else {
			// Format the fresh region exactly as a fresh primary
			// shard would: format is deterministic, so an idle shard
			// that never ships a delta is still byte-identical across
			// the replica pair.
			if err := shard.FormatRegion(ctx, region, i, cfg.Shards, cfg.RegionBytes, 0); err != nil {
				return nil, err
			}
		}
		f.shards = append(f.shards, fs)
	}
	return f, nil
}

// Apply applies one delta arriving at virtual time at and returns the
// time the ack is ready plus its status: a run of one (see applyRun).
func (f *Follower) Apply(at time.Duration, d *Delta) (time.Duration, ApplyStatus) {
	run := [1]*Delta{d}
	return f.applyRun(at, run[:])
}

// applyRun applies a run of consecutive same-era deltas from one link
// message as a single unit — the follower's only apply path; a lone
// delta is a run of one. Deltas apply only in exact sequence order
// within the follower's era. The entire chain is validated against the
// shard's position BEFORE any page is written; then every member's
// pages land and ONE synchronous uCheckpoint persists the run, so the
// follower's durable state only ever advances by whole deltas. An
// already-applied prefix (retransmission after a lost ack) is skipped
// idempotently; a malformed or out-of-position run is reported as a
// gap with the region untouched.
func (f *Follower) applyRun(at time.Duration, run []*Delta) (time.Duration, ApplyStatus) {
	if len(run) == 0 {
		return at, ApplyStatus{Code: ApplyGap}
	}
	d := run[0]
	for i := 1; i < len(run); i++ {
		if run[i].Shard != d.Shard || run[i].Era != d.Era || run[i].Seq != run[i-1].Seq+1 {
			return at, ApplyStatus{Code: ApplyGap}
		}
	}
	f.mu.Lock()
	promoted := f.promoted
	f.mu.Unlock()
	if d.Shard < 0 || d.Shard >= len(f.shards) {
		return at, ApplyStatus{Code: ApplyStale}
	}
	fs := f.shards[d.Shard]
	fs.mu.Lock()
	defer fs.mu.Unlock()
	clk := fs.ctx.Clock()
	clk.AdvanceTo(at)
	applyStart := clk.Now()
	switch {
	case promoted || d.Era < fs.era:
		fs.stale++
		return clk.Now(), ApplyStatus{Code: ApplyStale, LastSeq: fs.lastSeq}
	case d.Era > fs.era:
		// A newer primary. From a clean slate the full history (seq 1)
		// is a safe base; anything else needs a snapshot to discard
		// whatever this replica holds from the old era.
		if !(fs.lastSeq == 0 && d.Seq == 1) {
			fs.gaps++
			return clk.Now(), ApplyStatus{Code: ApplyGap, LastSeq: fs.lastSeq}
		}
		fs.era = d.Era
	}
	skip := 0
	for skip < len(run) && run[skip].Seq <= fs.lastSeq {
		skip++
	}
	if skip == len(run) {
		fs.duplicates += int64(skip)
		return clk.Now(), ApplyStatus{Code: ApplyDuplicate, LastSeq: fs.lastSeq}
	}
	if run[skip].Seq != fs.lastSeq+1 {
		fs.gaps++
		return clk.Now(), ApplyStatus{Code: ApplyGap, LastSeq: fs.lastSeq}
	}
	// Check every encoded member's frames before any byte lands.
	costs := f.sys.Costs()
	full := 0
	valOK := true
	for _, m := range run[skip:] {
		n, ok := validateEnc(m.enc) // an unencoded member walks no frames
		full += n
		if !ok {
			valOK = false
			break
		}
	}
	// ROADMAP item 6 audits this DiffCost: validateEnc hashes nothing.
	clk.Advance(costs.DiffCost(full))
	if !valOK {
		fs.gaps++
		return clk.Now(), ApplyStatus{Code: ApplyGap, LastSeq: fs.lastSeq}
	}
	written := 0
	for _, m := range run[skip:] {
		if m.enc != nil {
			written += fs.patchEnc(m.enc)
			continue
		}
		for _, pg := range m.Pages {
			fs.ctx.WriteAt(fs.region, pg.Index*core.PageSize, pg.Data)
		}
	}
	fs.patchedBytes += int64(written)
	clk.Advance(costs.MemcpyCost(written))
	if _, err := fs.ctx.Persist(fs.region, core.MSSync); err != nil {
		// The run did not become durable; report a gap so the shipper
		// retries from our (unchanged) position.
		fs.gaps++
		return clk.Now(), ApplyStatus{Code: ApplyGap, LastSeq: fs.lastSeq}
	}
	fs.duplicates += int64(skip)
	fs.lastSeq = run[len(run)-1].Seq
	fs.applied += int64(len(run) - skip)
	now := clk.Now()
	if len(run) == 1 {
		f.cfg.Recorder.SpanFlow(obs.CatReplica, obs.NameApply, obs.FollowerTrack(d.Shard), applyStart, now-applyStart, int64(d.Seq), d.TraceID)
	} else {
		fs.batches++
		f.cfg.Recorder.SpanFlow(obs.CatReplica, obs.NameApplyBatch, obs.FollowerTrack(d.Shard), applyStart, now-applyStart, int64(len(run)-skip), runFlow(run))
	}
	return now, ApplyStatus{Code: ApplyOK, LastSeq: fs.lastSeq}
}

// applySnapshot installs a full-region snapshot, replacing whatever
// the follower shard held — the catch-up (and era-reconciliation)
// path. The whole region is written and persisted as one synchronous
// uCheckpoint.
func (f *Follower) applySnapshot(at time.Duration, snap *shard.Snapshot) (time.Duration, error) {
	f.mu.Lock()
	promoted := f.promoted
	f.mu.Unlock()
	if promoted {
		return at, ErrPromoted
	}
	if snap.Shard < 0 || snap.Shard >= len(f.shards) {
		return at, fmt.Errorf("replica: snapshot for unknown shard %d", snap.Shard)
	}
	fs := f.shards[snap.Shard]
	fs.mu.Lock()
	defer fs.mu.Unlock()
	clk := fs.ctx.Clock()
	clk.AdvanceTo(at)
	if snap.Era < fs.era {
		fs.stale++
		return clk.Now(), ErrStale
	}
	for _, pg := range snap.Pages {
		fs.ctx.WriteAt(fs.region, pg.Index*core.PageSize, pg.Data)
	}
	if _, err := fs.ctx.Persist(fs.region, core.MSSync); err != nil {
		return clk.Now(), err
	}
	fs.lastSeq, fs.era = snap.Seq, snap.Era
	fs.snapshots++
	return clk.Now(), nil
}

// LastApplied returns a shard's replication position.
func (f *Follower) LastApplied(shardID int) (seq, era uint64) {
	fs := f.shards[shardID]
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.lastSeq, fs.era
}

// Sums reads each follower shard's manifest value sum (zero for a
// shard that has not applied anything yet).
func (f *Follower) Sums() []uint64 {
	out := make([]uint64, len(f.shards))
	for i, fs := range f.shards {
		fs.mu.Lock()
		if _, _, sum, ok := shard.ManifestMeta(fs.ctx, fs.region); ok {
			out[i] = sum
		}
		fs.mu.Unlock()
	}
	return out
}

// Digests computes each follower shard's page-level region digest,
// comparable with Service.ShardDigests.
func (f *Follower) Digests() []uint64 {
	out := make([]uint64, len(f.shards))
	for i, fs := range f.shards {
		fs.mu.Lock()
		out[i] = shard.DigestRegion(fs.ctx, fs.region)
		fs.mu.Unlock()
	}
	return out
}

// Stats snapshots every follower shard's counters.
func (f *Follower) Stats() []FollowerShardStats {
	out := make([]FollowerShardStats, len(f.shards))
	for i, fs := range f.shards {
		fs.mu.Lock()
		out[i] = FollowerShardStats{
			Shard:        i,
			Applied:      fs.applied,
			Duplicates:   fs.duplicates,
			Gaps:         fs.gaps,
			Stale:        fs.stale,
			Snapshots:    fs.snapshots,
			Batches:      fs.batches,
			PatchedBytes: fs.patchedBytes,
			LastSeq:      fs.lastSeq,
			Era:          fs.era,
		}
		fs.mu.Unlock()
	}
	return out
}

// EndTime returns the latest virtual time across follower shards.
func (f *Follower) EndTime() time.Duration {
	var end time.Duration
	for _, fs := range f.shards {
		fs.mu.Lock()
		if t := fs.ctx.Clock().Now(); t > end {
			end = t
		}
		fs.mu.Unlock()
	}
	return end
}

// Promote fails the follower over: it stops accepting deltas (further
// Apply calls report ApplyStale) and reopens its regions as a running
// shard.Service through the standard manifest recovery path, at the
// last fully applied epoch of every shard, under a replication era
// one past the highest this follower has seen. cfg.Shards,
// RegionBytes, Era and StartAt are filled from the follower's state;
// set cfg.Replicator to ship onward to the next follower (e.g. the
// reconciled ex-primary).
func (f *Follower) Promote(cfg shard.Config) (*shard.Service, error) {
	f.mu.Lock()
	if f.promoted {
		f.mu.Unlock()
		return nil, ErrPromoted
	}
	f.promoted = true
	f.mu.Unlock()

	var maxEra uint64
	start := cfg.StartAt
	for _, fs := range f.shards {
		fs.mu.Lock()
		if fs.era > maxEra {
			maxEra = fs.era
		}
		if t := fs.ctx.Clock().Now(); t > start {
			start = t
		}
		fs.mu.Unlock()
	}
	cfg.Shards = f.cfg.Shards
	cfg.RegionBytes = f.cfg.RegionBytes
	if cfg.Era <= maxEra {
		cfg.Era = maxEra + 1
	}
	cfg.StartAt = start
	return shard.New(f.sys, cfg)
}
