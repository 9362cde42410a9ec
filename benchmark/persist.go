package main

import (
	"encoding/binary"
	"fmt"
	"time"

	"memsnap/internal/core"
	"memsnap/internal/obs"
	"memsnap/internal/sim"
)

// persistBench is persist_64k: one thread on the core API, the paper's
// Table 5/6 operation. The region has more pages than the simulated
// TLB has entries; each operation dirties 16 distinct RNG-chosen pages
// through PageForWrite and makes them durable with one synchronous
// Persist. Nothing above core runs.
type persistBench struct {
	seed   uint64
	traced bool
	phase  uint64

	opts   core.Options
	sys    *core.System
	proc   *core.Process
	ctx    *core.Context
	region *core.Region
	rec    *obs.Recorder
	// model is the expected first word of every page: the number of
	// times the page has been persisted.
	model []uint64

	persists int64
	total    time.Duration // sum of LastBreakdown.Total
	virtLat  hist          // LastBreakdown.Total per Persist, virtual ns
	dirtyNs  int64         // host time inside PageForWrite (traced run)
	persNs   int64         // host time inside Persist (traced run)
}

const (
	persistRegionName  = "bench/persist_64k"
	persistRegionBytes = 64 << 20
	persistPages       = persistRegionBytes / core.PageSize
	persistPagesPerOp  = 16
)

func newPersist(seed uint64, traced bool) *persistBench {
	return &persistBench{seed: seed, traced: traced}
}

func (b *persistBench) setup() error {
	b.opts = core.Options{CPUs: 1, DiskBytesEach: 512 << 20}
	var err error
	if b.sys, err = core.NewSystem(b.opts); err != nil {
		return err
	}
	b.proc = b.sys.NewProcess()
	b.ctx = b.proc.NewContext(0)
	if b.traced {
		b.rec = obs.NewRecorder(1 << 16)
		b.ctx.SetRecorder(b.rec, obs.ShardTrack(0))
	}
	if b.region, err = b.proc.Open(b.ctx, persistRegionName, persistRegionBytes); err != nil {
		return err
	}
	// Write every page once, so the measured phase overwrites existing
	// blocks (the steady state) instead of growing the object.
	b.model = make([]uint64, persistPages)
	for p := int64(0); p < persistPages; p++ {
		b.touch(p)
		if (p+1)%64 == 0 {
			if _, err := b.ctx.Persist(b.region, core.MSSync); err != nil {
				return err
			}
		}
	}
	return nil
}

// touch bumps page p's counter in place through the fault machinery.
func (b *persistBench) touch(p int64) {
	pg := b.ctx.PageForWrite(b.region, p*core.PageSize)
	b.model[p]++
	binary.LittleEndian.PutUint64(pg, b.model[p])
}

func (b *persistBench) drive(m *meter) {
	b.phase++
	rng := sim.NewRNG(b.seed + b.phase<<32)
	l := m.newLane(0, b.traced)
	defer l.end()
	var pages [persistPagesPerOp]int64
	b.virtLat.reset()
	b.dirtyNs, b.persNs = 0, 0
	prev := now()
	for {
		distinct(rng, pages[:], persistPages)
		start := now()
		if !m.more(start) {
			return
		}
		l.attempted++
		var err error
		if l.tr == nil {
			for _, p := range pages {
				b.touch(p)
			}
			_, err = b.ctx.Persist(b.region, core.MSSync)
		} else {
			err = b.tracedOp(l.tr, &pages, prev, start)
		}
		end := now()
		prev = end
		l.record(start, end)
		if err != nil || b.ctx.LastBreakdown.Pages != persistPagesPerOp {
			l.failed++
			continue
		}
		b.persists++
		b.total += b.ctx.LastBreakdown.Total
		b.virtLat.record(b.ctx.LastBreakdown.Total)
	}
}

// tracedOp is the operation with a span round every call into core.
func (b *persistBench) tracedOp(tr *tracer, pages *[persistPagesPerOp]int64, prev, start time.Time) error {
	root := tr.begin()
	at := start
	for _, p := range pages {
		b.touch(p)
		t := now()
		tr.child(root, spanPageForWrite, at, t)
		b.dirtyNs += int64(t.Sub(at))
		at = t
	}
	_, err := b.ctx.Persist(b.region, core.MSSync)
	end := now()
	tr.child(root, spanPersist, at, end)
	b.persNs += int64(end.Sub(at))
	tr.finish(root, prev, end)
	return err
}

func (b *persistBench) read(c *counters) {
	c.disk = b.sys.Array().Stats()
	c.mem = b.sys.Phys().Stats()
	c.vm = b.proc.AddressSpace().Stats()
	c.stages = b.ctx.StageTotals
	c.persists = b.persists
	c.persistTotal = b.total
	c.virt = b.ctx.Clock().Now()
	c.end = c.virt
}

// check compares every page's counter, read through ctx, to the model.
func (b *persistBench) check(ctx *core.Context, region *core.Region, when string) error {
	for p, want := range b.model {
		if got := binary.LittleEndian.Uint64(ctx.PageForRead(region, int64(p)*core.PageSize)); got != want {
			return fmt.Errorf("%s: page %d holds %d, want %d", when, p, got, want)
		}
	}
	return nil
}

// verify checks the live region, then cuts power and checks the region
// as recovered from the disk image alone: every Persist was
// synchronous, so every counter must survive.
func (b *persistBench) verify() error {
	if err := b.check(b.ctx, b.region, "live"); err != nil {
		return err
	}
	at := b.ctx.Clock().Now()
	b.sys.Array().CutPower(at, sim.NewRNG(b.seed))
	sys, done, err := core.Recover(b.opts, b.sys.Array(), at)
	if err != nil {
		return fmt.Errorf("recover: %w", err)
	}
	proc := sys.NewProcess()
	ctx := proc.NewContext(0)
	ctx.Clock().AdvanceTo(done)
	region, err := proc.Open(ctx, persistRegionName, persistRegionBytes)
	if err != nil {
		return fmt.Errorf("reopen: %w", err)
	}
	return b.check(ctx, region, "after power cut")
}

// extra reports the phase's Persist latency in virtual time and, in a
// traced run, the host time spent inside the two core calls.
func (b *persistBench) extra(out map[string]float64) {
	out["persist_virt_us"] = b.virtLat.quantile(0.50) / 1e3
	pages := float64(b.virtLat.n) * persistPagesPerOp
	out["core.dirty_ns_per_page"] = ratio(float64(b.dirtyNs), pages)
	out["core.persist_ns_per_page"] = ratio(float64(b.persNs), pages)
}

func (b *persistBench) recorder() *obs.Recorder { return b.rec }

func (b *persistBench) close() error { return nil }
