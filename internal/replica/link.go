package replica

import (
	"sync"
	"time"

	"memsnap/internal/sim"
)

// LinkConfig configures a simulated replication link.
type LinkConfig struct {
	// Costs supplies LinkBaseLatency and the per-byte transfer rate.
	Costs *sim.CostModel
	// LossProb is the independent per-message loss probability.
	LossProb float64
	// Seed seeds the loss RNG (deterministic per link).
	Seed uint64
}

// Link is a simulated half-duplex network pipe, modelled exactly like
// the disk: pure virtual-time cost arithmetic with a single-server
// FIFO queue (nextFree) for bandwidth serialization, plus optional
// random loss and injected outages. Both directions of the
// replication protocol (deltas out, acks back) share the one pipe.
type Link struct {
	costs    *sim.CostModel
	lossProb float64

	mu       sync.Mutex
	rng      *sim.RNG
	nextFree time.Duration
	outages  []outage
	bytes    int64 // put on the wire, for the tests
}

// outage is a half-open virtual-time interval during which the link
// drops everything, including messages already in flight when it
// starts (a cut mid-delta loses the whole delta).
type outage struct {
	from time.Duration
	to   time.Duration // 1<<62 while the cut is open
}

const outageOpen = time.Duration(1) << 62

// NewLink builds a link from cfg (Costs defaults to sim.DefaultCosts).
func NewLink(cfg LinkConfig) *Link {
	if cfg.Costs == nil {
		cfg.Costs = sim.DefaultCosts()
	}
	return &Link{
		costs:    cfg.Costs,
		lossProb: cfg.LossProb,
		rng:      sim.NewRNG(cfg.Seed),
	}
}

// Deliver transmits size bytes starting no earlier than at, queuing
// behind earlier transmissions. It returns the arrival time and
// whether the message survived; a lost message (random loss, or any
// overlap with an outage) still consumed its slot on the pipe, and
// its would-be arrival time anchors the sender's retry timer.
func (l *Link) Deliver(at time.Duration, size int) (time.Duration, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	start := at
	if l.nextFree > start {
		start = l.nextFree
	}
	transfer := l.costs.LinkTransferCost(size)
	arrive := start + l.costs.LinkBaseLatency + transfer
	l.nextFree = start + transfer
	l.bytes += int64(size)
	for _, o := range l.outages {
		if start < o.to && arrive > o.from {
			return arrive, false
		}
	}
	if l.lossProb > 0 && l.rng.Float64() < l.lossProb {
		return arrive, false
	}
	return arrive, true
}

// Cut severs the link at virtual time at: every message whose
// transmission overlaps the cut — including one already in flight —
// is lost, until Restore.
func (l *Link) Cut(at time.Duration) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.outages = append(l.outages, outage{from: at, to: outageOpen})
}

// OutageWindow installs a bounded outage [from, to): every message
// whose transmission overlaps the window is lost. Windows may be
// installed ahead of virtual time — fault schedules pre-install them
// at scenario start — and may overlap each other or an open Cut.
func (l *Link) OutageWindow(from, to time.Duration) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.outages = append(l.outages, outage{from: from, to: to})
}

// Restore heals the most recent open cut at virtual time at.
func (l *Link) Restore(at time.Duration) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for i := len(l.outages) - 1; i >= 0; i-- {
		if l.outages[i].to == outageOpen {
			l.outages[i].to = at
			return
		}
	}
}
