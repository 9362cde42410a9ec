package main

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// meter collects one phase of a closed-loop run. The phase is cut into
// fixed windows and every host-clock metric is the median over the
// windows: on two shared cores a stall (GC, a noisy neighbour) lands
// in a few windows and the median ignores it, where a whole-phase mean
// would carry it into the result.
type meter struct {
	start    time.Time
	deadline time.Time
	winLen   time.Duration
	// budget, when positive at construction, ends the phase after that
	// many operations instead of at the deadline, so single-threaded
	// runs replay bit for bit (-ops).
	budget   atomic.Int64
	budgeted bool

	mu        sync.Mutex
	wins      []window
	all       hist
	attempted int64
	failed    int64
	writes    int64  // acknowledged adds
	acked     uint64 // sum of their deltas
	ended     time.Time
	traces    []*tracer
}

type window struct {
	ops int64
	lat hist
	cpu time.Duration // process CPU time spent during the window
}

func newMeter(length time.Duration, maxOps int64) *meter {
	winLen := length / 20
	if winLen > 500*time.Millisecond {
		winLen = 500 * time.Millisecond
	}
	if winLen < 20*time.Millisecond {
		winLen = 20 * time.Millisecond
	}
	n := int(length / winLen)
	if n < 1 {
		n = 1
	}
	m := &meter{winLen: winLen, wins: make([]window, n), budgeted: maxOps > 0}
	m.budget.Store(maxOps)
	return m
}

// begin starts the phase clock. Lanes created after begin record into
// the window their completion time falls in.
func (m *meter) begin() {
	m.start = time.Now() //lint:allow walltime the benchmark measures host time at the service boundary
	m.deadline = m.start.Add(time.Duration(len(m.wins)) * m.winLen)
}

// more reports whether a lane may issue another operation at now.
func (m *meter) more(now time.Time) bool {
	if m.budgeted {
		return m.budget.Add(-1) >= 0
	}
	return now.Before(m.deadline)
}

// sampleCPU reads the process CPU clock at every window boundary until
// done is closed, filling window.cpu. It runs on its own goroutine
// beside the lanes; the caller waits for the returned channel.
func (m *meter) sampleCPU(done <-chan struct{}) <-chan struct{} {
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		prev := cpuTime()
		for k := range m.wins {
			wait := time.Until(m.start.Add(time.Duration(k+1) * m.winLen)) //lint:allow walltime window boundaries are host time
			select {
			case <-done:
				return
			case <-time.After(wait): //lint:allow walltime window boundaries are host time
			}
			now := cpuTime()
			m.mu.Lock()
			m.wins[k].cpu = now - prev
			m.mu.Unlock()
			prev = now
		}
	}()
	return finished
}

// lane is one closed-loop client's private recording state: nothing in
// it is shared, so the measured path takes no lock and allocates
// nothing. A lane folds itself into the meter when its window changes
// and when it ends.
type lane struct {
	m         *meter
	id        int
	win       int
	ops       int64
	lat       hist
	attempted int64
	failed    int64
	writes    int64
	acked     uint64
	tr        *tracer
}

func (m *meter) newLane(id int, traced bool) *lane {
	l := &lane{m: m, id: id, win: -1}
	if traced {
		l.tr = newTracer(id)
	}
	return l
}

// record notes one completed operation.
func (l *lane) record(start, end time.Time) {
	w := int(end.Sub(l.m.start) / l.m.winLen)
	if w != l.win {
		l.flush()
		l.win = w
	}
	l.ops++
	l.lat.record(end.Sub(start))
}

// span records, in a traced run, one operation that made a single call
// into a layer: the operation from opStart, the call from callStart,
// both to end.
func (l *lane) span(name spanName, opStart, callStart, end time.Time) {
	if l.tr == nil {
		return
	}
	root := l.tr.begin()
	l.tr.child(root, name, callStart, end)
	l.tr.finish(root, opStart, end)
}

func (l *lane) flush() {
	if l.ops == 0 {
		return
	}
	m := l.m
	m.mu.Lock()
	if l.win >= 0 && l.win < len(m.wins) {
		m.wins[l.win].ops += l.ops
		m.wins[l.win].lat.merge(&l.lat)
	}
	m.all.merge(&l.lat)
	m.mu.Unlock()
	l.ops = 0
	l.lat.reset()
}

// end folds the lane's remaining state into the meter.
func (l *lane) end() {
	l.flush()
	now := time.Now() //lint:allow walltime phase end is host time
	m := l.m
	m.mu.Lock()
	m.attempted += l.attempted
	m.failed += l.failed
	m.writes += l.writes
	m.acked += l.acked
	if now.After(m.ended) {
		m.ended = now
	}
	if l.tr != nil {
		m.traces = append(m.traces, l.tr)
	}
	m.mu.Unlock()
}

// hostStats are the host-clock results of one phase.
type hostStats struct {
	ops      int64 // operations completed inside the phase
	opsPerS  float64
	p50Us    float64
	p90Us    float64
	cpuPerOp float64 // microseconds of process CPU per operation
	windowCV float64 // spread of per-window throughput, the noise gauge
	p99Us    float64
	p999Us   float64
	maxUs    float64
}

// summarize reduces the phase to medians over its complete windows. A
// budgeted phase may end mid-window; only the windows that ran to
// their end count, and a phase shorter than one window falls back to
// whole-phase figures.
func (m *meter) summarize() hostStats {
	complete := len(m.wins)
	if m.budgeted {
		complete = min(complete, int(m.ended.Sub(m.start)/m.winLen))
	}
	s := hostStats{
		ops:    int64(m.all.n),
		p99Us:  m.all.quantile(0.99) / 1e3,
		p999Us: m.all.quantile(0.999) / 1e3,
		maxUs:  float64(m.all.max) / 1e3,
	}
	var rate, p50, p90, cpu []float64
	for i := 0; i < complete; i++ {
		w := &m.wins[i]
		if w.ops == 0 {
			continue
		}
		rate = append(rate, float64(w.ops)/m.winLen.Seconds())
		p50 = append(p50, w.lat.quantile(0.50)/1e3)
		p90 = append(p90, w.lat.quantile(0.90)/1e3)
		if w.cpu > 0 {
			cpu = append(cpu, us(w.cpu)/float64(w.ops))
		}
	}
	if len(rate) == 0 {
		elapsed := m.ended.Sub(m.start).Seconds()
		if elapsed > 0 {
			s.opsPerS = float64(s.ops) / elapsed
		}
		s.p50Us = m.all.quantile(0.50) / 1e3
		s.p90Us = m.all.quantile(0.90) / 1e3
		return s
	}
	s.opsPerS = median(rate)
	s.p50Us = median(p50)
	s.p90Us = median(p90)
	s.cpuPerOp = median(cpu)
	s.windowCV = stddev(rate) / mean(rate)
	return s
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func mean(v []float64) float64 {
	var sum float64
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

func stddev(v []float64) float64 {
	mu := mean(v)
	var ss float64
	for _, x := range v {
		ss += (x - mu) * (x - mu)
	}
	return math.Sqrt(ss / float64(len(v)))
}
