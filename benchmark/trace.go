package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

// Span names: one per call the benchmark makes into a layer, plus the
// root span of an operation. The spans are recorded from the
// benchmark's side of each public function; spans inside the program
// are the system's own obs.Recorder, attached beside these in a traced
// run.
type spanName uint8

const (
	spanOp spanName = iota // one generated operation, root of its children
	spanClientDo
	spanShardDoTagged
	spanShardDo
	spanPageForWrite
	spanPersist
	spanNames
)

var spanLabels = [spanNames]string{
	"op", "netsvc.Client.Do", "shard.Service.DoTagged", "shard.Service.Do",
	"core.Context.PageForWrite", "core.Context.Persist",
}

// span is one timed call: name, start, end, the span that caused it
// and the operation both belong to. Times are nanoseconds since the
// process started.
type span struct {
	name       spanName
	start, end int64
	id, parent uint64
	op         uint64
}

type spanAgg struct {
	count   int64
	totalNs int64
	selfNs  int64 // total minus the part child spans cover
}

// tracer is one lane's span store. Aggregates cover every span; the
// ring keeps the most recent ones for the trace file, so a long run
// stays bounded in memory and on disk.
type tracer struct {
	lane int
	ring []span
	n    uint64 // spans recorded or reserved
	ops  uint64 // operations begun
	agg  [spanNames]spanAgg
}

const tracerRing = 1 << 10

func newTracer(lane int) *tracer {
	return &tracer{lane: lane, ring: make([]span, tracerRing)}
}

// opRef names an operation's root span while its children are
// recorded.
type opRef struct{ id, op uint64 }

// begin reserves the root span of the lane's next operation, so that
// children recorded before the operation completes can name it.
func (t *tracer) begin() opRef {
	t.n++
	t.ops++
	return opRef{id: uint64(t.lane)<<40 | t.n, op: t.ops}
}

// child records one call the operation made into a layer. Its duration
// comes out of the operation's self time; an operation's calls do not
// overlap here.
func (t *tracer) child(root opRef, name spanName, start, end time.Time) {
	t.n++
	d := t.put(t.n, span{name: name, id: uint64(t.lane)<<40 | t.n, parent: root.id, op: root.op}, start, end)
	t.agg[spanOp].selfNs -= d
}

// finish records the root span once the operation has completed.
func (t *tracer) finish(root opRef, start, end time.Time) {
	t.put(root.id&(1<<40-1), span{name: spanOp, id: root.id, op: root.op}, start, end)
}

func (t *tracer) put(seq uint64, s span, start, end time.Time) int64 {
	s.start, s.end = int64(start.Sub(processStart)), int64(end.Sub(processStart))
	t.ring[seq%tracerRing] = s
	d := s.end - s.start
	a := &t.agg[s.name]
	a.count++
	a.totalNs += d
	a.selfNs += d
	return d
}

// mergeAggs sums the per-lane aggregates.
func mergeAggs(traces []*tracer) [spanNames]spanAgg {
	var out [spanNames]spanAgg
	for _, t := range traces {
		for i := range out {
			out[i].count += t.agg[i].count
			out[i].totalNs += t.agg[i].totalNs
			out[i].selfNs += t.agg[i].selfNs
		}
	}
	return out
}

// writeChromeTrace writes the retained spans as Chrome trace-event
// JSON (loadable in Perfetto): one complete event per span, one thread
// per lane.
func writeChromeTrace(path string, traces []*tracer) error {
	return writeFile(path, func(w io.Writer) error {
		writeSpans(w, traces)
		return nil
	})
}

// writeFile creates path (and its directory) and fills it through a
// buffered writer.
func writeFile(path string, fill func(io.Writer) error) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	err = fill(w)
	if err == nil {
		err = w.Flush()
	}
	if err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func writeSpans(w io.Writer, traces []*tracer) {
	fmt.Fprint(w, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n")
	first := true
	for _, t := range traces {
		for i := range t.ring {
			s := &t.ring[i]
			if s.id == 0 {
				continue
			}
			if !first {
				fmt.Fprint(w, ",\n")
			}
			first = false
			fmt.Fprintf(w, `{"ph":"X","cat":"bench","name":%q,"pid":0,"tid":%d,"ts":%d.%03d,"dur":%d.%03d,"args":{"id":%d,"parent":%d,"op":%d}}`,
				spanLabels[s.name], t.lane, s.start/1000, s.start%1000,
				(s.end-s.start)/1000, (s.end-s.start)%1000, s.id, s.parent, s.op)
		}
	}
	fmt.Fprint(w, "\n]}\n")
}
