package obs

import (
	"fmt"
	"io"
	"time"
)

// WriteTrace writes events as Chrome trace-event JSON (the "JSON
// Array Format" with a traceEvents wrapper object), loadable directly
// in Perfetto or chrome://tracing. Timestamps are virtual time
// expressed in microseconds (the format's unit), with nanosecond
// precision preserved as fractional digits.
//
// Span events export as complete ("X") events, instants as "i",
// counters as "C". One thread-name metadata record per distinct track
// labels the lanes (worker/shipper/follower/netsvc/client per the
// Track conventions). All names come from the closed Cat/Name enums,
// so the output needs no JSON string escaping and is deterministic for
// a deterministic event sequence.
//
// Spans carrying a nonzero Flow additionally emit Chrome flow events
// ("s" start / "t" step / "f" finish, one shared id per trace id)
// anchored at each span's start timestamp, so Perfetto draws one
// arrow-connected path for a sampled request across every lane it
// crossed (client → netsvc → shard → shipper → follower). Events
// without a Flow export exactly as before.
func WriteTrace(w io.Writer, events []Event) error {
	if _, err := io.WriteString(w, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n"); err != nil {
		return err
	}
	first := true
	emit := func(format string, args ...any) error {
		if !first {
			if _, err := io.WriteString(w, ",\n"); err != nil {
				return err
			}
		}
		first = false
		_, err := fmt.Fprintf(w, format, args...)
		return err
	}

	// Lane metadata, in order of first appearance.
	seen := map[int32]bool{}
	for _, ev := range events {
		if seen[ev.Track] {
			continue
		}
		seen[ev.Track] = true
		role, idx := TrackName(ev.Track)
		if err := emit(`{"ph":"M","name":"thread_name","pid":0,"tid":%d,"args":{"name":"%s %d"}}`,
			ev.Track, role, idx); err != nil {
			return err
		}
	}

	// Flow occurrence counts: the first span of a trace id starts the
	// flow, the last finishes it, the middle ones step. A single pre-pass
	// keeps the phase choice deterministic in event order. A trace id
	// seen on only one span binds nothing (e.g. a client-side-only trace
	// document, where the other half of the flow lives in the server's),
	// so it emits no flow events — Chrome rejects dangling starts.
	flowTotal := map[uint64]int{}
	for _, ev := range events {
		if ev.Kind == KindSpan && ev.Flow != 0 {
			flowTotal[ev.Flow]++
		}
	}
	flowSeen := map[uint64]int{}

	for _, ev := range events {
		ts := usec(ev.Start)
		switch ev.Kind {
		case KindSpan:
			if ev.Flow != 0 {
				// The flow id rides on the span's args too: flow events
				// bind lanes within one document, but correlating traces
				// from different processes (a client's -trace-out against
				// the server's /tracez) needs the id on the span itself.
				if err := emit(`{"ph":"X","cat":"%s","name":"%s","pid":0,"tid":%d,"ts":%s,"dur":%s,"args":{"v":%d,"flow":"%x"}}`,
					ev.Cat, ev.Name, ev.Track, ts, usec(ev.Dur), ev.Arg, ev.Flow); err != nil {
					return err
				}
			} else if err := emit(`{"ph":"X","cat":"%s","name":"%s","pid":0,"tid":%d,"ts":%s,"dur":%s,"args":{"v":%d}}`,
				ev.Cat, ev.Name, ev.Track, ts, usec(ev.Dur), ev.Arg); err != nil {
				return err
			}
			if ev.Flow != 0 && flowTotal[ev.Flow] > 1 {
				flowSeen[ev.Flow]++
				ph, bind := "t", ""
				switch {
				case flowSeen[ev.Flow] == 1:
					ph = "s"
				case flowSeen[ev.Flow] == flowTotal[ev.Flow]:
					ph, bind = "f", `,"bp":"e"`
				}
				if err := emit(`{"ph":"%s"%s,"cat":"flow","name":"req","id":"%x","pid":0,"tid":%d,"ts":%s}`,
					ph, bind, ev.Flow, ev.Track, ts); err != nil {
					return err
				}
			}
		case KindInstant:
			if err := emit(`{"ph":"i","s":"t","cat":"%s","name":"%s","pid":0,"tid":%d,"ts":%s,"args":{"v":%d}}`,
				ev.Cat, ev.Name, ev.Track, ts, ev.Arg); err != nil {
				return err
			}
		}
	}
	_, err := io.WriteString(w, "\n]}\n")
	return err
}

// usec renders a virtual duration as microseconds with fixed
// nanosecond precision — deterministic (no float formatting
// shortest-form variation across values).
func usec(d time.Duration) string {
	ns := int64(d)
	neg := ""
	if ns < 0 {
		neg = "-"
		ns = -ns
	}
	return fmt.Sprintf("%s%d.%03d", neg, ns/1000, ns%1000)
}
