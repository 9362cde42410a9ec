package obs

import (
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"
)

// Family is one metric family of the Prometheus text exposition, read
// off a stats row of type T: a counter, a gauge or a histogram. Build
// one with Counter, Gauge or Hist; WriteFamilies writes a table of them
// over a slice of rows. Every exposition in the repo is such a table
// over an existing stats snapshot, so there is one format to keep right.
type Family[T any] struct {
	name, help, typ string
	sample          func(*T) string        // counter, gauge
	hist            func(*T) *HistSnapshot // histogram
}

// Sample is what a counter or gauge reads off a row. Integers render
// exactly; floats in Go's shortest form (integral values without an
// exponent); durations in seconds.
type Sample interface {
	int | int64 | uint64 | float64 | time.Duration
}

// Counter is a monotonic family: its name carries the _total suffix.
func Counter[T any, V Sample](name, help string, v func(*T) V) Family[T] {
	return Family[T]{name: name, help: help, typ: "counter", sample: func(r *T) string { return promValue(v(r)) }}
}

// Gauge is a family whose value may go down.
func Gauge[T any, V Sample](name, help string, v func(*T) V) Family[T] {
	return Family[T]{name: name, help: help, typ: "gauge", sample: func(r *T) string { return promValue(v(r)) }}
}

// Hist is a latency histogram family, written as _bucket, _sum and
// _count series with le edges in seconds.
func Hist[T any](name, help string, h func(*T) *HistSnapshot) Family[T] {
	return Family[T]{name: name, help: help, typ: "histogram", hist: h}
}

// WriteFamilies writes fams over rows in the Prometheus text format:
// each family's # HELP and # TYPE lines, then its samples, one per row
// in row order. label names the label that tells rows apart and key
// reads its value off a row; with label "" the samples carry no labels
// (and key may be nil), which suits a single row. The output is
// deterministic for given rows, so expositions can be golden-tested.
func WriteFamilies[T any](w io.Writer, label string, key func(*T) string, rows []T, fams []Family[T]) error {
	for _, f := range fams {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.typ); err != nil {
			return err
		}
		for i := range rows {
			r := &rows[i]
			labels := ""
			if label != "" {
				labels = promLabel(label, key(r))
			}
			var err error
			if f.hist != nil {
				err = f.hist(r).writeProm(w, f.name, labels)
			} else {
				err = writeSample(w, f.name, labels, f.sample(r))
			}
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// writeSample writes one sample line; labels is the label set without
// braces and may be empty.
func writeSample(w io.Writer, name, labels, value string) error {
	var err error
	if labels == "" {
		_, err = fmt.Fprintf(w, "%s %s\n", name, value)
	} else {
		_, err = fmt.Fprintf(w, "%s{%s} %s\n", name, labels, value)
	}
	return err
}

// promLabel renders name="value", escaping the value as the text format
// requires (backslash, double quote and newline). Label values are
// arbitrary bytes: tenant names come off the wire.
func promLabel(name, value string) string {
	if strings.ContainsAny(value, "\\\"\n") {
		value = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`).Replace(value)
	}
	return name + `="` + value + `"`
}

func promValue[V Sample](v V) string {
	switch x := any(v).(type) {
	case time.Duration:
		return promFloat(x.Seconds())
	case float64:
		return promFloat(x)
	case uint64:
		return strconv.FormatUint(x, 10)
	}
	return strconv.FormatInt(int64(v), 10)
}

// promFloat renders integral values without an exponent, everything
// else in Go's shortest form.
func promFloat(v float64) string {
	if v == float64(int64(v)) {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// writeProm writes the snapshot as Prometheus histogram series:
// cumulative name_bucket lines (le in seconds, one per octave —
// sub-buckets are summed into their octave, so a scrape stays
// HistBuckets lines a series — emitted up to the last occupied octave
// plus +Inf), then name_sum and name_count. labels is the row's label
// set without braces; it may be empty.
func (s HistSnapshot) writeProm(w io.Writer, name, labels string) error {
	le := func(bound string) string {
		if labels == "" {
			return promLabel("le", bound)
		}
		return labels + "," + promLabel("le", bound)
	}
	var octaves [HistBuckets]int64
	last := -1
	for i, c := range s.Counts {
		if c != 0 {
			last = octaveOf(i)
			octaves[last] += c
		}
	}
	var cum int64
	for i := 0; i <= last && i < HistBuckets-1; i++ {
		cum += octaves[i]
		if err := writeSample(w, name+"_bucket", le(promValue(BucketUpper(i))), promValue(cum)); err != nil {
			return err
		}
	}
	if err := writeSample(w, name+"_bucket", le("+Inf"), promValue(s.Count)); err != nil {
		return err
	}
	if err := writeSample(w, name+"_sum", labels, promValue(s.Sum)); err != nil {
		return err
	}
	return writeSample(w, name+"_count", labels, promValue(s.Count))
}
