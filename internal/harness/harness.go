// Package harness reproduces the paper's evaluation: one experiment
// per table and figure, each returning a Result whose rows mirror the
// published layout. Absolute numbers are simulated microseconds on
// the calibrated machine model; EXPERIMENTS.md records the
// paper-vs-measured comparison.
//
// Experiments accept a Scale knob because the paper's full runs
// (e.g. 20M-key MixGraph fills, 2M-write dbbench) would take hours of
// real time in a simulator; each experiment documents its scaled
// parameters in the result notes.
package harness

import (
	"fmt"
	"strings"
	"time"
)

// Result is one regenerated table or figure.
type Result struct {
	// ID is the paper label, e.g. "table6" or "fig3".
	ID string
	// Title summarizes what the paper shows.
	Title string
	// Header names the columns.
	Header []string
	// Rows are the data series.
	Rows [][]string
	// Notes document scaling and interpretation.
	Notes []string
}

// Format renders the result as an aligned text table.
func (r *Result) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", r.ID, r.Title)
	widths := make([]int, len(r.Header))
	for i, h := range r.Header {
		widths[i] = len(h)
	}
	for _, row := range r.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	// The last cell is not padded, so no line carries trailing blanks
	// (the goldens under testdata are these lines).
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			if i == len(cells)-1 {
				b.WriteString(cell)
			} else {
				fmt.Fprintf(&b, "%-*s", widths[i], cell)
			}
		}
		b.WriteByte('\n')
	}
	writeRow(r.Header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range r.Rows {
		writeRow(row)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Options tunes experiment scale.
type Options struct {
	// Scale multiplies workload sizes; 1.0 is the harness default
	// (itself scaled down from the paper; see each experiment's
	// notes). Tests use smaller scales.
	Scale float64
	// Threads overrides worker counts where applicable.
	Threads int
	// Seed makes runs reproducible.
	Seed uint64
}

func (o Options) fill() Options {
	if o.Scale <= 0 {
		o.Scale = 1
	}
	if o.Threads <= 0 {
		o.Threads = 4
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// scaled returns max(1, int(base*o.Scale)).
func (o Options) scaled(base int) int {
	n := int(float64(base) * o.Scale)
	if n < 1 {
		n = 1
	}
	return n
}

// Experiment is a registered experiment.
type Experiment struct {
	ID    string
	Title string
	Run   func(Options) (*Result, error)
}

// Registry returns all experiments in paper order.
func Registry() []Experiment {
	return []Experiment{
		{"table1", "RocksDB CPU breakdown (baseline, MixGraph)", Table1},
		{"table2", "Aurora region-checkpoint latency breakdown", Table2},
		{"fig1", "Page-protection reset strategies vs dirty-set size", Figure1},
		{"table5", "msnap_persist breakdown (64 KiB)", Table5},
		{"table6", "Persistence API latency: direct IO vs fsync vs memsnap", Table6},
		{"fig3", "MemSnap vs Aurora checkpoint latency", Figure3},
		{"table7", "SQLite persistence syscalls (dbbench)", Table7},
		{"table8", "SQLite CPU usage and wall time (dbbench)", Table8},
		{"fig4", "SQLite transaction latency vs transaction size", Figure4},
		{"fig5", "SQLite TATP throughput vs database size", Figure5},
		{"table9", "RocksDB throughput and latency (MixGraph)", Table9},
		{"table10", "MemSnap vs Aurora persistence-op breakdown", Table10},
		{"fig6", "PostgreSQL TPC-C across storage variants", Figure6},
		{"ablation-tlb", "Ablation: TLB shootdown threshold", AblationTLBThreshold},
		{"ablation-store", "Ablation: COW radix store vs whole-object rewrite", AblationStoreBackend},
		{"ablation-skip", "Ablation: persisting skip pointers", AblationSkipPointers},
		{"ablation-writeamp", "Ablation: page-granularity write amplification", AblationWriteAmp},
		{"ablation-trace", "Ablation: trace buffer capacity vs reset cost", AblationTraceBuffer},
	}
}

// Find returns the experiment with the given ID.
func Find(id string) (Experiment, bool) {
	for _, e := range Registry() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// us renders a duration as microseconds with one decimal.
func us(d time.Duration) string {
	return fmt.Sprintf("%.1f", float64(d)/float64(time.Microsecond))
}

// usK renders microseconds, switching to "N.NK" above 10000 like the
// paper's tables.
func usK(d time.Duration) string {
	v := float64(d) / float64(time.Microsecond)
	if v >= 10000 {
		return fmt.Sprintf("%.1fK", v/1000)
	}
	return fmt.Sprintf("%.0f", v)
}

// pct renders a fraction as a percentage.
func pct(f float64) string { return fmt.Sprintf("%.1f%%", f*100) }

// count renders large counts in K units like Table 7.
func countK(n int64) string {
	if n >= 1000 {
		return fmt.Sprintf("%.1f K", float64(n)/1000)
	}
	return fmt.Sprintf("%d", n)
}
