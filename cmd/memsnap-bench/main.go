// Command memsnap-bench regenerates the paper's tables and figures on
// the simulated machine.
//
// Usage:
//
//	memsnap-bench -list
//	memsnap-bench [-scale S] [-threads N] [-seed K] all
//	memsnap-bench [-scale S] table6 fig3 ...
//
// Each experiment prints a table mirroring the paper's layout, with
// notes recording the scaled-down workload parameters. Virtual-time
// microseconds are directly comparable to the paper's measured
// microseconds in shape (see EXPERIMENTS.md for the side-by-side).
// The single-threaded tables are pinned byte for byte by the goldens
// under internal/harness/testdata; simulator speed is measured by the
// benchmark/ module (BENCHMARK.json).
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"memsnap/internal/harness"
)

func main() {
	list := flag.Bool("list", false, "list available experiments")
	scale := flag.Float64("scale", 1.0, "workload scale factor (1.0 = harness default)")
	threads := flag.Int("threads", 4, "worker threads for multi-threaded experiments")
	seed := flag.Uint64("seed", 1, "workload RNG seed")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: %s [flags] <experiment>... | all\n\nflags:\n", os.Args[0])
		flag.PrintDefaults()
		fmt.Fprintf(os.Stderr, "\nexperiments:\n")
		for _, e := range harness.Registry() {
			fmt.Fprintf(os.Stderr, "  %-18s %s\n", e.ID, e.Title)
		}
	}
	flag.Parse()

	if *list {
		for _, e := range harness.Registry() {
			fmt.Printf("%-18s %s\n", e.ID, e.Title)
		}
		return
	}

	args := flag.Args()
	if len(args) == 0 {
		flag.Usage()
		os.Exit(2)
	}

	opts := harness.Options{Scale: *scale, Threads: *threads, Seed: *seed}

	var experiments []harness.Experiment
	if len(args) == 1 && args[0] == "all" {
		experiments = harness.Registry()
	} else {
		for _, id := range args {
			e, ok := harness.Find(id)
			if !ok {
				fmt.Fprintf(os.Stderr, "unknown experiment %q (try -list)\n", id)
				os.Exit(2)
			}
			experiments = append(experiments, e)
		}
	}

	for _, e := range experiments {
		// Reporting how long the run took on the operator's machine is
		// the one place wall-clock time is the point; no simulated
		// result depends on it.
		start := time.Now() //lint:allow walltime real-time progress report, not simulated work
		res, err := e.Run(opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.ID, err)
			os.Exit(1)
		}
		//lint:allow walltime real-time progress report, not simulated work
		fmt.Printf("%s\n(%s completed in %.1fs real time)\n\n", res.Format(), e.ID, time.Since(start).Seconds())
	}
}
