package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// processStart is the origin of span timestamps: package variables
// initialise before main, so this is as close to process start as the
// program can see.
var processStart = time.Now() //lint:allow walltime origin of the benchmark's own trace timeline

func now() time.Time {
	return time.Now() //lint:allow walltime the benchmark measures host time at the service boundary
}

// fingerprint is the environment a set of numbers was taken in, so a
// trajectory across commits can tell a code change from a machine
// change.
type fingerprint struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go"`
	Kernel     string  `json:"kernel"`
	Commit     string  `json:"commit"`
	CalibNs    float64 `json:"calib_ns"`
}

func (f fingerprint) String() string {
	return fmt.Sprintf("nproc=%d gomaxprocs=%d %s kernel=%s commit=%s calib_ns=%.0f",
		f.NProc, f.GOMAXPROCS, f.GoVersion, f.Kernel, f.Commit, f.CalibNs)
}

func takeFingerprint() fingerprint {
	kernel := "unknown"
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		kernel = strings.TrimSpace(string(b))
	}
	commit := os.Getenv("BENCH_COMMIT") // set by run.sh; the checkout may not be a git repository
	if commit == "" {
		commit = "unknown"
	}
	return fingerprint{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Kernel:     kernel,
		Commit:     commit,
		CalibNs:    calibrate(),
	}
}

var calibSink uint64

// calibrate times a fixed pure-CPU loop (no memory traffic, no
// allocation): the same code on a slower or busier core reads higher,
// which is how a reader separates machine noise from a regression.
func calibrate() float64 {
	const iters = 20_000_000
	best := time.Duration(1 << 62)
	for round := 0; round < 3; round++ {
		x := uint64(88172645463325252)
		start := time.Now() //lint:allow walltime calibration loop measures the host CPU
		for i := 0; i < iters; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		d := time.Since(start) //lint:allow walltime calibration loop measures the host CPU
		calibSink += x
		if d < best {
			best = d
		}
	}
	return float64(best)
}

// cpuTime returns the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// procIO is the read/write syscall count of this process, from
// /proc/self/io. ok is false where the file is missing.
type procIO struct {
	syscr, syscw int64
	ok           bool
}

func readProcIO() procIO {
	b, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return procIO{}
	}
	var io procIO
	for _, line := range bytes.Split(b, []byte("\n")) {
		k, v, found := bytes.Cut(line, []byte(": "))
		if !found {
			continue
		}
		n, err := strconv.ParseInt(string(v), 10, 64)
		if err != nil {
			continue
		}
		switch string(k) {
		case "syscr":
			io.syscr, io.ok = n, true
		case "syscw":
			io.syscw = n
		}
	}
	return io
}
