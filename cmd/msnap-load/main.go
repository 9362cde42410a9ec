// Command msnap-load is the external load generator for the real-TCP
// data plane: configurable connections × pipeline depth × get/put mix
// with zipfian key popularity against a running msnap-serve, reporting
// wall-clock ops/s and client-visible tail latency.
//
// Usage:
//
//	msnap-load -addr HOST:PORT [flags]
//
// Latencies are wall-clock: this tool measures the real service
// boundary, not the simulation inside it. The server's steady-state
// allocations per op are gated by netsvc.TestSteadyStateAllocsPerOp;
// the benchmark/ module (BENCHMARK.json) measures the same path with
// per-layer counters.
//
// With -sample N, one in N requests carries wire trace context; the
// client records its round-trip spans and -trace-out writes them as
// Chrome trace-event JSON. The server half of each sampled flow shows
// up in that server's /tracez, sharing the flow ids. Tenant popularity
// is zipfian (like keys), so the server's /topz ranking has real skew
// to rank.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"memsnap/internal/netsvc"
	"memsnap/internal/obs"
	"memsnap/internal/proto"
	"memsnap/internal/sim"
)

type config struct {
	Addr     string  `json:"addr"`
	Conns    int     `json:"conns"`
	Pipeline int     `json:"pipeline"`
	Ops      int64   `json:"ops"`
	Warmup   int64   `json:"warmup"`
	GetPct   int     `json:"get_pct"`
	Tenants  int     `json:"tenants"`
	Keys     int     `json:"keys"`
	Theta    float64 `json:"theta"`
	Seed     uint64  `json:"seed"`
	Sample   int     `json:"sample,omitempty"`
}

type latencyUs struct {
	P50  float64 `json:"p50"`
	P99  float64 `json:"p99"`
	P999 float64 `json:"p999"`
	Mean float64 `json:"mean"`
	Max  float64 `json:"max"`
}

type result struct {
	Ops            int64     `json:"ops"`
	Retries        int64     `json:"retries"`
	ElapsedSeconds float64   `json:"elapsed_seconds"`
	OpsPerSec      float64   `json:"ops_per_sec"`
	LatencyUs      latencyUs `json:"latency_us"`
}

type report struct {
	Note   string `json:"note"`
	Config config `json:"config"`
	Result result `json:"result"`
}

func main() { os.Exit(run()) }

func run() int {
	var cfg config
	flag.StringVar(&cfg.Addr, "addr", "", "server address (required)")
	flag.IntVar(&cfg.Conns, "conns", 4, "client connections")
	flag.IntVar(&cfg.Pipeline, "pipeline", 16, "pipeline depth (concurrent ops per connection)")
	flag.Int64Var(&cfg.Ops, "ops", 20000, "measured operations")
	flag.Int64Var(&cfg.Warmup, "warmup", 2000, "warmup operations before the measured window")
	flag.IntVar(&cfg.GetPct, "get", 80, "percentage of gets (rest are puts)")
	flag.IntVar(&cfg.Tenants, "tenants", 4, "tenant count")
	flag.IntVar(&cfg.Keys, "keys", 10000, "key-space size")
	flag.Float64Var(&cfg.Theta, "theta", 0.99, "zipfian skew (0 < theta < 1)")
	flag.Uint64Var(&cfg.Seed, "seed", 1, "workload RNG seed")
	flag.IntVar(&cfg.Sample, "sample", 0, "trace-sample one in N requests onto the wire (0: tracing off)")
	traceOut := flag.String("trace-out", "", "write the client-side trace (Chrome trace-event JSON) to this path")
	out := flag.String("out", "", "write a JSON report to this path")
	flag.Parse()

	if cfg.Addr == "" {
		fmt.Fprintln(os.Stderr, "msnap-load: -addr is required")
		return 2
	}

	// One recorder for the run, holding the clients' round-trip lanes.
	var rec *obs.Recorder
	if cfg.Sample > 0 {
		rec = obs.NewRecorder(1 << 16)
	}

	clients, err := dialAll(cfg.Addr, cfg.Conns, cfg.Pipeline)
	if err != nil {
		fmt.Fprintf(os.Stderr, "msnap-load: %v\n", err)
		return 1
	}
	defer func() {
		for _, c := range clients {
			c.Close()
		}
	}()

	// Client-side trace sampling: one shared sampler (so the effective
	// rate is one in N across the whole run), each client on its own
	// lane. Span timestamps are wall time since the run started — the
	// client has no virtual clock.
	if cfg.Sample > 0 {
		sampler := obs.NewSampler(cfg.Seed, cfg.Sample)
		epoch := time.Now() //lint:allow walltime client trace timeline origin
		now := func() time.Duration {
			return time.Since(epoch) //lint:allow walltime client trace timestamps
		}
		for i, c := range clients {
			c.EnableTracing(netsvc.Tracing{
				Recorder: rec, Sampler: sampler, Now: now, Track: obs.ClientTrack(i),
			})
		}
	}

	// Pre-built workload vocabulary: all key/tenant bytes exist before
	// the measured window, keeping formatting off the timed path.
	tenants := make([][]byte, cfg.Tenants)
	for i := range tenants {
		tenants[i] = []byte(fmt.Sprintf("t%02d", i))
	}
	keys := make([][]byte, cfg.Keys)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("key%06d", i))
	}
	zipf := sim.NewZipf(int64(cfg.Keys), cfg.Theta)

	// Warmup: populate server-side intern tables, pools and map
	// buckets, and heat the key space.
	if cfg.Warmup > 0 {
		drive(clients, cfg, tenants, keys, zipf, cfg.Warmup, 0, nil)
	}

	var hist obs.Histogram
	start := time.Now() //lint:allow walltime load generator measures the real service boundary
	drive(clients, cfg, tenants, keys, zipf, cfg.Ops, 1, &hist)
	elapsed := time.Since(start) //lint:allow walltime load generator measures the real service boundary

	var retries int64
	for _, c := range clients {
		retries += c.Retries()
	}
	snap := hist.Snapshot()
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	res := result{
		Ops:            cfg.Ops,
		Retries:        retries,
		ElapsedSeconds: elapsed.Seconds(),
		OpsPerSec:      float64(cfg.Ops) / elapsed.Seconds(),
		LatencyUs: latencyUs{
			P50:  us(snap.P50()),
			P99:  us(snap.P99()),
			P999: us(snap.P999()),
			Mean: us(snap.Mean()),
			Max:  us(snap.Max),
		},
	}
	fmt.Printf("msnap-load: %d ops in %.2fs = %.0f ops/s  p50=%.1fus p99=%.1fus p999=%.1fus  retries=%d\n",
		res.Ops, res.ElapsedSeconds, res.OpsPerSec,
		res.LatencyUs.P50, res.LatencyUs.P99, res.LatencyUs.P999, res.Retries)

	if *out != "" {
		rep := report{
			Note:   "msnap-load against msnap-serve over TCP; wall-clock client-visible latency",
			Config: cfg,
			Result: res,
		}
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "msnap-load: %v\n", err)
			return 1
		}
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "msnap-load: %v\n", err)
			return 1
		}
		fmt.Printf("report written to %s\n", *out)
	}

	if *traceOut != "" && rec != nil {
		f, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "msnap-load: %v\n", err)
			return 1
		}
		if err := obs.WriteTrace(f, rec.Drain()); err != nil {
			f.Close()
			fmt.Fprintf(os.Stderr, "msnap-load: trace: %v\n", err)
			return 1
		}
		if err := f.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "msnap-load: %v\n", err)
			return 1
		}
		fmt.Printf("trace written to %s\n", *traceOut)
	}
	return 0
}

// dialAll connects n pipelined clients, retrying briefly so a server
// that is still binding (CI backgrounds it) does not fail the run.
func dialAll(addr string, n, depth int) ([]*netsvc.Client, error) {
	clients := make([]*netsvc.Client, 0, n)
	for i := 0; i < n; i++ {
		var c *netsvc.Client
		var err error
		for attempt := 0; attempt < 50; attempt++ {
			c, err = netsvc.Dial(addr, depth)
			if err == nil {
				break
			}
			time.Sleep(100 * time.Millisecond) //lint:allow walltime dial retry against a real server
		}
		if err != nil {
			for _, cc := range clients {
				cc.Close()
			}
			return nil, fmt.Errorf("dial %s: %w", addr, err)
		}
		clients = append(clients, c)
	}
	return clients, nil
}

// drive runs total ops across every client × pipeline-depth worker.
// Each worker owns a deterministic RNG derived from the seed, so the
// key sequence replays bit-for-bit; hist (when set) records per-op
// wall latency including RETRY_AFTER backoff and resends.
func drive(clients []*netsvc.Client, cfg config, tenants, keys [][]byte, zipf *sim.Zipf, total int64, phase uint64, hist *obs.Histogram) {
	var counter atomic.Int64
	var wg sync.WaitGroup
	var failed atomic.Int64
	// Tenant popularity is zipfian too (same theta as the key space):
	// real multi-tenant load is skewed, and the skew is what the
	// server-side top-K attribution sketch is built to rank.
	tzipf := sim.NewZipf(int64(cfg.Tenants), cfg.Theta)
	for ci, c := range clients {
		for p := 0; p < cfg.Pipeline; p++ {
			wg.Add(1)
			go func(c *netsvc.Client, worker uint64) {
				defer wg.Done()
				rng := sim.NewRNG(cfg.Seed + phase<<32 + worker)
				var q proto.Request
				for counter.Add(1) <= total {
					q = proto.Request{
						Tenant: tenants[tzipf.Next(rng)],
						Key:    keys[zipf.Next(rng)],
					}
					if rng.Intn(100) < cfg.GetPct {
						q.Kind = proto.KindGet
					} else {
						q.Kind = proto.KindPut
						q.Value = rng.Uint64() % 1000
					}
					opStart := time.Now() //lint:allow walltime client-visible latency of the real service
					p, err := c.Do(&q)
					if err != nil {
						failed.Add(1)
						return
					}
					if hist != nil {
						hist.Record(time.Since(opStart)) //lint:allow walltime client-visible latency of the real service
					}
					if p.Status != proto.StatusOK {
						failed.Add(1)
						return
					}
				}
			}(c, uint64(ci)*uint64(cfg.Pipeline)+uint64(p))
		}
	}
	wg.Wait()
	if n := failed.Load(); n > 0 {
		fmt.Fprintf(os.Stderr, "msnap-load: %d workers aborted on errors\n", n)
		os.Exit(1)
	}
}
