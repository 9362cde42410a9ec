// Command msnap-trace runs a replicated shard workload with lifecycle
// tracing enabled and exports the result as Chrome trace-event JSON
// (loadable in Perfetto or chrome://tracing), optionally serving the
// live observability endpoint.
//
// Usage:
//
//	msnap-trace [-shards N] [-clients C] [-ops K] [-seed S] [-out trace.json]
//	msnap-trace -smoke [-listen 127.0.0.1:0]
//	msnap-trace -serve [-listen 127.0.0.1:8091]
//
// The default mode runs the workload and writes the drained trace to
// -out. -smoke additionally starts the TCP observability endpoint,
// self-scrapes /metricz, /varz and /tracez over real loopback
// connections, validates the JSON payloads, and writes the scraped
// trace to -out — the CI smoke path. -serve runs the workload and then
// keeps serving the endpoint until the process is killed.
//
// All timestamps in the exported trace are virtual time: the workload
// is a simulation, and the trace shows its simulated concurrency, not
// host scheduling.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net" //lint:allow sockio smoke client for the obs loopback endpoint
	"os"
	"sync"

	"memsnap/internal/cluster"
	"memsnap/internal/core"
	"memsnap/internal/obs"
	"memsnap/internal/replica"
	"memsnap/internal/shard"
	"memsnap/internal/sim"
)

func main() { os.Exit(run()) }

func run() int {
	shards := flag.Int("shards", 4, "shard count (primary and follower)")
	clients := flag.Int("clients", 4, "concurrent workload clients")
	ops := flag.Int("ops", 200, "operations per client")
	keys := flag.Int("keys", 512, "key-space size per tenant")
	seed := flag.Uint64("seed", 1, "workload RNG seed")
	ring := flag.Int("ring", 1<<16, "trace ring capacity in events")
	sample := flag.Int("sample", 64, "trace-sample one in N workload writes into request flows (0: off)")
	out := flag.String("out", "trace.json", "trace output path (empty: skip the file)")
	listen := flag.String("listen", "127.0.0.1:0", "observability endpoint address (-smoke/-serve)")
	smoke := flag.Bool("smoke", false, "serve the endpoint, self-scrape and validate /metricz, /varz and /tracez, then exit")
	serveMode := flag.Bool("serve", false, "keep serving the endpoint after the workload until killed")
	flag.Parse()

	rec := obs.NewRecorder(*ring)

	// Primary and follower each get their own machine (their own disk
	// array — the follower survives the primary's death).
	sketch := obs.NewTenantSketch(obs.DefaultTenantTopK)
	c, err := cluster.New(cluster.Config{
		Machine: core.Options{CPUs: *shards, DiskBytesEach: 512 << 20},
		Shard:   shard.Config{Shards: *shards, Recorder: rec, Tenants: sketch},
		Replica: &replica.Config{Mode: replica.Async},
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "msnap-trace: %v\n", err)
		return 1
	}
	defer c.Close()

	var sampler *obs.Sampler
	if *sample > 0 {
		sampler = obs.NewSampler(*seed, *sample)
	}
	runWorkload(c.Svc, *clients, *ops, *keys, *seed, sampler)

	total := c.Svc.TotalStats()
	fmt.Printf("workload done: %d ops, %d commits, %d trace events recorded\n",
		total.Ops, total.Commits, total.Obs.Recorded)

	// The boundary clock gives /varz a virtual "now": the furthest any
	// worker has advanced.
	bclk := sim.NewClock()
	bclk.AdvanceTo(total.Elapsed)

	src := obs.ServerSources{
		Metrics: c.WritePrometheus,
		Vars:    func() any { return c.Vars() },
		Trace:   rec.Drain,
		Clock:   bclk,
		TopK:    sketch.Top,
	}

	switch {
	case *smoke:
		return runSmoke(*listen, src, *out)
	case *serveMode:
		srv, err := obs.Serve(*listen, src)
		if err != nil {
			fmt.Fprintf(os.Stderr, "msnap-trace: serve: %v\n", err)
			return 1
		}
		fmt.Printf("serving http://%s/{metricz,varz,tracez} (kill to stop)\n", srv.Addr())
		select {}
	default:
		if *out == "" {
			return 0
		}
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "msnap-trace: %v\n", err)
			return 1
		}
		if err := obs.WriteTrace(f, rec.Drain()); err != nil {
			f.Close()
			fmt.Fprintf(os.Stderr, "msnap-trace: %v\n", err)
			return 1
		}
		if err := f.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "msnap-trace: %v\n", err)
			return 1
		}
		fmt.Printf("trace written to %s\n", *out)
		return 0
	}
}

// runWorkload drives clients concurrent goroutines of mixed
// put/add/get traffic over a deterministic key walk. When sampler is
// set, sampled writes carry a trace id so their commit, ship and apply
// spans stitch into request flows.
func runWorkload(svc *shard.Service, clients, ops, keys int, seed uint64, sampler *obs.Sampler) {
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := sim.NewRNG(seed + uint64(c)*0x9e3779b9)
			tenant := fmt.Sprintf("t%d", c%3)
			for i := 0; i < ops; i++ {
				key := fmt.Sprintf("k%04d", (c*7919+i*613)%keys)
				switch rng.Intn(4) {
				case 0:
					svc.Get(tenant, key)
				case 1:
					svc.Add(tenant, key, uint64(i%7+1))
				default:
					op := shard.Op{Kind: shard.OpPut, Tenant: tenant, Key: key,
						Value: uint64(c)<<32 | uint64(i)}
					if id, ok := sampler.Sample(); ok {
						op.TraceID = id
					}
					svc.Do(op)
				}
			}
		}(c)
	}
	wg.Wait()
}

// runSmoke starts the endpoint, scrapes all three paths over real TCP,
// validates each payload, and writes the scraped trace to out.
func runSmoke(listen string, src obs.ServerSources, out string) int {
	srv, err := obs.Serve(listen, src)
	if err != nil {
		fmt.Fprintf(os.Stderr, "msnap-trace: serve: %v\n", err)
		return 1
	}
	defer srv.Close()
	fmt.Printf("smoke: endpoint on %s\n", srv.Addr())

	fail := func(format string, args ...any) int {
		fmt.Fprintf(os.Stderr, "msnap-trace: smoke: "+format+"\n", args...)
		return 1
	}

	code, metrics, err := get(srv.Addr(), "/metricz")
	if err != nil || code != 200 {
		return fail("/metricz: code %d err %v", code, err)
	}
	for _, want := range []string{
		"memsnap_shard_commit_latency_seconds_bucket",
		"memsnap_shard_persist_latency_seconds_count",
		"memsnap_obs_events_recorded_total",
		"memsnap_replica_ack_latency_seconds_count",
		"memsnap_tenant_ops",
		"memsnap_tenant_wire_bytes",
	} {
		if !bytes.Contains(metrics, []byte(want)) {
			return fail("/metricz missing series %s", want)
		}
	}
	fmt.Printf("smoke: /metricz ok (%d bytes)\n", len(metrics))

	code, varz, err := get(srv.Addr(), "/varz")
	if err != nil || code != 200 {
		return fail("/varz: code %d err %v", code, err)
	}
	var vdoc struct {
		VirtualSeconds float64        `json:"virtual_now_seconds"`
		Vars           map[string]any `json:"vars"`
	}
	if err := json.Unmarshal(varz, &vdoc); err != nil {
		return fail("/varz is not valid JSON: %v", err)
	}
	if vdoc.VirtualSeconds <= 0 || vdoc.Vars["total"] == nil {
		return fail("/varz payload incomplete: now=%v keys=%d", vdoc.VirtualSeconds, len(vdoc.Vars))
	}
	fmt.Printf("smoke: /varz ok (virtual now %.6fs, %d bytes)\n", vdoc.VirtualSeconds, len(varz))

	code, health, err := get(srv.Addr(), "/healthz")
	if err != nil || code != 200 {
		return fail("/healthz: code %d err %v", code, err)
	}
	fmt.Printf("smoke: /healthz ok (%s)\n", bytes.TrimSpace(health))

	code, topz, err := get(srv.Addr(), "/topz")
	if err != nil || code != 200 {
		return fail("/topz: code %d err %v", code, err)
	}
	var topdoc struct {
		Tenants []struct {
			Tenant string `json:"tenant"`
			Ops    uint64 `json:"ops"`
		} `json:"tenants"`
	}
	if err := json.Unmarshal(topz, &topdoc); err != nil {
		return fail("/topz is not valid JSON: %v", err)
	}
	if len(topdoc.Tenants) == 0 || topdoc.Tenants[0].Ops == 0 {
		return fail("/topz ranked no tenant activity: %s", topz)
	}
	fmt.Printf("smoke: /topz ok (%d tenants, top %q with %d ops)\n",
		len(topdoc.Tenants), topdoc.Tenants[0].Tenant, topdoc.Tenants[0].Ops)

	code, trace, err := get(srv.Addr(), "/tracez")
	if err != nil || code != 200 {
		return fail("/tracez: code %d err %v", code, err)
	}
	var tdoc struct {
		DisplayTimeUnit string           `json:"displayTimeUnit"`
		TraceEvents     []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(trace, &tdoc); err != nil {
		return fail("/tracez is not valid JSON: %v", err)
	}
	if len(tdoc.TraceEvents) == 0 {
		return fail("/tracez drained no events")
	}
	lanes := map[string]bool{}
	flows := map[string][]string{}
	for _, ev := range tdoc.TraceEvents {
		if cat, ok := ev["cat"].(string); ok {
			lanes[cat] = true
		}
		if ph, _ := ev["ph"].(string); ph == "s" || ph == "t" || ph == "f" {
			id, _ := ev["id"].(string)
			flows[id] = append(flows[id], ph)
		}
	}
	for _, want := range []string{"vm", "persist", "shard", "replica"} {
		if !lanes[want] {
			return fail("/tracez missing %q events (have %v)", want, lanes)
		}
	}
	if len(flows) == 0 {
		return fail("/tracez has no request flow events (sampling should have tagged some commits)")
	}
	for id, phases := range flows {
		if phases[0] != "s" || phases[len(phases)-1] != "f" {
			return fail("/tracez flow %s malformed: %v", id, phases)
		}
	}
	fmt.Printf("smoke: /tracez ok (%d events across %d categories, %d request flows)\n",
		len(tdoc.TraceEvents), len(lanes), len(flows))

	if out != "" {
		if err := os.WriteFile(out, trace, 0o644); err != nil {
			return fail("writing %s: %v", out, err)
		}
		fmt.Printf("smoke: trace written to %s\n", out)
	}
	return 0
}

// get performs one minimal HTTP GET over a fresh loopback connection.
func get(addr, path string) (int, []byte, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return 0, nil, err
	}
	defer conn.Close()
	if _, err := fmt.Fprintf(conn, "GET %s HTTP/1.0\r\nHost: msnap\r\n\r\n", path); err != nil {
		return 0, nil, err
	}
	br := bufio.NewReader(conn)
	status, err := br.ReadString('\n')
	if err != nil {
		return 0, nil, err
	}
	var proto string
	var code int
	if _, err := fmt.Sscanf(status, "%s %d", &proto, &code); err != nil {
		return 0, nil, fmt.Errorf("bad status line %q", status)
	}
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			return 0, nil, err
		}
		if line == "\r\n" || line == "\n" {
			break
		}
	}
	body, err := io.ReadAll(br)
	return code, body, err
}
