// Command msnap-serve runs the μCheckpoint-backed shard service
// behind the real-TCP data plane: a standalone server any
// proto-speaking client (cmd/msnap-load, or anything implementing the
// wire format in internal/proto) can drive over the network.
//
// Usage:
//
//	msnap-serve [-addr HOST:PORT] [-obs HOST:PORT] [-shards N]
//	            [-queue N] [-batch N] [-inflight N] [-flight PATH]
//
// The data plane listens on -addr. With -obs set, the observability
// endpoint from internal/obs also comes up, serving combined shard +
// network + per-tenant metrics on /metricz, JSON state on /varz, the
// lifecycle trace on /tracez, liveness on /healthz and the tenant
// top-K on /topz. Requests arriving with wire trace context (sampled
// by a tracing client) record net-lane spans into the shared ring, so
// /tracez stitches client-visible requests into the shard and replica
// lanes. SIGINT/SIGTERM trigger a graceful drain: /healthz flips to
// draining, the server stops accepting, completes every in-flight
// pipelined request with its real durable outcome, then closes the
// shard service. With -flight set, a flight-recorder bundle is written
// there on shutdown — and on panic, before the process dies.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sync/atomic"
	"syscall"

	"memsnap/internal/cluster"
	"memsnap/internal/core"
	"memsnap/internal/netsvc"
	"memsnap/internal/obs"
	"memsnap/internal/shard"
)

func main() { os.Exit(run()) }

func run() int {
	addr := flag.String("addr", "127.0.0.1:4700", "data-plane listen address")
	obsAddr := flag.String("obs", "", "observability listen address (empty: disabled)")
	shards := flag.Int("shards", 8, "shard count")
	queue := flag.Int("queue", 256, "per-shard request queue depth")
	batch := flag.Int("batch", 16, "max write ops per group commit")
	inflight := flag.Int("inflight", 64, "per-connection pipeline bound")
	flight := flag.String("flight", "", "write a flight-recorder bundle here on shutdown and panic (empty: disabled)")
	flag.Parse()

	rec := obs.NewRecorder(1 << 14)
	sketch := obs.NewTenantSketch(obs.DefaultTenantTopK)
	c, err := cluster.New(cluster.Config{
		Machine: core.Options{CPUs: *shards, DiskBytesEach: 512 << 20},
		Shard: shard.Config{
			Shards: *shards, QueueDepth: *queue, BatchSize: *batch, Recorder: rec,
			Tenants: sketch,
		},
		Listen: *addr,
		Net:    netsvc.Config{MaxInFlight: *inflight},
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "msnap-serve: %v\n", err)
		return 1
	}
	fmt.Printf("msnap-serve: data plane on %s (%d shards)\n", c.Srv.Addr(), *shards)

	writeFlight := func(reason string) {
		if *flight == "" {
			return
		}
		b := obs.Bundle{
			Reason: reason, VirtualNow: c.Svc.EndTime(),
			Vars: c.Vars(), Metrics: c.WritePrometheus, Recorder: rec,
		}
		if err := obs.WriteBundleFile(*flight, b); err != nil {
			fmt.Fprintf(os.Stderr, "msnap-serve: flight bundle: %v\n", err)
			return
		}
		fmt.Printf("msnap-serve: flight bundle written to %s\n", *flight)
	}
	// The black-box contract: if serving panics, the bundle still gets
	// written before the process dies.
	defer func() {
		if p := recover(); p != nil {
			writeFlight(fmt.Sprintf("panic: %v", p))
			panic(p)
		}
	}()

	var draining atomic.Bool
	var osrv *obs.Server
	if *obsAddr != "" {
		osrv, err = obs.Serve(*obsAddr, obs.ServerSources{
			Metrics: c.WritePrometheus,
			Vars:    func() any { return c.Vars() },
			Trace:   rec.Drain,
			Health: func() (bool, string) {
				if draining.Load() {
					return false, "draining"
				}
				return true, "serving"
			},
			TopK: sketch.Top,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "msnap-serve: %v\n", err)
			return 1
		}
		fmt.Printf("msnap-serve: observability on %s\n", osrv.Addr())
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig

	// Graceful drain: flip /healthz to draining, then data plane first
	// (completes every admitted request), then the shard service, then
	// observability — so the endpoint answers 503 while draining.
	draining.Store(true)
	if err := c.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "msnap-serve: drain: %v\n", err)
		return 1
	}
	writeFlight("SIGTERM: graceful drain complete")
	if osrv != nil {
		osrv.Close()
	}
	st := c.Srv.Stats()
	fmt.Printf("msnap-serve: drained (%d requests, %d responses, %d retry_after)\n",
		st.Requests, st.Responses, st.RetryAfter)
	return 0
}
