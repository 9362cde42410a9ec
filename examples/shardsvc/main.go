// shardsvc: a sharded multi-tenant KV service with group-commit
// uCheckpoints.
//
// A router hashes (tenant, key) pairs across 8 shards. Each shard owns
// one MemSnap region and a worker that coalesces client writes into
// group commits: one Persist(Async) per batch, with the next batch
// applied in memory while the previous batch's IO is in flight. A
// write is acknowledged only once its group commit is durable.
//
// The example serves a concurrent workload, prints per-shard serving
// statistics, then fires a burst of UNacknowledged transfers, cuts
// power while their commits are mid-flight, recovers, and audits two
// invariants: every acknowledged write survived, and the cross-shard
// value sum is exact (transfers move value, never create it).
//
//	go run ./examples/shardsvc
package main

import (
	"fmt"
	"log"
	"sync"
	"time"

	"memsnap/internal/cluster"
	"memsnap/internal/core"
	"memsnap/internal/shard"
	"memsnap/internal/sim"
)

const (
	shards    = 8
	clients   = 4 * shards
	opsPerCli = 100
	bankFunds = 1000
)

// findPair returns two distinct keys that both route to shard sh.
func findPair(svc *shard.Service, tenant string, sh int) (string, string) {
	var pair []string
	for i := 0; len(pair) < 2; i++ {
		key := fmt.Sprintf("acct-%04d", i)
		if svc.ShardOf(tenant, key) == sh {
			pair = append(pair, key)
		}
	}
	return pair[0], pair[1]
}

func main() {
	c, err := cluster.New(cluster.Config{
		Machine: core.Options{CPUs: shards, DiskBytesEach: 512 << 20},
		Shard:   shard.Config{Shards: shards, BatchSize: 16},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer c.Close()
	svc := c.Svc

	// Phase 1: concurrent serving. 4 clients per shard, each keeping a
	// window of async requests in flight (a pipelined RPC client), so
	// shard workers find full queues and coalesce writes into group
	// commits.
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			const window = 16
			tenant := fmt.Sprintf("tenant-%02d", c%8)
			// Op i reuses op i-window's channel, after waiting on it:
			// window ops stay outstanding, collected oldest first.
			var resps [window]chan shard.Response
			for k := range resps {
				resps[k] = make(chan shard.Response, 1)
			}
			for i := 0; i < opsPerCli+window; i++ {
				ch := resps[i%window]
				if i >= window {
					if resp := <-ch; resp.Err != nil {
						log.Fatal(resp.Err)
					}
				}
				if i >= opsPerCli {
					continue
				}
				key := fmt.Sprintf("k-%03d", (c*37+i)%64)
				if err := svc.DoTagged(shard.Op{Kind: shard.OpAdd, Tenant: tenant, Key: key, Value: 1}, 0, ch); err != nil {
					log.Fatal(err)
				}
			}
		}(c)
	}
	wg.Wait()

	fmt.Printf("served %d ops across %d shards (%d clients)\n\n", clients*opsPerCli, shards, clients)
	fmt.Println("shard  ops   commits  occupancy  p50(us)  p99(us)  queueHW")
	for _, st := range svc.Stats() {
		fmt.Printf("%5d  %4d  %7d  %9.1f  %7.1f  %7.1f  %7d\n",
			st.Shard, st.Ops, st.Commits, st.BatchOccupancy,
			float64(st.CommitHist.P50())/float64(time.Microsecond),
			float64(st.CommitHist.P99())/float64(time.Microsecond),
			st.QueueHighWater)
	}
	total := svc.TotalStats()
	fmt.Printf("total  %4d  %7d  %9.1f (batching saved %d of %d commits)\n\n",
		total.Ops, total.Commits, total.BatchOccupancy,
		total.Writes-total.Commits, total.Writes)

	// Phase 2: fund one bank account pair per shard (acknowledged, so
	// durable before any cut we inject later).
	var pairs [shards][2]string
	for sh := 0; sh < shards; sh++ {
		from, to := findPair(svc, "bank", sh)
		pairs[sh] = [2]string{from, to}
		if err := svc.Put("bank", from, bankFunds); err != nil {
			log.Fatal(err)
		}
	}
	expected, err := svc.TotalValueSum()
	if err != nil {
		log.Fatal(err)
	}

	// Everything acknowledged so far is durable no later than tSafe.
	tSafe := svc.TotalStats().LastCommitDurable

	// Phase 3: a burst of transfers nobody waits for, then a power cut
	// inside their commit window. Transfers are sum-neutral, so the
	// invariant must hold whichever group commits the cut tears.
	const rounds = 10
	unread := make(chan shard.Response, rounds*shards)
	for round := 0; round < rounds; round++ {
		for sh := 0; sh < shards; sh++ {
			err := svc.DoTagged(shard.Op{
				Kind: shard.OpTransfer, Tenant: "bank",
				Key: pairs[sh][0], Key2: pairs[sh][1], Value: 10,
			}, 0, unread)
			if err != nil {
				log.Fatal(err)
			}
		}
	}
	cutAt := c.CutPower(tSafe+time.Nanosecond, sim.NewRNG(7))
	fmt.Printf("power cut at %v (all acked writes durable by %v)\n\n", cutAt, tSafe)

	// Phase 4: recover. Every shard reopens at its last durable epoch;
	// the manifest is cross-checked against a full scan of its slots.
	if err := c.Recover(cutAt); err != nil {
		log.Fatal(err)
	}
	svc = c.Svc

	fmt.Println("shard  epoch  records  value sum  manifest==scan")
	for _, rec := range svc.Recovery() {
		if !rec.Existing {
			log.Fatalf("shard %d lost its region", rec.Shard)
		}
		fmt.Printf("%5d  %5d  %7d  %9d  %v\n",
			rec.Shard, rec.Epoch, rec.Records, rec.ValueSum, rec.Consistent())
		if !rec.Consistent() {
			log.Fatal("TORN SHARD — manifest does not describe the data")
		}
	}

	recovered, err := svc.TotalValueSum()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ncross-shard value sum after crash: %d (expected %d)\n", recovered, expected)
	if recovered != expected {
		log.Fatal("VALUE WAS CREATED OR DESTROYED — group commit atomicity violated")
	}
	for sh := 0; sh < shards; sh++ {
		from, _, _ := svc.Get("bank", pairs[sh][0])
		to, _, _ := svc.Get("bank", pairs[sh][1])
		if from+to != bankFunds {
			log.Fatalf("shard %d bank pair sums to %d", sh, from+to)
		}
	}
	fmt.Println("every shard recovered to a consistent group commit; all acked writes intact.")
}
