// replica: primary/backup epoch shipping and failover for the shard
// service.
//
// A primary shard.Service replicates every group-commit uCheckpoint:
// after a batch's pages are durable locally, the captured dirty-page
// delta ships over a simulated link to a follower on its own disk
// array, which applies it as one synchronous uCheckpoint and acks. In
// sync mode the client ack waits for the follower ack, so an
// acknowledged write is durable on BOTH replicas.
//
// The example serves replicated writes, then cuts the link, cuts
// power on the primary mid-commit, fails over — the follower promotes
// through the standard manifest recovery path, the torn ex-primary
// recovers and rejoins as its follower — and proves both replicas
// converge to byte-identical regions. internal/cluster assembles the
// pair and runs the crash choreography.
//
//	go run ./examples/replica
package main

import (
	"errors"
	"fmt"
	"log"
	"os"
	"time"

	"memsnap/internal/cluster"
	"memsnap/internal/core"
	"memsnap/internal/replica"
	"memsnap/internal/shard"
	"memsnap/internal/sim"
)

const shards = 4

func main() {
	// The pair: primary and follower machines, a link, a sync shipper.
	c, err := cluster.New(cluster.Config{
		Machine: core.Options{CPUs: shards, DiskBytesEach: 512 << 20},
		Shard:   shard.Config{Shards: shards, BatchSize: 8},
		Replica: &replica.Config{Mode: replica.Sync},
		Link:    replica.LinkConfig{Seed: 7},
	})
	if err != nil {
		log.Fatal(err)
	}
	svc := c.Svc

	// Phase 1: replicated serving. Every acked write is durable on
	// both sides of the link before the client hears about it.
	for i := 0; i < 60; i++ {
		if err := svc.Put("acct", fmt.Sprintf("k-%03d", i), uint64(i)); err != nil {
			log.Fatal(err)
		}
	}
	seeded, err := svc.TotalValueSum()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("60 sync-replicated puts served (value sum %d)\n\n", seeded)
	fmt.Println("shard  shipped  acked  ack p99(us)  follower seq")
	folStats := c.Fol.Stats()
	for _, rs := range c.Ship.Stats() {
		fmt.Printf("%5d  %7d  %5d  %11.1f  %12d\n",
			rs.Shard, rs.Shipped, rs.Acked,
			float64(rs.AckHist.P99())/float64(time.Microsecond),
			folStats[rs.Shard].LastSeq)
	}

	// Phase 2: cut the link, then keep writing. Sync mode turns a
	// dead link into a clean client-visible error — never a silent
	// loss.
	linkCutAt := svc.TotalStats().LastCommitDurable + time.Millisecond
	c.Link.Cut(linkCutAt)
	acked, failed := 0, 0
	ackedKeys := map[string]uint64{}
	for i := 0; i < 20; i++ {
		k, v := fmt.Sprintf("tail-%02d", i), uint64(1000+i)
		err := svc.Put("acct", k, v)
		switch {
		case err == nil:
			acked++
			ackedKeys[k] = v
		case errors.Is(err, replica.ErrLinkDown):
			failed++
		default:
			log.Fatalf("tail put: unclean error %v", err)
		}
	}
	fmt.Printf("\nlink cut at %v: %d tail puts acked before, %d failed cleanly after\n", linkCutAt, acked, failed)

	// Phase 3: kill the primary — power cut inside its final commit
	// window, after the usual clean drain of the request queues.
	powerCutAt := c.CutPower(0, sim.NewRNG(7))
	fmt.Printf("primary power cut at %v\n\n", powerCutAt)

	// Phase 4: failover, with the link healed a millisecond after the
	// cut. The follower promotes through the standard shard manifest
	// recovery path: every region lands on its last FULLY APPLIED delta
	// (each delta applied as one uCheckpoint, so a torn delta is
	// impossible), under a bumped replication era. The ex-primary
	// recovers from its torn disks and rejoins as the follower; its
	// regions may hold epochs the new primary never acked (divergent
	// era), so reconciliation discards them via full-region snapshots.
	linkUpAt := powerCutAt + time.Millisecond
	c.Link.Restore(linkUpAt)
	if err := c.Failover(powerCutAt, linkUpAt); err != nil {
		log.Fatal(err)
	}
	svc = c.Svc
	fmt.Println("promoted follower:  shard  seq  era  manifest==scan")
	for _, rec := range svc.Recovery() {
		fmt.Printf("%24d  %3d  %3d  %v\n", rec.Shard, rec.Seq, rec.Era, rec.Consistent())
		if !rec.Existing || !rec.Consistent() {
			log.Fatal("TORN REPLICA — delta application was not atomic")
		}
	}
	for k, v := range ackedKeys {
		got, found, err := svc.Get("acct", k)
		if err != nil {
			log.Fatal(err)
		}
		if !found || got != v {
			log.Fatalf("acked write %q lost in failover", k)
		}
	}
	fmt.Println("every acknowledged write survived the failover")

	// Phase 5: new epochs on the new primary replicate to the rejoined
	// ex-primary.
	for i := 0; i < 10; i++ {
		if err := svc.Put("acct", fmt.Sprintf("new-%02d", i), 7); err != nil {
			log.Fatal(err)
		}
	}
	digA, err := svc.ShardDigests()
	if err != nil {
		log.Fatal(err)
	}
	digB := c.Fol.Digests()
	fmt.Println("\nreconciled ex-primary: shard  snapshots  digests match")
	for i, fs := range c.Fol.Stats() {
		fmt.Printf("%27d  %9d  %v\n", fs.Shard, fs.Snapshots, digA[i] == digB[i])
		if digA[i] != digB[i] {
			log.Fatal("REPLICAS DIVERGED after reconciliation")
		}
	}
	fmt.Println("both replicas hold byte-identical regions.")

	fmt.Println("\n--- prometheus exposition (new primary + rejoined follower) ---")
	if err := c.WritePrometheus(os.Stdout); err != nil {
		log.Fatal(err)
	}
	if err := c.Close(); err != nil {
		log.Fatal(err)
	}
}
