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
// power on the primary mid-commit, promotes the follower through the
// standard manifest recovery path, recovers the torn ex-primary and
// rejoins it as a follower, and proves both replicas converge to
// byte-identical regions.
//
//	go run ./examples/replica
package main

import (
	"errors"
	"fmt"
	"log"
	"os"
	"time"

	"memsnap"
	"memsnap/internal/replica"
	"memsnap/internal/shard"
	"memsnap/internal/sim"
)

const shards = 4

func main() {
	cfg := memsnap.Config{CPUs: shards, DiskBytesEach: 512 << 20}
	primary, err := memsnap.NewStore(cfg)
	if err != nil {
		log.Fatal(err)
	}
	backup, err := memsnap.NewStore(cfg)
	if err != nil {
		log.Fatal(err)
	}

	// Wire the pair: link, follower endpoint, sync shipper, service.
	fol, err := replica.NewFollower(backup, replica.FollowerConfig{Shards: shards})
	if err != nil {
		log.Fatal(err)
	}
	link := replica.NewLink(replica.LinkConfig{Seed: 7})
	ship := replica.NewShipper(link, fol, shards, replica.Config{Mode: replica.Sync})
	svc, err := shard.New(primary, shard.Config{Shards: shards, BatchSize: 8, Replicator: ship})
	if err != nil {
		log.Fatal(err)
	}
	ship.Attach(svc)

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
	folStats := fol.Stats()
	for _, rs := range ship.Stats() {
		fmt.Printf("%5d  %7d  %5d  %11.1f  %12d\n",
			rs.Shard, rs.Shipped, rs.Acked,
			float64(rs.AckHist.P99())/float64(time.Microsecond),
			folStats[rs.Shard].LastSeq)
	}

	// Phase 2: cut the link, then keep writing. Sync mode turns a
	// dead link into a clean client-visible error — never a silent
	// loss.
	linkCutAt := svc.TotalStats().LastCommitDurable + time.Millisecond
	link.Cut(linkCutAt)
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
	if err := svc.Close(); err != nil {
		log.Fatal(err)
	}
	var powerCutAt time.Duration
	for _, st := range svc.Stats() {
		if st.LastCommitSubmit > powerCutAt {
			powerCutAt = st.LastCommitSubmit
		}
	}
	powerCutAt += time.Nanosecond
	primary.Array().CutPower(powerCutAt, sim.NewRNG(7))
	ship.Close()
	fmt.Printf("primary power cut at %v\n\n", powerCutAt)

	// Phase 4: failover. The follower promotes through the standard
	// shard manifest recovery path: every region lands on its last
	// FULLY APPLIED delta (each delta applied as one uCheckpoint, so
	// a torn delta is impossible), under a bumped replication era.
	ship2 := replica.NewShipper(link, nil, shards, replica.Config{})
	svc2, err := fol.Promote(shard.Config{BatchSize: 8, Replicator: ship2})
	if err != nil {
		log.Fatal(err)
	}
	ship2.Attach(svc2)
	fmt.Println("promoted follower:  shard  seq  era  manifest==scan")
	for _, rec := range svc2.Recovery() {
		fmt.Printf("%24d  %3d  %3d  %v\n", rec.Shard, rec.Seq, rec.Era, rec.Consistent())
		if !rec.Existing || !rec.Consistent() {
			log.Fatal("TORN REPLICA — delta application was not atomic")
		}
	}
	for k, v := range ackedKeys {
		got, found, err := svc2.Get("acct", k)
		if err != nil {
			log.Fatal(err)
		}
		if !found || got != v {
			log.Fatalf("acked write %q lost in failover", k)
		}
	}
	fmt.Println("every acknowledged write survived the failover")

	// New epochs on the new primary while the old machine is down.
	for i := 0; i < 10; i++ {
		if err := svc2.Put("acct", fmt.Sprintf("new-%02d", i), 7); err != nil {
			log.Fatal(err)
		}
	}
	ship2.Flush()

	// Phase 5: reconciliation. Recover the ex-primary from its torn
	// disks, rejoin it as a follower, heal the link. Its regions may
	// hold epochs the new primary never acked (divergent era), so
	// Reconcile discards them via full-region snapshots.
	recovered, doneAt, err := memsnap.RecoverStore(cfg, primary.Array(), powerCutAt)
	if err != nil {
		log.Fatal(err)
	}
	fol2, err := replica.NewFollower(recovered, replica.FollowerConfig{Shards: shards, StartAt: doneAt})
	if err != nil {
		log.Fatal(err)
	}
	restoreAt := doneAt + time.Millisecond
	if end := svc2.EndTime(); end+time.Millisecond > restoreAt {
		restoreAt = end + time.Millisecond
	}
	link.Restore(restoreAt)
	ship2.Connect(fol2)
	if err := ship2.Reconcile(restoreAt); err != nil {
		log.Fatal(err)
	}

	digA, err := svc2.ShardDigests()
	if err != nil {
		log.Fatal(err)
	}
	digB := fol2.Digests()
	fmt.Println("\nreconciled ex-primary: shard  snapshots  digests match")
	for i, fs := range fol2.Stats() {
		fmt.Printf("%27d  %9d  %v\n", fs.Shard, fs.Snapshots, digA[i] == digB[i])
		if digA[i] != digB[i] {
			log.Fatal("REPLICAS DIVERGED after reconciliation")
		}
	}
	fmt.Println("both replicas hold byte-identical regions.")

	fmt.Println("\n--- prometheus exposition (new primary + rejoined follower) ---")
	if err := svc2.FormatPrometheus(os.Stdout); err != nil {
		log.Fatal(err)
	}
	if err := ship2.FormatPrometheus(os.Stdout); err != nil {
		log.Fatal(err)
	}
	if err := fol2.FormatPrometheus(os.Stdout); err != nil {
		log.Fatal(err)
	}

	if err := svc2.Close(); err != nil {
		log.Fatal(err)
	}
	ship2.Close()
}
