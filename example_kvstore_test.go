package memsnap_test

import (
	"fmt"
	"log"

	"memsnap/internal/aurora"
	"memsnap/internal/core"
	"memsnap/internal/disk"
	"memsnap/internal/fs"
	"memsnap/internal/obs"
	"memsnap/internal/rockskv"
	"memsnap/internal/sim"
	"memsnap/internal/workload"
)

// driveMixGraph runs ops MixGraph requests through one session of db
// and prints the mean and p99 latency.
func driveMixGraph(name string, db *rockskv.DB, ops int) {
	s := db.NewSession(0)
	gen := workload.NewMixGraph(1, 5000)
	var lat obs.Histogram
	for i := 0; i < ops; i++ {
		req := gen.Next()
		start := s.Clock().Now()
		switch req.Op {
		case workload.OpGet:
			s.Get(req.Key)
		case workload.OpPut:
			if err := s.Put(req.Key, req.Value); err != nil {
				log.Fatal(err)
			}
		case workload.OpSeek:
			s.Seek(req.Key, req.ScanLen)
		}
		lat.Record(s.Clock().Now() - start)
	}
	sum := lat.Snapshot()
	fmt.Printf("%-14s avg %8v   p99 %8v\n", name, sum.Mean(), sum.P99())
}

// Example_kvstore is the RocksDB case study (§7.2) in miniature.
// rockskv is a write-optimized key-value store with three persistence
// designs behind one API: the WAL+LSM baseline, Aurora-style region
// checkpointing, and the MemSnap persistent MemTable. The same
// MixGraph workload runs through all three (Table 9 in miniature),
// then a MemSnap store is crashed and recovered with the skip-pointer
// rebuild.
func Example_kvstore() {
	const ops = 400
	costs := sim.DefaultCosts()
	fmt.Printf("MixGraph (84%% get / 14%% put / 3%% seek), %d ops, synchronous writes:\n", ops)

	// Baseline: WAL + MemTable + SSTables.
	fsys := fs.New(costs, disk.NewArray(costs, 2, 1<<30), fs.FFS)
	driveMixGraph("baseline+WAL", rockskv.NewWAL(fsys, sim.NewClock(), rockskv.Config{MemTableLimit: 1 << 20}), ops)

	// Aurora: checkpoint the whole region after every write.
	region := aurora.NewRegion(costs, disk.NewArray(costs, 2, 1<<30), 0, 1<<30)
	driveMixGraph("aurora", rockskv.NewAurora(region, rockskv.Config{}), ops)

	// MemSnap: persistent skip list, one uCheckpoint per write.
	sys, err := core.NewSystem(core.Options{DiskBytesEach: 1 << 30})
	if err != nil {
		log.Fatal(err)
	}
	proc := sys.NewProcess()
	db, err := rockskv.NewMemSnap(proc, proc.NewContext(0), "memtable", 256<<20)
	if err != nil {
		log.Fatal(err)
	}
	driveMixGraph("memsnap", db, ops)

	// Crash the MemSnap store and show the recovery path: the
	// persistent level-0 chain is intact; skip pointers rebuild.
	s := db.NewSession(1)
	if err := s.Put([]byte("survives"), []byte("yes")); err != nil {
		log.Fatal(err)
	}
	crashAt := s.Clock().Now()
	sys.Array().CutPower(crashAt, sim.NewRNG(9))

	sys2, at, err := core.Recover(core.Options{DiskBytesEach: 1 << 30}, sys.Array(), crashAt)
	if err != nil {
		log.Fatal(err)
	}
	proc2 := sys2.NewProcess()
	ctx2 := proc2.NewContext(0)
	ctx2.Clock().AdvanceTo(at)
	db2, err := rockskv.NewMemSnap(proc2, ctx2, "memtable", 256<<20)
	if err != nil {
		log.Fatal(err)
	}
	s2 := db2.NewSession(0)
	v, ok := s2.Get([]byte("survives"))
	fmt.Printf("after power cut + recovery: Get(\"survives\") = %q (found=%v)\n", v, ok)
	fmt.Printf("rebuilt index iterates in order:")
	for _, kv := range s2.Seek(nil, 3) {
		fmt.Printf(" %s", kv.Key[12:24])
	}
	fmt.Println()

	// Output:
	// MixGraph (84% get / 14% put / 3% seek), 400 ops, synchronous writes:
	// baseline+WAL   avg 47.377µs   p99 101.376µs
	// aurora         avg 65.641µs   p99    256µs
	// memsnap        avg 45.187µs   p99  87.04µs
	// after power cut + recovery: Get("survives") = "yes" (found=true)
	// rebuilt index iterates in order: 000000000000 000000000001 000000000002
}
