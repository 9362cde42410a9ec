// kvstore: the RocksDB case study (§7.2) as a runnable example.
//
// rockskv is a write-optimized key-value store with three persistence
// designs behind one API: the WAL+LSM baseline, Aurora-style region
// checkpointing, and the MemSnap persistent MemTable. The example
// runs the same workload through all three, prints the latency
// comparison (Table 9 in miniature), then demonstrates MemSnap crash
// recovery with the skip-pointer rebuild.
//
//	go run ./examples/kvstore
package main

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

const ops = 400

func drive(name string, db *rockskv.DB) {
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

func main() {
	costs := sim.DefaultCosts()
	fmt.Printf("MixGraph (84%% get / 14%% put / 3%% seek), %d ops, synchronous writes:\n\n", ops)

	// Baseline: WAL + MemTable + SSTables.
	fsys := fs.New(costs, disk.NewArray(costs, 2, 1<<30), fs.FFS)
	drive("baseline+WAL", rockskv.NewWAL(fsys, sim.NewClock(), rockskv.Config{MemTableLimit: 1 << 20}))

	// Aurora: checkpoint the whole region after every write.
	arr := disk.NewArray(costs, 2, 1<<30)
	region := aurora.NewRegion(costs, arr, 0, 1<<30)
	drive("aurora", rockskv.NewAurora(region, rockskv.Config{}))

	// MemSnap: persistent skip list, one uCheckpoint per write.
	sys, err := core.NewSystem(core.Options{DiskBytesEach: 1 << 30})
	if err != nil {
		log.Fatal(err)
	}
	proc := sys.NewProcess()
	ctx := proc.NewContext(0)
	db, err := rockskv.NewMemSnap(proc, ctx, "memtable", 256<<20)
	if err != nil {
		log.Fatal(err)
	}
	drive("memsnap", db)

	// Crash the MemSnap store and show the recovery path: the
	// persistent level-0 chain is intact; skip pointers rebuild.
	s := db.NewSession(1)
	s.Put([]byte("survives"), []byte("yes"))
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
	fmt.Printf("\nafter power cut + recovery: Get(\"survives\") = %q (found=%v)\n", v, ok)
	first := s2.Seek(nil, 3)
	fmt.Printf("rebuilt index iterates in order: ")
	for _, kv := range first {
		fmt.Printf("%s ", kv.Key[12:24])
	}
	fmt.Println()
}
