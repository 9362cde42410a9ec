package rockskv

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sort"
	"sync"
	"testing"

	"memsnap/internal/aurora"
	"memsnap/internal/core"
	"memsnap/internal/disk"
	"memsnap/internal/fs"
	"memsnap/internal/sim"
	"memsnap/internal/workload"
)

func newWALKV(t *testing.T) *DB {
	t.Helper()
	costs := sim.DefaultCosts()
	fsys := fs.New(costs, disk.NewArray(costs, 2, 1<<30), fs.FFS)
	return NewWAL(fsys, sim.NewClock(), Config{MemTableLimit: 256 << 10})
}

func newMemSnapKV(t *testing.T) (*DB, *core.System) {
	t.Helper()
	sys, err := core.NewSystem(core.Options{DiskBytesEach: 512 << 20})
	if err != nil {
		t.Fatal(err)
	}
	proc := sys.NewProcess()
	ctx := proc.NewContext(0)
	db, err := NewMemSnap(proc, ctx, "memtable", 256<<20)
	if err != nil {
		t.Fatal(err)
	}
	return db, sys
}

func newAuroraKV(t *testing.T) *DB {
	t.Helper()
	costs := sim.DefaultCosts()
	arr := disk.NewArray(costs, 2, 1<<30)
	region := aurora.NewRegion(costs, arr, "memtable", 0, 512<<20)
	return NewAurora(region, Config{})
}

func eachMode(t *testing.T, fn func(t *testing.T, db *DB)) {
	t.Run("wal", func(t *testing.T) { fn(t, newWALKV(t)) })
	t.Run("memsnap", func(t *testing.T) {
		db, _ := newMemSnapKV(t)
		fn(t, db)
	})
	t.Run("aurora", func(t *testing.T) { fn(t, newAuroraKV(t)) })
}

func TestPutGetDelete(t *testing.T) {
	eachMode(t, func(t *testing.T, db *DB) {
		s := db.NewSession(0)
		if err := s.Put([]byte("key1"), []byte("val1")); err != nil {
			t.Fatal(err)
		}
		s.Put([]byte("key2"), []byte("val2"))
		v, ok := s.Get([]byte("key1"))
		if !ok || string(v) != "val1" {
			t.Fatalf("get = %q ok=%v", v, ok)
		}
		if _, ok := s.Get([]byte("missing")); ok {
			t.Fatal("found missing key")
		}
		s.Delete([]byte("key1"))
		if _, ok := s.Get([]byte("key1")); ok {
			t.Fatal("deleted key visible")
		}
		// Overwrite.
		s.Put([]byte("key2"), []byte("replaced"))
		v, _ = s.Get([]byte("key2"))
		if string(v) != "replaced" {
			t.Fatalf("overwrite = %q", v)
		}
	})
}

func TestSeekOrdered(t *testing.T) {
	eachMode(t, func(t *testing.T, db *DB) {
		s := db.NewSession(0)
		for i := 99; i >= 0; i-- {
			s.Put(workload.Key16(int64(i)), []byte(fmt.Sprint(i)))
		}
		out := s.Seek(workload.Key16(40), 10)
		if len(out) != 10 {
			t.Fatalf("seek returned %d", len(out))
		}
		for i, kv := range out {
			if !bytes.Equal(kv.Key, workload.Key16(int64(40+i))) {
				t.Fatalf("seek[%d] = %q", i, kv.Key)
			}
		}
	})
}

func TestMultiPutVisible(t *testing.T) {
	eachMode(t, func(t *testing.T, db *DB) {
		s := db.NewSession(0)
		var kvs []KV
		for i := 0; i < 20; i++ {
			kvs = append(kvs, KV{workload.Key16(int64(i)), []byte(fmt.Sprint(i * 10))})
		}
		if err := s.MultiPut(kvs); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 20; i++ {
			v, ok := s.Get(workload.Key16(int64(i)))
			if !ok || string(v) != fmt.Sprint(i*10) {
				t.Fatalf("key %d after MultiPut: %q ok=%v", i, v, ok)
			}
		}
	})
}

func TestWALFlushAndCompaction(t *testing.T) {
	db := newWALKV(t)
	s := db.NewSession(0)
	val := bytes.Repeat([]byte{7}, 100)
	const n = 20000
	for i := 0; i < n; i++ {
		s.Put(workload.Key16(int64(i%4000)), val)
	}
	if db.Stats.Flushes.Value() == 0 {
		t.Fatal("no SSTable flush happened")
	}
	if db.Stats.Compactions.Value() == 0 {
		t.Fatal("no compaction happened")
	}
	if len(db.tables) > maxL0Tables {
		t.Fatalf("L0 grew unbounded: %d", len(db.tables))
	}
	// Everything still readable (memtable + tables merged).
	for i := 0; i < 4000; i += 997 {
		if _, ok := s.Get(workload.Key16(int64(i))); !ok {
			t.Fatalf("key %d lost across flush/compaction", i)
		}
	}
}

func TestMemSnapPerThreadDirtySets(t *testing.T) {
	db, _ := newMemSnapKV(t)
	s1 := db.NewSession(0)
	s2 := db.NewSession(1)
	s1.Put([]byte("from-1"), []byte("a"))
	s2.Put([]byte("from-2"), []byte("b"))
	// Each Put persisted its own dirty set; nothing should linger.
	if s1.ctx.DirtyPages() != 0 || s2.ctx.DirtyPages() != 0 {
		t.Fatalf("dirty leftovers: %d, %d", s1.ctx.DirtyPages(), s2.ctx.DirtyPages())
	}
	if v, ok := s1.Get([]byte("from-2")); !ok || string(v) != "b" {
		t.Fatal("cross-session read failed")
	}
}

func TestMemSnapRecovery(t *testing.T) {
	sys, _ := core.NewSystem(core.Options{DiskBytesEach: 512 << 20})
	proc := sys.NewProcess()
	ctx := proc.NewContext(0)
	db, err := NewMemSnap(proc, ctx, "memtable", 128<<20)
	if err != nil {
		t.Fatal(err)
	}
	s := db.NewSession(0)
	const n = 500
	for i := 0; i < n; i++ {
		s.Put(workload.Key16(int64(i)), []byte(fmt.Sprint(i)))
	}
	s.Delete(workload.Key16(123))
	at := s.Clock().Now()

	// Crash and recover: skip pointers must be rebuilt from the
	// level-0 chain.
	sys.Array().CutPower(at, sim.NewRNG(4))
	sys2, doneAt, err := core.Recover(core.Options{DiskBytesEach: 512 << 20}, sys.Array(), at)
	if err != nil {
		t.Fatal(err)
	}
	proc2 := sys2.NewProcess()
	ctx2 := proc2.NewContext(0)
	ctx2.Clock().AdvanceTo(doneAt)
	db2, err := NewMemSnap(proc2, ctx2, "memtable", 128<<20)
	if err != nil {
		t.Fatal(err)
	}
	s2 := db2.NewSession(0)
	for i := 0; i < n; i++ {
		v, ok := s2.Get(workload.Key16(int64(i)))
		if i == 123 {
			if ok {
				t.Fatal("deleted key resurrected")
			}
			continue
		}
		if !ok || string(v) != fmt.Sprint(i) {
			t.Fatalf("key %d after recovery: %q ok=%v", i, v, ok)
		}
	}
	// Ordered iteration still works (index rebuilt correctly).
	out := s2.Seek(workload.Key16(0), 50)
	for i := 1; i < len(out); i++ {
		if bytes.Compare(out[i-1].Key, out[i].Key) >= 0 {
			t.Fatal("rebuilt index out of order")
		}
	}
}

// TestCrashConsistencyValueSum reproduces the paper's §7.2 atomicity
// test (scaled): threads transactionally increment random subsets of
// counters via MultiPut; after a crash mid-run, every acknowledged
// transaction must be fully present and unacknowledged ones fully
// absent, which the value-sum invariant checks.
func TestCrashConsistencyValueSum(t *testing.T) {
	const (
		keys      = 200
		threads   = 4
		txPerThr  = 25
		keysPerTx = 10
	)
	sys, _ := core.NewSystem(core.Options{DiskBytesEach: 512 << 20})
	proc := sys.NewProcess()
	setup := proc.NewContext(0)
	db, err := NewMemSnap(proc, setup, "memtable", 128<<20)
	if err != nil {
		t.Fatal(err)
	}
	enc := func(v int64) []byte {
		b := make([]byte, 8)
		binary.LittleEndian.PutUint64(b, uint64(v))
		return b
	}
	dec := func(b []byte) int64 { return int64(binary.LittleEndian.Uint64(b)) }

	init := db.NewSession(0)
	for i := 0; i < keys; i++ {
		init.Put(workload.Key16(int64(i)), enc(0))
	}

	// Each thread increments random keys; acked counts increments in
	// durable transactions. Write-write isolation between transactions
	// is the upper layer's job in RocksDB (its transaction lock
	// manager), so the test takes per-key locks in sorted order around
	// each read-modify-write transaction.
	keyLocks := make([]sync.Mutex, keys)
	var ackedMu sync.Mutex
	acked := int64(0)
	var wg sync.WaitGroup
	for th := 0; th < threads; th++ {
		wg.Add(1)
		go func(th int) {
			defer wg.Done()
			s := db.NewSession(th)
			rng := sim.NewRNG(uint64(th) + 55)
			for txn := 0; txn < txPerThr; txn++ {
				seen := map[int64]bool{}
				ids := make([]int64, 0, keysPerTx)
				for len(ids) < keysPerTx {
					id := rng.Int63n(keys)
					if seen[id] {
						continue
					}
					seen[id] = true
					ids = append(ids, id)
				}
				sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
				for _, id := range ids {
					keyLocks[id].Lock()
				}
				var kvs []KV
				for _, id := range ids {
					cur, ok := s.Get(workload.Key16(id))
					if !ok {
						continue
					}
					kvs = append(kvs, KV{workload.Key16(id), enc(dec(cur) + 1)})
				}
				err := s.MultiPut(kvs)
				for i := len(ids) - 1; i >= 0; i-- {
					keyLocks[ids[i]].Unlock()
				}
				if err != nil {
					return
				}
				ackedMu.Lock()
				acked += int64(len(kvs))
				ackedMu.Unlock()
			}
		}(th)
	}
	wg.Wait()

	// Crash at the maximum observed virtual time: all acknowledged
	// transactions are durable.
	var maxAt = setup.Clock().Now()
	for _, th := range proc.AddressSpace().Threads() {
		if th.Clock().Now() > maxAt {
			maxAt = th.Clock().Now()
		}
	}
	sys.Array().CutPower(maxAt, sim.NewRNG(123))

	sys2, doneAt, err := core.Recover(core.Options{DiskBytesEach: 512 << 20}, sys.Array(), maxAt)
	if err != nil {
		t.Fatal(err)
	}
	proc2 := sys2.NewProcess()
	ctx2 := proc2.NewContext(0)
	ctx2.Clock().AdvanceTo(doneAt)
	db2, err := NewMemSnap(proc2, ctx2, "memtable", 128<<20)
	if err != nil {
		t.Fatal(err)
	}
	s2 := db2.NewSession(0)
	var sum int64
	for i := 0; i < keys; i++ {
		v, ok := s2.Get(workload.Key16(int64(i)))
		if !ok {
			t.Fatalf("counter %d lost", i)
		}
		sum += dec(v)
	}
	if sum != acked {
		t.Fatalf("value sum %d != acknowledged increments %d", sum, acked)
	}
}

// Delete removes a key (durable tombstone).
func (s *Session) Delete(key []byte) error {
	return s.write(key, nil, true)
}

func TestModeAccessors(t *testing.T) {
	if newWALKV(t).mode != ModeWAL {
		t.Fatal("wal mode")
	}
	db, _ := newMemSnapKV(t)
	if db.mode != ModeMemSnap {
		t.Fatal("memsnap mode")
	}
	if newAuroraKV(t).mode != ModeAurora {
		t.Fatal("aurora mode")
	}
}

func TestOversizedPayload(t *testing.T) {
	db, _ := newMemSnapKV(t)
	s := db.NewSession(0)
	if err := s.Put([]byte("k"), make([]byte, nodePageSize)); err == nil {
		t.Fatal("oversized node accepted")
	}
}

func TestMemSnapPutLatencyBeatsAurora(t *testing.T) {
	// Table 9's shape: MemSnap persists one write in ~51 us; Aurora's
	// region checkpoint costs ~208 us plus serialization.
	dbM, _ := newMemSnapKV(t)
	sM := dbM.NewSession(0)
	sM.Put([]byte("warm"), []byte("up"))
	start := sM.Clock().Now()
	const n = 50
	for i := 0; i < n; i++ {
		sM.Put(workload.Key16(int64(i)), bytes.Repeat([]byte{1}, 100))
	}
	memsnapPer := (sM.Clock().Now() - start) / n

	dbA := newAuroraKV(t)
	sA := dbA.NewSession(0)
	sA.Put([]byte("warm"), []byte("up"))
	start = sA.Clock().Now()
	for i := 0; i < n; i++ {
		sA.Put(workload.Key16(int64(i)), bytes.Repeat([]byte{1}, 100))
	}
	auroraPer := (sA.Clock().Now() - start) / n

	// Single-threaded ratio; under thread pressure Aurora's serialized
	// checkpoints widen the gap much further (Table 9).
	if memsnapPer*3 > auroraPer*2 {
		t.Fatalf("memsnap put %v not clearly faster than aurora %v", memsnapPer, auroraPer)
	}
}

func TestWALvsMemSnapEquivalence(t *testing.T) {
	ops := func(db *DB) map[string]string {
		s := db.NewSession(0)
		rng := sim.NewRNG(17)
		for i := 0; i < 400; i++ {
			id := rng.Int63n(50)
			switch rng.Intn(4) {
			case 0, 1, 2:
				s.Put(workload.Key16(id), []byte(fmt.Sprintf("v%d", i)))
			case 3:
				s.Delete(workload.Key16(id))
			}
		}
		out := map[string]string{}
		for _, kv := range s.Seek(nil, 1000) {
			out[string(kv.Key)] = string(kv.Value)
		}
		return out
	}
	dbW := newWALKV(t)
	dbM, _ := newMemSnapKV(t)
	a, b := ops(dbW), ops(dbM)
	if len(a) != len(b) {
		t.Fatalf("state diverged: %d vs %d keys", len(a), len(b))
	}
	for k, v := range a {
		if b[k] != v {
			t.Fatalf("key %q: %q vs %q", k, v, b[k])
		}
	}
}
