package memsnap_test

// Cross-module integration tests: full stacks (database -> MemSnap
// core -> VM -> object store -> disk) exercised end to end, including
// torn-power recovery chains that cross several subsystems.

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"memsnap"
	"memsnap/internal/core"
	"memsnap/internal/litedb"
	"memsnap/internal/rockskv"
	"memsnap/internal/shard"
	"memsnap/internal/sim"
	"memsnap/internal/workload"
)

// TestIntegrationRepeatedCrashCycles survives several consecutive
// crash/recover cycles with data accumulating across lifetimes.
func TestIntegrationRepeatedCrashCycles(t *testing.T) {
	store, err := memsnap.NewStore(memsnap.Config{})
	if err != nil {
		t.Fatal(err)
	}
	arr := store.Array()
	var at time.Duration

	expected := map[int64]byte{}
	for cycle := 0; cycle < 5; cycle++ {
		s2, doneAt, err := memsnap.RecoverStore(memsnap.Config{}, arr, at)
		if cycle == 0 {
			s2 = store
			doneAt = 0
		} else if err != nil {
			t.Fatalf("cycle %d: recover: %v", cycle, err)
		}
		proc := s2.NewProcess()
		ctx := proc.NewContext(cycle)
		ctx.Clock().AdvanceTo(doneAt)
		region, err := proc.Open(ctx, "cycles", 4<<20)
		if err != nil {
			t.Fatal(err)
		}

		// Verify all previously committed pages.
		buf := make([]byte, 1)
		for page, val := range expected {
			ctx.ReadAt(region, page*memsnap.PageSize, buf)
			if buf[0] != val {
				t.Fatalf("cycle %d: page %d = %d, want %d", cycle, page, buf[0], val)
			}
		}

		// Write a few new pages and persist.
		for i := 0; i < 10; i++ {
			page := int64(cycle*10 + i)
			val := byte(cycle*16 + i + 1)
			ctx.WriteAt(region, page*memsnap.PageSize, []byte{val})
			expected[page] = val
		}
		if _, err := ctx.Persist(region, memsnap.Sync); err != nil {
			t.Fatal(err)
		}

		// An unpersisted write that must vanish.
		ctx.WriteAt(region, 1000*memsnap.PageSize, []byte{0xFF})

		at = ctx.Clock().Now()
		arr.CutPower(at, sim.NewRNG(uint64(cycle)))
	}
}

// TestIntegrationLitedbOnSharedStore runs two independent databases
// in the same MemSnap store, crashes, and recovers both.
func TestIntegrationLitedbOnSharedStore(t *testing.T) {
	sys, err := core.NewSystem(core.Options{DiskBytesEach: 512 << 20})
	if err != nil {
		t.Fatal(err)
	}
	proc := sys.NewProcess()
	ctxA := proc.NewContext(0)
	ctxB := proc.NewContext(1)

	dbA, err := litedb.OpenMemSnap(proc, ctxA, "users.db", 32<<20)
	if err != nil {
		t.Fatal(err)
	}
	dbB, err := litedb.OpenMemSnap(proc, ctxB, "orders.db", 32<<20)
	if err != nil {
		t.Fatal(err)
	}

	txA := dbA.Begin()
	txA.CreateTable("t")
	for i := 0; i < 100; i++ {
		txA.Put("t", workload.Key16(int64(i)), []byte(fmt.Sprintf("user-%d", i)))
	}
	txA.Commit()

	txB := dbB.Begin()
	txB.CreateTable("t")
	for i := 0; i < 100; i++ {
		txB.Put("t", workload.Key16(int64(i)), []byte(fmt.Sprintf("order-%d", i)))
	}
	txB.Commit()

	at := ctxA.Clock().Now()
	if ctxB.Clock().Now() > at {
		at = ctxB.Clock().Now()
	}
	sys.Array().CutPower(at, sim.NewRNG(11))

	sys2, doneAt, err := core.Recover(core.Options{DiskBytesEach: 512 << 20}, sys.Array(), at)
	if err != nil {
		t.Fatal(err)
	}
	proc2 := sys2.NewProcess()
	ctx2 := proc2.NewContext(0)
	ctx2.Clock().AdvanceTo(doneAt)

	dbA2, err := litedb.OpenMemSnap(proc2, ctx2, "users.db", 32<<20)
	if err != nil {
		t.Fatal(err)
	}
	ctx3 := proc2.NewContext(1)
	dbB2, err := litedb.OpenMemSnap(proc2, ctx3, "orders.db", 32<<20)
	if err != nil {
		t.Fatal(err)
	}
	tx := dbA2.Begin()
	v, ok, _ := tx.Get("t", workload.Key16(42))
	tx.Commit()
	if !ok || string(v) != "user-42" {
		t.Fatalf("users.db lost data: %q ok=%v", v, ok)
	}
	tx = dbB2.Begin()
	v, ok, _ = tx.Get("t", workload.Key16(42))
	tx.Commit()
	if !ok || string(v) != "order-42" {
		t.Fatalf("orders.db lost data: %q ok=%v", v, ok)
	}
}

// TestIntegrationKVAndRegionCoexist mixes a rockskv store and a raw
// region in one system; persists of one never disturb the other.
func TestIntegrationKVAndRegionCoexist(t *testing.T) {
	sys, err := core.NewSystem(core.Options{DiskBytesEach: 512 << 20})
	if err != nil {
		t.Fatal(err)
	}
	proc := sys.NewProcess()
	kvCtx := proc.NewContext(0)
	rawCtx := proc.NewContext(1)

	db, err := rockskv.NewMemSnap(proc, kvCtx, "memtable", 64<<20)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := proc.Open(rawCtx, "raw", 4<<20)
	if err != nil {
		t.Fatal(err)
	}

	s := db.NewSession(2)
	for i := 0; i < 50; i++ {
		if err := s.Put(workload.Key16(int64(i)), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
		rawCtx.WriteAt(raw, int64(i%64)*memsnap.PageSize, []byte{byte(i)})
	}
	// The raw region's dirty set belongs to rawCtx only.
	if rawCtx.DirtyPages() == 0 {
		t.Fatal("raw region writes not tracked")
	}
	if _, err := rawCtx.Persist(raw, core.MSSync); err != nil {
		t.Fatal(err)
	}
	// KV data is all there.
	for i := 0; i < 50; i++ {
		v, ok := s.Get(workload.Key16(int64(i)))
		if !ok || !bytes.Equal(v, []byte{byte(i)}) {
			t.Fatalf("kv key %d lost", i)
		}
	}
}

// shardPair returns two distinct keys that both route to shard sh.
func shardPair(svc *shard.Service, tenant string, sh int) [2]string {
	var pair [2]string
	n := 0
	for i := 0; n < 2; i++ {
		key := fmt.Sprintf("acct-%04d", i)
		if svc.ShardOf(tenant, key) == sh {
			pair[n] = key
			n++
		}
	}
	return pair
}

// TestIntegrationShardServicePowerCut runs the sharded KV service on
// the public store API, cuts power while unacknowledged group commits
// are mid-flight, and checks the full recovery chain: every shard
// reopens at a durable epoch whose manifest matches its data, every
// acknowledged write survives, and the cross-shard value sum is exact
// because in-flight transfers were sum-neutral.
func TestIntegrationShardServicePowerCut(t *testing.T) {
	const shards = 8
	cfg := memsnap.Config{CPUs: shards, DiskBytesEach: 512 << 20}
	store, err := memsnap.NewStore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := shard.New(store, shard.Config{Shards: shards, BatchSize: 8})
	if err != nil {
		t.Fatal(err)
	}

	// Acknowledged phase: concurrent clients accumulate counters.
	const clients, opsPer, delta = 2 * shards, 25, 3
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			tenant := fmt.Sprintf("tn-%d", c%4)
			for i := 0; i < opsPer; i++ {
				key := fmt.Sprintf("k-%03d", (c*11+i)%48)
				if _, err := svc.Add(tenant, key, delta); err != nil {
					t.Error(err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	if t.Failed() {
		t.Fatal("client op failed during acknowledged phase")
	}

	// One funded account pair per shard, also acknowledged.
	var pairs [shards][2]string
	for sh := 0; sh < shards; sh++ {
		pairs[sh] = shardPair(svc, "bank", sh)
		if err := svc.Put("bank", pairs[sh][0], 500); err != nil {
			t.Fatal(err)
		}
	}
	expected := uint64(clients*opsPer*delta + 500*shards)

	// Every ack above implies durability by tSafe on some worker clock.
	tSafe := svc.TotalStats().LastCommitDurable

	// Unacknowledged tail: sum-neutral transfers whose group commits
	// are still in flight when the power dies.
	const rounds = 8
	unread := make(chan shard.Response, rounds*shards)
	for round := 0; round < rounds; round++ {
		for sh := 0; sh < shards; sh++ {
			if err := svc.DoTagged(shard.Op{
				Kind: shard.OpTransfer, Tenant: "bank",
				Key: pairs[sh][0], Key2: pairs[sh][1], Value: 5,
			}, 0, unread); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	doneAt := svc.EndTime()
	cutAt := svc.TotalStats().LastCommitSubmit + time.Nanosecond
	if cutAt <= tSafe {
		cutAt = tSafe + time.Nanosecond
	}
	store.Array().CutPower(cutAt, sim.NewRNG(99))

	store2, at, err := memsnap.RecoverStore(cfg, store.Array(), doneAt)
	if err != nil {
		t.Fatal(err)
	}
	svc2, err := shard.New(store2, shard.Config{Shards: shards, BatchSize: 8, StartAt: at})
	if err != nil {
		t.Fatal(err)
	}
	defer svc2.Close()

	var recovered uint64
	for _, rec := range svc2.Recovery() {
		if !rec.Existing {
			t.Fatalf("shard %d region missing after recovery", rec.Shard)
		}
		if !rec.Consistent() {
			t.Fatalf("shard %d manifest (%d records, sum %d) disagrees with scan (%d, %d)",
				rec.Shard, rec.Records, rec.ValueSum, rec.ScanRecords, rec.ScanSum)
		}
		recovered += rec.ValueSum
	}
	if recovered != expected {
		t.Fatalf("recovered cross-shard sum = %d; want %d", recovered, expected)
	}
	for sh := 0; sh < shards; sh++ {
		from, _, _ := svc2.Get("bank", pairs[sh][0])
		to, _, _ := svc2.Get("bank", pairs[sh][1])
		if from+to != 500 {
			t.Fatalf("shard %d pair conservation broken: %d + %d", sh, from, to)
		}
	}
}

// TestIntegrationAsyncPipelineDurability: a producer pipelines async
// persists; everything acknowledged by Wait survives a crash at any
// later point.
func TestIntegrationAsyncPipelineDurability(t *testing.T) {
	store, _ := memsnap.NewStore(memsnap.Config{})
	proc := store.NewProcess()
	ctx := proc.NewContext(0)
	region, _ := proc.Open(ctx, "pipe", 8<<20)

	const batches = 30
	var epochs []memsnap.Epoch
	for b := 0; b < batches; b++ {
		ctx.WriteAt(region, int64(b)*memsnap.PageSize, []byte{byte(b + 1)})
		e, err := ctx.Persist(region, memsnap.Async)
		if err != nil {
			t.Fatal(err)
		}
		epochs = append(epochs, e)
	}
	ctx.Wait(region, epochs[len(epochs)-1])

	crashAt := ctx.Clock().Now()
	store.Array().CutPower(crashAt, sim.NewRNG(5))
	store2, at, err := memsnap.RecoverStore(memsnap.Config{}, store.Array(), crashAt)
	if err != nil {
		t.Fatal(err)
	}
	proc2 := store2.NewProcess()
	ctx2 := proc2.NewContext(0)
	ctx2.Clock().AdvanceTo(at)
	region2, _ := proc2.Open(ctx2, "pipe", 8<<20)
	buf := make([]byte, 1)
	for b := 0; b < batches; b++ {
		ctx2.ReadAt(region2, int64(b)*memsnap.PageSize, buf)
		if buf[0] != byte(b+1) {
			t.Fatalf("batch %d lost after waited async persist", b)
		}
	}
}
