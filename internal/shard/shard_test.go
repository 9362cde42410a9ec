package shard

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"memsnap/internal/core"
	"memsnap/internal/sim"
)

func newSystem(t *testing.T, shards int) *core.System {
	t.Helper()
	sys, err := core.NewSystem(core.Options{CPUs: shards, DiskBytesEach: 512 << 20})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// Transfer durably moves amount from one key to another of the same
// tenant. Both keys must route to the same shard; the two updates are
// applied in one batch so every durable epoch preserves the shard's
// value sum.
func (s *Service) Transfer(tenant, from, to string, amount uint64) error {
	return s.Do(Op{Kind: OpTransfer, Tenant: tenant, Key: from, Key2: to, Value: amount}).Err
}

func TestBasicOps(t *testing.T) {
	sys := newSystem(t, 8)
	svc, err := New(sys, Config{Shards: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	if err := svc.Put("acme", "alpha", 100); err != nil {
		t.Fatal(err)
	}
	if v, ok, _ := svc.Get("acme", "alpha"); !ok || v != 100 {
		t.Fatalf("Get = %d, %v; want 100, true", v, ok)
	}
	// Tenants namespace keys: same key name, different tenant.
	if _, ok, _ := svc.Get("globex", "alpha"); ok {
		t.Fatal("tenant namespaces leak")
	}
	if v, err := svc.Add("acme", "alpha", 11); err != nil || v != 111 {
		t.Fatalf("Add = %d, %v; want 111", v, err)
	}
	if v, err := svc.Add("acme", "fresh", 7); err != nil || v != 7 {
		t.Fatalf("Add on missing key = %d, %v; want 7", v, err)
	}
	del := Op{Kind: OpDelete, Tenant: "acme", Key: "fresh"}
	if r := svc.Do(del); r.Err != nil || !r.Found {
		t.Fatalf("Delete = %v, %v; want true", r.Found, r.Err)
	}
	if _, ok, _ := svc.Get("acme", "fresh"); ok {
		t.Fatal("key readable after delete")
	}
	if svc.Do(del).Found {
		t.Fatal("double delete reported found")
	}

	sum, err := svc.TotalValueSum()
	if err != nil || sum != 111 {
		t.Fatalf("TotalValueSum = %d, %v; want 111", sum, err)
	}
}

func TestTransferSemantics(t *testing.T) {
	sys := newSystem(t, 4)
	svc, err := New(sys, Config{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	// Find two co-sharded keys and one on a different shard.
	var a, b, other string
	shardA := -1
	for i := 0; i < 1000 && (b == "" || other == ""); i++ {
		k := fmt.Sprintf("k%03d", i)
		switch sh := svc.ShardOf("t", k); {
		case shardA == -1:
			a, shardA = k, sh
		case sh == shardA && k != a && b == "":
			b = k
		case sh != shardA && other == "":
			other = k
		}
	}
	if b == "" || other == "" {
		t.Fatal("could not find co-sharded and cross-shard keys")
	}

	svc.Put("t", a, 50)
	if err := svc.Transfer("t", a, b, 20); err != nil {
		t.Fatal(err)
	}
	va, _, _ := svc.Get("t", a)
	vb, _, _ := svc.Get("t", b)
	if va != 30 || vb != 20 {
		t.Fatalf("after transfer: a=%d b=%d; want 30, 20", va, vb)
	}
	if err := svc.Transfer("t", a, b, 1000); err != ErrInsufficient {
		t.Fatalf("overdraft error = %v; want ErrInsufficient", err)
	}
	if err := svc.Transfer("t", a, other, 1); err != ErrCrossShard {
		t.Fatalf("cross-shard error = %v; want ErrCrossShard", err)
	}
	if sum, _ := svc.TotalValueSum(); sum != 50 {
		t.Fatalf("sum = %d; want 50 (transfers preserve it)", sum)
	}
}

func TestKeyValidation(t *testing.T) {
	sys := newSystem(t, 2)
	svc, err := New(sys, Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	long := make([]byte, MaxKeyLen)
	for i := range long {
		long[i] = 'x'
	}
	if err := svc.Put("tenant", string(long), 1); err != ErrKeyTooLong {
		t.Fatalf("long key error = %v; want ErrKeyTooLong", err)
	}
}

// TestGroupCommitCoalescing queues writes into one shard before its
// worker starts, so the worker drains them in batches of exactly
// BatchSize, and checks what the batch cap buys: at batch 1 every write
// is its own commit, above it writes share commits, and batch 64 beats
// batch 1 on throughput over the shard's virtual clock.
func TestGroupCommitCoalescing(t *testing.T) {
	const writes = 200
	var kops1 float64
	for _, batch := range []int{1, 16, 64} {
		sys := newSystem(t, 1)
		svc, err := open(sys, Config{Shards: 1, BatchSize: batch, QueueDepth: 256})
		if err != nil {
			t.Fatal(err)
		}
		resps := make(chan Response, writes)
		for i := 0; i < writes; i++ {
			if err := svc.DoTagged(Op{Kind: OpPut, Tenant: "t", Key: fmt.Sprintf("k%04d", i), Value: 1}, 0, resps); err != nil {
				t.Fatal(err)
			}
		}
		svc.start()
		for i := 0; i < writes; i++ {
			if r := <-resps; r.Err != nil {
				t.Fatal(r.Err)
			}
		}
		st := svc.TotalStats()
		if st.Writes != writes {
			t.Fatalf("batch %d: writes = %d; want %d", batch, st.Writes, writes)
		}
		// Batch 1: 200 commits at occupancy exactly 1; 16: 13 at 15.38;
		// 64: 4 at 50.
		commits := int64((writes + batch - 1) / batch)
		if st.Commits != commits || st.BatchOccupancy != float64(writes)/float64(commits) {
			t.Fatalf("batch %d: %d commits, occupancy %.2f; want %d and %.2f", batch, st.Commits, st.BatchOccupancy, commits, float64(writes)/float64(commits))
		}
		if h := st.CommitHist; h.Count != st.Commits || h.P99() == 0 || h.P50() > h.P99() {
			t.Fatalf("batch %d: bad commit latency histogram: count %d of %d commits, p50 %v, p99 %v", batch, h.Count, st.Commits, h.P50(), h.P99())
		}
		kops := float64(st.Writes) / st.Elapsed.Seconds() / 1000
		switch batch {
		case 1:
			kops1 = kops
		case 64:
			if kops <= kops1 {
				t.Fatalf("batch 64: %.1f Kops/s of virtual time, not above batch 1's %.1f", kops, kops1)
			}
		}
		if err := svc.Close(); err != nil {
			t.Fatal(err)
		}
		if err := svc.Put("t", "late", 1); err != ErrClosed {
			t.Fatalf("post-close error = %v; want ErrClosed", err)
		}
	}
}

// TestBackpressure fills a worker-less service's queue to verify
// deterministic admission control, then starts the workers and checks
// the queued ops drain and the rejection counter stuck.
func TestBackpressure(t *testing.T) {
	sys := newSystem(t, 1)
	svc, err := open(sys, Config{Shards: 1, QueueDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	resp := make(chan Response, 5) // one slot per submission
	for i := 0; i < 4; i++ {
		if err := svc.TryDoTagged(Op{Kind: OpPut, Tenant: "t", Key: fmt.Sprintf("k%d", i), Value: 1}, uint64(i), resp); err != nil {
			t.Fatalf("op %d rejected with queue not full: %v", i, err)
		}
	}
	if err := svc.TryDoTagged(Op{Kind: OpPut, Tenant: "t", Key: "overflow", Value: 1}, 4, resp); err != ErrBackpressure {
		t.Fatalf("full-queue error = %v; want ErrBackpressure", err)
	}
	svc.start()
	for i := 0; i < 4; i++ {
		if r := <-resp; r.Err != nil {
			t.Fatal(r.Err)
		}
	}
	st := svc.TotalStats()
	if st.Rejected != 1 {
		t.Fatalf("rejected = %d; want 1", st.Rejected)
	}
	if st.QueueHighWater < 4 {
		t.Fatalf("queue high water = %d; want >= 4", st.QueueHighWater)
	}
	svc.Close()
}

// TestConcurrentClients drives 8 shards with 4 client goroutines per
// shard (the acceptance-criteria shape) and audits every value plus
// the cross-shard sum. Run under -race this exercises the router,
// queues, group commits and stats concurrently.
func TestConcurrentClients(t *testing.T) {
	const (
		shards     = 8
		clients    = 4 * shards
		opsEach    = 40
		perClient  = 10 // keys per client
		valuePerOp = 3
	)
	sys := newSystem(t, shards)
	svc, err := New(sys, Config{Shards: shards, BatchSize: 8})
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			tenant := fmt.Sprintf("tenant-%02d", c%5)
			for i := 0; i < opsEach; i++ {
				key := fmt.Sprintf("c%02d-k%02d", c, i%perClient)
				if i%4 == 3 {
					if _, _, err := svc.Get(tenant, key); err != nil {
						errs <- err
						return
					}
					continue
				}
				if _, err := svc.Add(tenant, key, valuePerOp); err != nil {
					errs <- err
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Audit: every key holds exactly its number of increments.
	var want uint64
	for c := 0; c < clients; c++ {
		tenant := fmt.Sprintf("tenant-%02d", c%5)
		for k := 0; k < perClient; k++ {
			key := fmt.Sprintf("c%02d-k%02d", c, k)
			incs := 0
			for i := 0; i < opsEach; i++ {
				if i%perClient == k && i%4 != 3 {
					incs++
				}
			}
			v, ok, err := svc.Get(tenant, key)
			if err != nil {
				t.Fatal(err)
			}
			if !ok || v != uint64(incs*valuePerOp) {
				t.Fatalf("client %d key %s = %d (found=%v); want %d", c, key, v, ok, incs*valuePerOp)
			}
			want += uint64(incs * valuePerOp)
		}
	}
	if sum, _ := svc.TotalValueSum(); sum != want {
		t.Fatalf("cross-shard sum = %d; want %d", sum, want)
	}
	st := svc.TotalStats()
	if st.Commits == 0 || st.Writes == 0 {
		t.Fatalf("no commits recorded: %+v", st)
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
}

// findPair returns two distinct keys of tenant that both route to
// shard sh.
func findPair(t *testing.T, svc *Service, tenant string, sh int) (string, string) {
	t.Helper()
	var keys []string
	for i := 0; i < 4000 && len(keys) < 2; i++ {
		k := fmt.Sprintf("bank-%04d", i)
		if svc.ShardOf(tenant, k) == sh {
			keys = append(keys, k)
		}
	}
	if len(keys) < 2 {
		t.Fatalf("no co-sharded key pair found for shard %d", sh)
	}
	return keys[0], keys[1]
}

// TestCrashRecoveryMidCommit cuts power inside the IO window of
// unacknowledged group commits — strictly after every acknowledged
// write became durable — and verifies every shard recovers to a
// consistent epoch: manifest matches a full scan, acked writes
// survive, and the cross-shard value sum is intact.
func TestCrashRecoveryMidCommit(t *testing.T) {
	const shards = 4
	sys := newSystem(t, shards)
	cfg := Config{Shards: shards, BatchSize: 8, RegionBytes: 1 << 20}
	svc, err := New(sys, cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Seed: 20 keys of value 10 per tenant, four tenants, plus one
	// co-sharded "bank" pair per shard holding 1000 between them.
	var total uint64
	for tn := 0; tn < 4; tn++ {
		tenant := fmt.Sprintf("tenant-%d", tn)
		for k := 0; k < 20; k++ {
			if err := svc.Put(tenant, fmt.Sprintf("key-%02d", k), 10); err != nil {
				t.Fatal(err)
			}
			total += 10
		}
	}
	pairs := make([][2]string, shards)
	for sh := 0; sh < shards; sh++ {
		from, to := findPair(t, svc, "bank", sh)
		pairs[sh] = [2]string{from, to}
		if err := svc.Put("bank", from, 1000); err != nil {
			t.Fatal(err)
		}
		total += 1000
	}
	// Acked (sync) adds; every one of these must survive the crash.
	for i := 0; i < 60; i++ {
		tenant := fmt.Sprintf("tenant-%d", i%4)
		key := fmt.Sprintf("key-%02d", i%20)
		if _, err := svc.Add(tenant, key, 5); err != nil {
			t.Fatal(err)
		}
		total += 5
	}
	// Everything acknowledged so far is durable by tSafe.
	var tSafe time.Duration
	for _, st := range svc.Stats() {
		if st.LastCommitDurable > tSafe {
			tSafe = st.LastCommitDurable
		}
	}

	// Unacknowledged tail: sum-neutral transfers inside every shard.
	// Their group commits submit after tSafe on each worker's clock;
	// the power cut lands inside this IO window.
	const rounds = 10
	unread := make(chan Response, rounds*shards)
	for round := 0; round < rounds; round++ {
		for sh := 0; sh < shards; sh++ {
			if err := svc.DoTagged(Op{
				Kind: OpTransfer, Tenant: "bank",
				Key: pairs[sh][0], Key2: pairs[sh][1], Value: 10,
			}, 0, unread); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	preEpochs := make([]uint64, shards)
	for i, sh := range svc.shards {
		preEpochs[i] = uint64(sh.region.Epoch())
	}

	// Cut power one instant after the latest group-commit submission:
	// after all acked durability, inside the last commit's IO.
	cutAt := tSafe
	for _, st := range svc.Stats() {
		if st.LastCommitSubmit > cutAt {
			cutAt = st.LastCommitSubmit
		}
	}
	cutAt += time.Nanosecond
	sys.Array().CutPower(cutAt, sim.NewRNG(42))

	sys2, doneAt, err := core.Recover(core.Options{CPUs: shards, DiskBytesEach: 512 << 20}, sys.Array(), cutAt)
	if err != nil {
		t.Fatal(err)
	}
	cfg.StartAt = doneAt
	svc2, err := New(sys2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer svc2.Close()

	var recovered uint64
	torn := false
	for _, rec := range svc2.Recovery() {
		if !rec.Existing {
			t.Fatalf("shard %d not recognized as existing after recovery", rec.Shard)
		}
		if !rec.Consistent() {
			t.Fatalf("shard %d manifest/data mismatch: manifest (%d records, sum %d) vs scan (%d, %d)",
				rec.Shard, rec.Records, rec.ValueSum, rec.ScanRecords, rec.ScanSum)
		}
		if uint64(rec.Epoch) > preEpochs[rec.Shard] {
			t.Fatalf("shard %d recovered to epoch %d beyond pre-crash %d", rec.Shard, rec.Epoch, preEpochs[rec.Shard])
		}
		if uint64(rec.Epoch) < preEpochs[rec.Shard] {
			torn = true
		}
		recovered += rec.ValueSum
	}
	if !torn {
		t.Fatal("power cut tore no commit — injection missed the IO window")
	}

	// The unacked tail is sum-neutral transfers, so whatever prefix of
	// it each shard recovered, the cross-shard value sum is exact.
	if recovered != total {
		t.Fatalf("recovered cross-shard sum = %d; want %d", recovered, total)
	}
	// Every synchronously acknowledged write was durable before the
	// cut, so non-bank keys must hold their full history.
	for tn := 0; tn < 4; tn++ {
		tenant := fmt.Sprintf("tenant-%d", tn)
		for k := 0; k < 20; k++ {
			key := fmt.Sprintf("key-%02d", k)
			var adds uint64
			for i := 0; i < 60; i++ {
				if i%4 == tn && i%20 == k {
					adds += 5
				}
			}
			v, ok, err := svc2.Get(tenant, key)
			if err != nil {
				t.Fatal(err)
			}
			if !ok || v != 10+adds {
				t.Fatalf("%s/%s = %d (found=%v) after recovery; want %d", tenant, key, v, ok, 10+adds)
			}
		}
	}
	// Each bank pair conserves its 1000 units whatever epoch won.
	for sh := 0; sh < shards; sh++ {
		from, _, _ := svc2.Get("bank", pairs[sh][0])
		to, _, _ := svc2.Get("bank", pairs[sh][1])
		if from+to != 1000 {
			t.Fatalf("shard %d bank pair sums to %d; want 1000", sh, from+to)
		}
	}
}

// TestFreshServiceSurvivesImmediateCrash formats a service and cuts
// power before any client write; recovery must find initialized,
// empty shards.
func TestFreshServiceSurvivesImmediateCrash(t *testing.T) {
	sys := newSystem(t, 2)
	svc, err := New(sys, Config{Shards: 2, RegionBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	svc.Close()
	at := svc.EndTime()
	sys.Array().CutPower(at, sim.NewRNG(7))

	sys2, doneAt, err := core.Recover(core.Options{CPUs: 2, DiskBytesEach: 512 << 20}, sys.Array(), at)
	if err != nil {
		t.Fatal(err)
	}
	svc2, err := New(sys2, Config{Shards: 2, RegionBytes: 1 << 20, StartAt: doneAt})
	if err != nil {
		t.Fatal(err)
	}
	defer svc2.Close()
	for _, rec := range svc2.Recovery() {
		if !rec.Existing || rec.Records != 0 || !rec.Consistent() {
			t.Fatalf("bad fresh recovery: %+v", rec)
		}
	}
}

// TestShardCountMismatch rejects reopening with a different shard
// count (resharding is unsupported).
func TestShardCountMismatch(t *testing.T) {
	sys := newSystem(t, 4)
	svc, err := New(sys, Config{Shards: 4, RegionBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	svc.Close()
	if _, err := New(sys, Config{Shards: 2, RegionBytes: 1 << 20}); err == nil {
		t.Fatal("reopen with different shard count succeeded")
	}
}

// TestShardFull exhausts a tiny shard's slot table.
func TestShardFull(t *testing.T) {
	sys := newSystem(t, 1)
	// 3 pages: 1 header + 2 slot pages = 126 slots, 94 usable at
	// the 3/4 occupancy cap.
	svc, err := New(sys, Config{Shards: 1, RegionBytes: 3 * core.PageSize})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	var full bool
	for i := 0; i < 200; i++ {
		err := svc.Put("t", fmt.Sprintf("key-%03d", i), 1)
		if err == ErrShardFull {
			full = true
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if !full {
		t.Fatal("tiny shard never reported ErrShardFull")
	}
	// Existing keys still readable and writable at capacity.
	if v, ok, _ := svc.Get("t", "key-000"); !ok || v != 1 {
		t.Fatal("reads broken at capacity")
	}
	if err := svc.Put("t", "key-000", 9); err != nil {
		t.Fatalf("overwrite at capacity failed: %v", err)
	}
}
