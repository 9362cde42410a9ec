package shard

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"memsnap/internal/core"
	"memsnap/internal/sim"
)

// The two table operations a shard worker spends its apply time in,
// against a 1 MiB region holding 2,048 keys (load factor 1/8, every
// page resident and already dirty): no fault and no commit is timed,
// only the probe and the slot update. Both allocate nothing; the
// AllocsPerRun tests beside them gate that.

// benchTable returns a formatted table preloaded with n keys, with the
// keys and their hashes.
func benchTable(n int) (*table, [][]byte, []uint64) {
	const regionBytes = 1 << 20
	sys, err := core.NewSystem(core.Options{})
	if err != nil {
		panic(err)
	}
	p := sys.NewProcess()
	ctx := p.NewContext(0)
	r, err := p.Open(ctx, RegionName(0), regionBytes)
	if err != nil {
		panic(err)
	}
	t := &table{ctx: ctx, region: r}
	t.format(0, 1, regionBytes, 0)
	keys := make([][]byte, n)
	hashes := make([]uint64, n)
	for i := range keys {
		name := fmt.Sprintf("key-%06d", i)
		if keys[i], err = composeKey(nil, "bench", name); err != nil {
			panic(err)
		}
		hashes[i] = fnv1a("bench", name)
		if _, _, err := t.put(hashes[i], keys[i], uint64(i)); err != nil {
			panic(err)
		}
	}
	return t, keys, hashes
}

var benchValue uint64

// tableAdd returns a closure incrementing the next key per call.
func tableAdd() func() {
	t, keys, hashes := benchTable(2048)
	i := 0
	return func() {
		i = (i + 1) % len(keys)
		v, err := t.add(hashes[i], keys[i], 1)
		if err != nil {
			panic(err)
		}
		benchValue = v
	}
}

// tableGet returns a closure reading the next key per call.
func tableGet() func() {
	t, keys, hashes := benchTable(2048)
	i := 0
	return func() {
		i = (i + 1) % len(keys)
		benchValue, _ = t.get(hashes[i], keys[i])
	}
}

func BenchmarkTableAdd(b *testing.B) {
	op := tableAdd()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}

func BenchmarkTableGet(b *testing.B) {
	op := tableGet()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}

func TestTableSteadyStateZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	if testing.AllocsPerRun(2000, tableAdd()) != 0 {
		t.Error("table.add on an existing key allocates")
	}
	if testing.AllocsPerRun(2000, tableGet()) != 0 {
		t.Error("table.get allocates")
	}
}

// The ways an op reaches a shard, end to end on one shard with every
// key preloaded (no table growth; each write batch is one uCheckpoint
// on the simulated disk): a lone blocking Add on an idle shard, which
// runs on the caller, the same Add through TryRun, which runs there too;
// a lone tagged get on an idle shard, which runs on
// its submitter; and a 16-deep DoTagged pipeline of Adds, which goes
// queue → wake → worker → gather → apply → commit → retire.

// benchService returns a one-shard service holding n keys.
func benchService(n int) (*Service, []string) {
	sys, err := core.NewSystem(core.Options{CPUs: 1, DiskBytesEach: 512 << 20})
	if err != nil {
		panic(err)
	}
	svc, err := New(sys, Config{Shards: 1})
	if err != nil {
		panic(err)
	}
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%06d", i)
		if err := svc.Put("bench", keys[i], uint64(i)); err != nil {
			panic(err)
		}
	}
	return svc, keys
}

// doIdle returns a closure doing one blocking Add per call.
func doIdle() (func(), *Service) {
	svc, keys := benchService(2048)
	i := 0
	return func() {
		i = (i + 1) % len(keys)
		r := svc.Do(Op{Kind: OpAdd, Tenant: "bench", Key: keys[i], Value: 1})
		if r.Err != nil {
			panic(r.Err)
		}
		benchValue = r.Value
	}, svc
}

// tryRunIdle returns a closure doing one Add per call through TryRun,
// which finds the shard idle and runs it on the caller.
func tryRunIdle() (func(), *Service) {
	svc, keys := benchService(2048)
	i := 0
	return func() {
		i = (i + 1) % len(keys)
		r, ran, err := svc.TryRun(Op{Kind: OpAdd, Tenant: "bench", Key: keys[i], Value: 1})
		if !ran || err != nil || r.Err != nil {
			panic(fmt.Sprint("TryRun on an idle shard: ", ran, err, r.Err))
		}
		benchValue = r.Value
	}, svc
}

// taggedGetIdle returns a closure doing one tagged get per call and
// waiting for its response.
func taggedGetIdle() (func(), *Service) {
	svc, keys := benchService(2048)
	resp := make(chan Response, 1)
	i := 0
	return func() {
		i = (i + 1) % len(keys)
		if err := svc.DoTagged(Op{Kind: OpGet, Tenant: "bench", Key: keys[i]}, uint64(i), resp); err != nil {
			panic(err)
		}
		benchValue = (<-resp).Value
	}, svc
}

// workerLoop returns a closure completing one pipelined Add per call:
// it keeps depth ops in flight on one response channel, reaping one and
// submitting the next.
func workerLoop() (func(), *Service) {
	const depth = 16
	svc, keys := benchService(2048)
	resp := make(chan Response, depth)
	i := 0
	submit := func() {
		i = (i + 1) % len(keys)
		if err := svc.DoTagged(Op{Kind: OpAdd, Tenant: "bench", Key: keys[i], Value: 1}, uint64(i), resp); err != nil {
			panic(err)
		}
	}
	for d := 0; d < depth; d++ {
		submit()
	}
	return func() {
		r := <-resp
		if r.Err != nil {
			panic(r.Err)
		}
		benchValue = r.Value
		submit()
	}, svc
}

func BenchmarkDoIdle(b *testing.B) {
	op, svc := doIdle()
	defer svc.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}

func BenchmarkTryRunIdle(b *testing.B) {
	op, svc := tryRunIdle()
	defer svc.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}

func BenchmarkTaggedGetIdle(b *testing.B) {
	op, svc := taggedGetIdle()
	defer svc.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}

func BenchmarkWorkerLoop(b *testing.B) {
	op, svc := workerLoop()
	defer svc.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}

// TestDoSteadyStateAllocs is the allocation gate for the four paths,
// with no Replicator or Recorder attached. The bound it holds is 0 per
// op: a blocking Add on an idle shard, and the same Add through TryRun,
// use the shard's own request, batch, pendingBatch and key scratch and
// get their response by value; a
// tagged get on an idle shard uses the key scratch and the caller's
// channel; a pipelined Add uses a pooled request and the caller's
// channel. What
// still allocates is amortized growth below one allocation per op (the
// disk's block slabs), which AllocsPerRun rounds down.
func TestDoSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	idle, svc := doIdle()
	if n := testing.AllocsPerRun(2000, idle); n != 0 {
		t.Errorf("blocking Add on an idle shard: %v allocs/op, want 0", n)
	}
	svc.Close()
	run, svc := tryRunIdle()
	if n := testing.AllocsPerRun(2000, run); n != 0 {
		t.Errorf("TryRun Add on an idle shard: %v allocs/op, want 0", n)
	}
	svc.Close()
	get, svc := taggedGetIdle()
	if n := testing.AllocsPerRun(2000, get); n != 0 {
		t.Errorf("tagged get on an idle shard: %v allocs/op, want 0", n)
	}
	svc.Close()
	loop, svc := workerLoop()
	if n := testing.AllocsPerRun(2000, loop); n != 0 {
		t.Errorf("pipelined Add through the worker: %v allocs/op, want 0", n)
	}
	svc.Close()
}

var benchStats []ShardStats

// TestStatsCostFlatWithHistory: what a scrape costs must not depend on
// how long the service has run. Stats allocates its result slice and
// nothing per commit ever retired. TotalAlloc is process-wide, so the
// comparison leaves 1 KiB for whatever else allocates in between; a
// copy of the history is 8 B a commit, 1.6 MB here.
func TestStatsCostFlatWithHistory(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	commit, svc := doIdle()
	defer svc.Close()
	// after runs that many more commits and returns the bytes one Stats
	// call then allocates.
	after := func(commits int) uint64 {
		for i := 0; i < commits; i++ {
			commit()
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		benchStats = svc.Stats()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	early, late := after(1_000), after(199_000)
	if late > early+1024 {
		t.Errorf("Stats allocates %d B after 1 K commits and %d B after 200 K", early, late)
	}
}

// BenchmarkTaggedRW50 is an in-package copy of the benchmark's
// shard_rw50_d16 workload: 8 shards on 8 CPUs with 4 MiB regions, 4
// tenants × 10,000 keys preloaded, zipfian (θ 0.99) tenant and key
// popularity, and two submitters each keeping 16 tagged ops in flight,
// half of them gets and half puts. Both submitters and all eight
// workers share the host's cores, so the profile it yields is the
// workload's: `go test -run '^$' -bench TaggedRW50 -mutexprofile m.out
// ./internal/shard` shows where lock waits go.
func BenchmarkTaggedRW50(b *testing.B) {
	const (
		shards     = 8
		tenants    = 4
		keys       = 10000
		submitters = 2
		depth      = 16
	)
	sys, err := core.NewSystem(core.Options{CPUs: shards, DiskBytesEach: 512 << 20})
	if err != nil {
		b.Fatal(err)
	}
	svc, err := New(sys, Config{Shards: shards, RegionBytes: 4 << 20})
	if err != nil {
		b.Fatal(err)
	}
	defer svc.Close()
	tenantNames := make([]string, tenants)
	for i := range tenantNames {
		tenantNames[i] = fmt.Sprintf("t%02d", i)
	}
	keyNames := make([]string, keys)
	for i := range keyNames {
		keyNames[i] = fmt.Sprintf("key%06d", i)
	}
	preload := make(chan Response, 1024)
	for i := 0; i < tenants*keys; i++ {
		if i >= cap(preload) {
			<-preload
		}
		op := Op{Kind: OpPut, Tenant: tenantNames[i/keys], Key: keyNames[i%keys], Value: uint64(i)}
		if err := svc.DoTagged(op, uint64(i), preload); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < cap(preload); i++ {
		<-preload
	}

	tz, kz := sim.NewZipf(tenants, 0.99), sim.NewZipf(keys, 0.99)
	b.ReportAllocs()
	b.ResetTimer()
	var wg sync.WaitGroup
	for s := 0; s < submitters; s++ {
		n := b.N / submitters
		if s == 0 {
			n += b.N % submitters
		}
		wg.Add(1)
		go func(s, n int) {
			defer wg.Done()
			rng := sim.NewRNG(uint64(s) + 1)
			resp := make(chan Response, depth)
			inflight := 0
			for i := 0; i < n; i++ {
				if inflight == depth {
					if r := <-resp; r.Err != nil {
						b.Error(r.Err)
						return
					}
					inflight--
				}
				op := Op{Kind: OpGet, Tenant: tenantNames[tz.Next(rng)], Key: keyNames[kz.Next(rng)]}
				if rng.Intn(2) == 0 {
					op.Kind, op.Value = OpPut, rng.Uint64()%1000
				}
				if err := svc.DoTagged(op, uint64(i), resp); err != nil {
					b.Error(err)
					return
				}
				inflight++
			}
			for ; inflight > 0; inflight-- {
				<-resp
			}
		}(s, n)
	}
	wg.Wait()
}
