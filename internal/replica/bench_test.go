package replica

// Layer benchmarks and allocation gates for the replication host path
// (encode, follower validate/patch, the whole sync ship), in the
// disk/objstore/proto style: ns/op is informational, the
// *SteadyStateZeroAlloc tests beside them are the gates.

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"memsnap/internal/core"
	"memsnap/internal/shard"
	"memsnap/internal/sim"
)

// benchPages is the replicated shard's usual delta: a slot page that
// changed in two short runs (ships as extents) and a page with no
// retained pre-image (ships whole).
func benchPages() (prev, cur, whole []byte, ext []core.Extent) {
	prev = basePage()
	cur = append([]byte(nil), prev...)
	for i := 0; i < 8; i++ {
		cur[1000+i] ^= 0x5A
		cur[3000+i] ^= 0xA5
	}
	whole = basePage()
	whole[9] = 0x77
	return prev, cur, whole, core.DiffExtents(prev, cur, make([]core.Extent, 0, 8))
}

// encodeLoop returns a function that encodes the benchPages delta from
// scratch on every call (the cached encoding goes back to its pool and
// the consumed extent list is re-attached first; the last encoding goes
// back when the test ends).
func encodeLoop(tb testing.TB) (d *Delta, encodeAgain func()) {
	_, cur, whole, ext := benchPages()
	d = &Delta{Shard: 0, Seq: 1, Pages: []core.CommittedPage{{Index: 1, Data: cur}, {Index: 2, Data: whole}}}
	costs := sim.DefaultCosts()
	tb.Cleanup(func() { encPool.Put(d.enc) })
	return d, func() {
		encPool.Put(d.enc)
		d.enc = nil
		d.Pages[0].Extents = ext
		d.encode(costs)
	}
}

func BenchmarkEncodeDelta(b *testing.B) {
	d, encodeAgain := encodeLoop(b)
	encodeAgain()
	if kinds := frameKinds(b, d.enc); len(kinds) != 2 || kinds[0] != kindExtents || kinds[1] != kindFull {
		b.Fatalf("frame kinds %v, want [extents full]", kinds)
	}
	b.SetBytes(2 * core.PageSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		encodeAgain()
	}
}

func TestEncodeSteadyStateZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is unreliable under -race")
	}
	_, encodeAgain := encodeLoop(t)
	for i := 0; i < 8; i++ {
		encodeAgain()
	}
	if got := testing.AllocsPerRun(200, encodeAgain); got > 0 {
		t.Fatalf("steady-state encode allocates %.1f times per delta, want 0", got)
	}
}

// BenchmarkFollowerApplyEncoded applies the benchPages delta again and
// again under increasing sequence numbers: validate, patch, and the
// follower's own synchronous uCheckpoint.
func BenchmarkFollowerApplyEncoded(b *testing.B) {
	fol := batchFollower(b, 1)
	d, encodeAgain := encodeLoop(b)
	encodeAgain()
	apply := func() {
		if _, st := fol.Apply(0, d); st.Code != ApplyOK {
			b.Fatalf("apply seq %d: %+v", d.Seq, st)
		}
		d.Seq++
	}
	for i := 0; i < 16; i++ {
		apply()
	}
	b.SetBytes(int64(len(d.enc)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		apply()
	}
}

// TestFollowerValidateSteadyStateZeroAlloc: validating a delta that
// mixes extents and full frames allocates nothing.
func TestFollowerValidateSteadyStateZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is unreliable under -race")
	}
	prev, cur, whole, _ := benchPages()
	one := append([]byte(nil), prev...)
	one[77] ^= 0x10
	d := &Delta{Shard: 0, Seq: 1, Pages: []core.CommittedPage{diffPage(1, prev, cur), diffPage(2, nil, whole), diffPage(3, prev, one)}}
	encodeOwned(t, d)
	if kinds := frameKinds(t, d.enc); !bytes.Equal(kinds, []byte{kindExtents, kindFull, kindExtents}) {
		t.Fatalf("frame kinds %v, want [extents full extents]", kinds)
	}
	validate := func() {
		if _, ok := validateEnc(d.enc); !ok {
			t.Fatal("validateEnc rejected a well-formed delta")
		}
	}
	if got := testing.AllocsPerRun(200, validate); got > 0 {
		t.Fatalf("validation allocates %.1f times per delta, want 0", got)
	}
}

// shipCommitLoop returns a function doing one replicated commit per
// call on the host: dirty a manifest page and a slot page, Persist with
// capture, encode, ship over a clean link, follower validate + patch +
// Persist. It runs 64 commits first, so the pools are warm.
func shipCommitLoop(tb testing.TB) (op func(), p *syncPair) {
	p = newSyncPair(tb, 1<<20)
	seq := uint64(0)
	op = func() {
		seq++
		p.ctx.PageForWrite(p.region, 0)[2048+int(seq)%64*8]++
		p.ctx.PageForWrite(p.region, int64(1+seq%8)*core.PageSize)[int(seq)%500*8]++
		p.commit(tb, seq)
	}
	for i := 0; i < 64; i++ {
		op()
	}
	return op, p
}

// BenchmarkShipCommitSync is one replicated commit end to end on the
// host (see shipCommitLoop).
func BenchmarkShipCommitSync(b *testing.B) {
	op, p := shipCommitLoop(b)
	defer p.close()
	b.SetBytes(2 * core.PageSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}

// replicatedAdd returns a function doing one blocking Add per call on
// a one-shard service that replicates in the given mode: the caller
// runs the idle shard, and its retire ships through ShipCommit with the
// shard's snapshot function (Sync), or queues the delta for the shard's
// sender goroutine (Async).
func replicatedAdd(tb testing.TB, mode Mode) (op func(), ship *Shipper, closeAll func()) {
	mkSys := func() *core.System {
		sys, err := core.NewSystem(core.Options{CPUs: 1, DiskBytesEach: 512 << 20})
		if err != nil {
			tb.Fatal(err)
		}
		return sys
	}
	const regionBytes = 1 << 20
	fol, err := NewFollower(mkSys(), FollowerConfig{Shards: 1, RegionBytes: regionBytes})
	if err != nil {
		tb.Fatal(err)
	}
	ship = NewShipper(NewLink(LinkConfig{}), fol, 1, Config{Mode: mode})
	svc, err := shard.New(mkSys(), shard.Config{Shards: 1, RegionBytes: regionBytes, Replicator: ship})
	if err != nil {
		tb.Fatal(err)
	}
	ship.Attach(svc)
	keys := make([]string, 256)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%03d", i)
	}
	i := 0
	op = func() {
		i = (i + 1) % len(keys)
		if _, err := svc.Add("bench", keys[i], 1); err != nil {
			tb.Fatal(err)
		}
	}
	for n := 0; n < 2*len(keys); n++ {
		op()
	}
	return op, ship, func() {
		svc.Close()
		ship.Close()
	}
}

// TestShipCommitSteadyStateZeroAlloc is the allocation gate of the
// replicated write path: a commit shipped through ShipCommit, and a
// blocking Add on a replicated service, allocate nothing once the pools
// are warm. The Delta comes from deltaPool and goes back when its last
// holder releases it; the shard hands ShipCommit a snapshot function
// bound once at open.
func TestShipCommitSteadyStateZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is unreliable under -race")
	}
	commit, p := shipCommitLoop(t)
	defer p.close()
	if got := testing.AllocsPerRun(500, commit); got > 0 {
		t.Errorf("a shipped commit allocates %.1f times, want 0", got)
	}
	add, _, closeAll := replicatedAdd(t, Sync)
	defer closeAll()
	if got := testing.AllocsPerRun(500, add); got > 0 {
		t.Errorf("a replicated Add allocates %.1f times, want 0", got)
	}
}

// maxAsyncAllocsPerAdd is the ceiling on whole-process allocations per
// asynchronously replicated Add. Measured 0.015-0.045 (runtime
// background work); one escaping allocation per sender batch costs
// about 0.3-0.4.
const maxAsyncAllocsPerAdd = 0.15

// TestAsyncShipSteadyStateAllocs is the allocation gate of the async
// sender (Shipper.run): blocking Adds on a service that replicates
// asynchronously, with the shard's sender goroutine coalescing the
// queued deltas into batches and shipping them. testing.AllocsPerRun
// would round a per-batch cost shared by several Adds down to 0, so
// this counts the whole process's mallocs over 2,000 Adds and the
// Flush that ships the last of them, as a fraction per Add.
func TestAsyncShipSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is unreliable under -race")
	}
	add, ship, closeAll := replicatedAdd(t, Async)
	defer closeAll()
	ship.Flush()
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	const adds = 2000
	for i := 0; i < adds; i++ {
		add()
	}
	ship.Flush()
	runtime.ReadMemStats(&m1)
	perAdd := float64(m1.Mallocs-m0.Mallocs) / adds
	t.Logf("async replicated Add: %.3f allocations per op", perAdd)
	if perAdd > maxAsyncAllocsPerAdd {
		t.Fatalf("an async replicated Add allocates %.3f times, ceiling %v", perAdd, maxAsyncAllocsPerAdd)
	}
}
