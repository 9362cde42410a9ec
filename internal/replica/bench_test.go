package replica

// Layer benchmarks and allocation gates for the replication host path
// (encode, follower validate/patch, the whole sync ship), in the
// disk/objstore/proto style: ns/op is informational, the
// *SteadyStateZeroAlloc tests beside them are the gates.

import (
	"testing"

	"memsnap/internal/core"
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
// the consumed pre-image is re-attached first).
func encodeLoop() (d *Delta, encodeAgain func()) {
	prev, cur, whole, ext := benchPages()
	d = &Delta{Shard: 0, Seq: 1, Pages: []core.CommittedPage{{Index: 1, Data: cur}, {Index: 2, Data: whole}}}
	costs := sim.DefaultCosts()
	return d, func() {
		if d.enc != nil {
			encPool.Put(d.enc)
			d.enc = nil
		}
		d.Pages[0].Prev, d.Pages[0].Extents = prev, ext
		d.encode(costs)
	}
}

func BenchmarkEncodeDelta(b *testing.B) {
	d, encodeAgain := encodeLoop()
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
	_, encodeAgain := encodeLoop()
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
	d, encodeAgain := encodeLoop()
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

// TestFollowerValidateSteadyStateZeroAlloc: validating a delta with
// all three frame kinds — the XOR one against the live page, then
// chained on a full frame — allocates nothing once the scratch is warm.
func TestFollowerValidateSteadyStateZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is unreliable under -race")
	}
	fol := batchFollower(t, 1)
	base := basePage()
	if _, st := fol.Apply(0, chainDelta(t, 1, []byte{kindFull}, chainPage(1, nil, base))); st.Code != ApplyOK {
		t.Fatalf("seeding apply: %+v", st)
	}
	mid := fragmented(base)
	_, cur, whole, _ := benchPages()
	d := chainDelta(t, 2, []byte{kindXorRLE, kindExtents, kindFull, kindXorRLE},
		chainPage(1, base, mid), chainPage(2, base, cur), chainPage(3, nil, whole), chainPage(3, whole, fragmented(whole)))
	fs := fol.shards[0]
	validate := func() {
		fs.valPages = fs.valPages[:0]
		if _, ok := fs.validateEnc(d.enc); !ok {
			t.Fatal("validateEnc rejected a well-formed delta")
		}
	}
	validate()
	if got := testing.AllocsPerRun(200, validate); got > 0 {
		t.Fatalf("steady-state validation allocates %.1f times per delta, want 0", got)
	}
}

// BenchmarkShipCommitSync is one replicated commit end to end on the
// host: dirty a manifest page and a slot page, Persist with capture,
// encode, ship over a clean link, follower validate + patch + Persist.
func BenchmarkShipCommitSync(b *testing.B) {
	p := newSyncPair(b, 1<<20)
	defer p.close()
	seq := uint64(0)
	op := func() {
		seq++
		p.ctx.PageForWrite(p.region, 0)[2048+int(seq)%64*8]++
		p.ctx.PageForWrite(p.region, int64(1+seq%8)*core.PageSize)[int(seq)%500*8]++
		p.commit(b, seq)
	}
	for i := 0; i < 64; i++ {
		op()
	}
	b.SetBytes(2 * core.PageSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}
