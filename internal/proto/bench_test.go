package proto

import "testing"

// cycleReader serves the same burst of frames forever, at most one
// burst per Read: a pipelined peer that never runs dry.
type cycleReader struct {
	burst []byte
	off   int
	reads int
}

func (r *cycleReader) Read(p []byte) (int, error) {
	r.reads++
	n := copy(p, r.burst[r.off:])
	if r.off += n; r.off == len(r.burst) {
		r.off = 0
	}
	return n, nil
}

// nextOf16 returns a warmed-up reader over bursts of 16 get requests —
// what a connection at pipeline depth 16 sees — with its source and
// the wire size of one frame.
func nextOf16(tb testing.TB) (*FrameReader, *cycleReader, int) {
	const perBurst = 16
	var burst []byte
	var err error
	for i := 0; i < perBurst; i++ {
		burst, err = AppendRequest(burst, &Request{ID: uint64(i), Kind: KindGet, Tenant: []byte("tenant00"), Key: []byte("key00000")})
		if err != nil {
			tb.Fatal(err)
		}
	}
	src := &cycleReader{burst: burst}
	fr := NewFrameReader(src, 0)
	for i := 0; i < 4*perBurst; i++ {
		if _, err := fr.Next(); err != nil {
			tb.Fatal(err)
		}
	}
	return fr, src, len(burst) / perBurst
}

func BenchmarkFrameReaderNext(b *testing.B) {
	fr, src, frame := nextOf16(b)
	reads := src.reads
	b.ReportAllocs()
	b.SetBytes(int64(frame))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fr.Next(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(src.reads-reads)/float64(b.N), "reads/op")
}

func TestFrameReaderSteadyStateZeroAlloc(t *testing.T) {
	fr, _, _ := nextOf16(t)
	if n := testing.AllocsPerRun(1000, func() { fr.Next() }); n != 0 {
		t.Fatalf("steady-state Next allocates %v times per frame, want 0", n)
	}
}
