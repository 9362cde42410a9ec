package replica

// Pool accounting at the two ends of a delta's life: a commit shipped
// after Close, and a release with no reference left to drop.

import (
	"testing"

	"memsnap/internal/core"
	"memsnap/internal/pool"
)

// TestShipCommitAfterCloseReleases ships commits into a closed Async
// shipper. Its run loops and replay window are gone, so each commit is
// dropped on the spot: counted Unsent, its captured pages back in the
// capture pool, nothing encoded. Before the fix the queue send could
// win the select while the queue had room, and the window refilled, so
// a Window-8 shipper stranded 16 encodings and their pages.
func TestShipCommitAfterCloseReleases(t *testing.T) {
	pages0, slices0 := core.CapturePoolStats()
	ext0, enc0 := core.CaptureExtentStats(), EncPoolStats()
	p := newSyncPair(t, 1<<20)
	p.ship.Close()
	p.ship = NewShipper(NewLink(LinkConfig{}), p.fol, 1, Config{Mode: Async, Window: 8})
	p.ship.Close()
	const commits = 20
	for seq := uint64(1); seq <= commits; seq++ {
		p.ctx.PageForWrite(p.region, int64(1+seq%4)*core.PageSize)[int(seq)*8]++
		p.commit(t, seq)
	}
	p.ctx.CaptureCommits(false)
	if st := p.ship.Stats()[0]; st.Unsent != commits || st.Shipped != 0 {
		t.Errorf("after Close: Unsent %d Shipped %d, want %d and 0", st.Unsent, st.Shipped, commits)
	}
	pages1, slices1 := core.CapturePoolStats()
	for _, c := range []struct {
		name          string
		before, after pool.Stats
	}{
		{"capture pages", pages0, pages1},
		{"captured-page slices", slices0, slices1},
		{"extent lists", ext0, core.CaptureExtentStats()},
		{"encodings", enc0, EncPoolStats()},
	} {
		if c.after.InUse() != c.before.InUse() {
			t.Errorf("%s in use %d -> %d after shipping into a closed shipper", c.name, c.before.InUse(), c.after.InUse())
		}
	}
}

// TestDeltaDoubleReleasePanics: a release past the last reference
// panics instead of putting the delta's encoding into its pool twice.
func TestDeltaDoubleReleasePanics(t *testing.T) {
	puts0 := EncPoolStats().Puts
	d := &Delta{enc: append(encPool.Get(64), 1)}
	d.retain()
	d.release()
	defer func() {
		if recover() == nil {
			t.Fatal("a second release of a delta retained once did not panic")
		}
		if puts := EncPoolStats().Puts - puts0; puts != 1 {
			t.Fatalf("encoding returned %d times, want once", puts)
		}
	}()
	d.release()
}
