package mem

import (
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"memsnap/internal/sim"
)

func newTestMem() *PhysMem { return New(sim.DefaultCosts()) }

func TestAllocZeroed(t *testing.T) {
	m := newTestMem()
	pg := m.Alloc(nil)
	data := pg.Data()
	if len(data) != PageSize {
		t.Fatalf("frame size = %d", len(data))
	}
	for i, b := range data {
		if b != 0 {
			t.Fatalf("byte %d not zero", i)
		}
	}
}

func TestAllocChargesClock(t *testing.T) {
	m := newTestMem()
	clk := sim.NewClock()
	m.Alloc(clk)
	if clk.Now() == 0 {
		t.Fatal("Alloc did not charge the clock")
	}
}

func TestFreeReuseZeroes(t *testing.T) {
	m := newTestMem()
	pg := m.Alloc(nil)
	copy(pg.Data(), []byte("dirty data"))
	f := pg.Frame()
	m.Free(pg)
	pg2 := m.Alloc(nil)
	if pg2.Frame() != f {
		t.Fatalf("free frame not reused: got %d want %d", pg2.Frame(), f)
	}
	for i, b := range pg2.Data() {
		if b != 0 {
			t.Fatalf("reused frame byte %d not zeroed", i)
		}
	}
}

func TestPageLookup(t *testing.T) {
	m := newTestMem()
	pg := m.Alloc(nil)
	if got := m.Page(pg.Frame()); got != pg {
		t.Fatal("Page lookup mismatch")
	}
	m.Free(pg)
	if got := m.Page(pg.Frame()); got != nil {
		t.Fatal("freed frame still has metadata")
	}
	if got := m.Page(Frame(9999)); got != nil {
		t.Fatal("out-of-range frame returned metadata")
	}
}

func TestFlags(t *testing.T) {
	m := newTestMem()
	pg := m.Alloc(nil)
	if PageFlags(pg.flags.Load())&FlagTracked != 0 {
		t.Fatal("fresh page has flag set")
	}
	pg.SetFlag(FlagTracked)
	if PageFlags(pg.flags.Load())&FlagTracked == 0 {
		t.Fatal("SetFlag did not stick")
	}
	pg.ClearFlag(FlagTracked)
	if PageFlags(pg.flags.Load())&FlagTracked != 0 {
		t.Fatal("ClearFlag did not clear")
	}
}

// TestHolds pins the hold count: a page stays held until every Hold is
// matched by an Unhold.
func TestHolds(t *testing.T) {
	m := newTestMem()
	pg := m.Alloc(nil)
	if pg.Held() {
		t.Fatal("fresh page is held")
	}
	pg.Hold()
	pg.Hold()
	pg.Unhold()
	if !pg.Held() {
		t.Fatal("one of two holds released the page")
	}
	pg.Unhold()
	if pg.Held() {
		t.Fatal("page still held after every hold was dropped")
	}
}

func TestFlagsConcurrent(t *testing.T) {
	m := newTestMem()
	pg := m.Alloc(nil)
	done := make(chan bool)
	for i := 0; i < 4; i++ {
		go func() {
			for j := 0; j < 1000; j++ {
				pg.SetFlag(FlagTracked)
				pg.ClearFlag(FlagTracked)
			}
			done <- true
		}()
	}
	for i := 0; i < 4; i++ {
		<-done
	}
}

func TestReverseMappings(t *testing.T) {
	m := newTestMem()
	pg := m.Alloc(nil)
	ownerA, ownerB := "asA", "asB"
	pg.AddMapping(ReverseMapping{Owner: ownerA, VPN: 10})
	pg.AddMapping(ReverseMapping{Owner: ownerB, VPN: 20})
	if pg.RefCount() != 2 {
		t.Fatalf("refcount = %d", pg.RefCount())
	}
	maps := pg.Mappings()
	if len(maps) != 2 {
		t.Fatalf("mappings = %v", maps)
	}
	pg.RemoveMapping(ownerA, 10)
	if pg.RefCount() != 1 {
		t.Fatalf("refcount after remove = %d", pg.RefCount())
	}
	if got := pg.Mappings(); len(got) != 1 || got[0].Owner != ownerB {
		t.Fatalf("wrong mapping removed: %v", got)
	}
	// Removing a non-existent mapping is a no-op.
	pg.RemoveMapping(ownerA, 99)
	if pg.RefCount() != 1 {
		t.Fatal("no-op remove changed refcount")
	}
}

func TestCopy(t *testing.T) {
	m := newTestMem()
	src := m.Alloc(nil)
	copy(src.Data(), []byte("hello memsnap"))
	clk := sim.NewClock()
	dst := m.Copy(clk, src)
	if dst.Frame() == src.Frame() {
		t.Fatal("Copy returned same frame")
	}
	if string(dst.Data()[:13]) != "hello memsnap" {
		t.Fatal("Copy did not copy data")
	}
	if clk.Now() == 0 {
		t.Fatal("Copy did not charge the clock")
	}
	// Mutating the copy must not affect the source.
	dst.Data()[0] = 'X'
	if src.Data()[0] != 'h' {
		t.Fatal("copy aliases source")
	}
}

func TestStats(t *testing.T) {
	m := newTestMem()
	a := m.Alloc(nil)
	m.Alloc(nil)
	m.Free(a)
	s := m.Stats()
	if s.TotalFrames != 2 || s.FreeFrames != 1 || s.Allocations != 2 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestAllocUniqueFramesProperty(t *testing.T) {
	f := func(n uint8) bool {
		m := newTestMem()
		seen := make(map[Frame]bool)
		for i := 0; i < int(n); i++ {
			pg := m.Alloc(nil)
			if seen[pg.Frame()] {
				return false
			}
			seen[pg.Frame()] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestFreeTwiceFreesOnce pins the rule the COW retire path relies on:
// a page that is no longer its frame's current page — here, freed
// already and the frame handed out again — is ignored by Free.
func TestFreeTwiceFreesOnce(t *testing.T) {
	m := newTestMem()
	pg := m.Alloc(nil)
	if !m.Free(pg) {
		t.Fatal("first Free did not free")
	}
	if m.Free(pg) {
		t.Fatal("second Free of the same page freed again")
	}
	if s := m.Stats(); s.FreeFrames != 1 {
		t.Fatalf("free frames = %d, want 1", s.FreeFrames)
	}
	reuse := m.Alloc(nil)
	if reuse.Frame() != pg.Frame() || reuse == pg {
		t.Fatalf("frame %d reused as %d, same page %v", pg.Frame(), reuse.Frame(), reuse == pg)
	}
	if m.Free(pg) {
		t.Fatal("stale page freed the frame's new owner")
	}
	if m.Page(reuse.Frame()) != reuse {
		t.Fatal("new owner lost its directory slot")
	}
}

// TestCopyReusesFreeFrame: the COW copy takes a free frame when there
// is one and leaves none of its old bytes behind.
func TestCopyReusesFreeFrame(t *testing.T) {
	m := newTestMem()
	src := m.Alloc(nil)
	old := m.Alloc(nil)
	for i := range old.Data() {
		old.Data()[i] = 0xee
	}
	copy(src.Data(), "fresh")
	m.Free(old)
	dst := m.Copy(nil, src)
	if dst.Frame() != old.Frame() {
		t.Fatalf("Copy grew memory (frame %d) with frame %d free", dst.Frame(), old.Frame())
	}
	if string(dst.Data()) != string(src.Data()) {
		t.Fatal("reused frame differs from the source")
	}
	if s := m.Stats(); s.TotalFrames != 2 || s.FreeFrames != 0 || s.Allocations != 3 {
		t.Fatalf("stats = %+v", s)
	}
}

// TestDirectoryConcurrentReadDuringGrowth reads the frame directory
// without a lock while the allocator grows it across several chunks
// and recycles frames. Run under -race: readers learn which frames
// exist only through an atomic counter, as a TLB entry or a PTE
// publishes a frame to a translating thread.
func TestDirectoryConcurrentReadDuringGrowth(t *testing.T) {
	m := newTestMem()
	total := 2*chunkFrames + 100
	if testing.Short() {
		total = chunkFrames + 100
	}
	published := make([]atomic.Pointer[Page], total)
	var n atomic.Int64

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := int64(r); ; i += 7 {
				select {
				case <-stop:
					return
				default:
				}
				have := n.Load()
				if have == 0 {
					continue
				}
				want := published[i%have].Load()
				f := want.Frame()
				if got := m.Page(f); got != want {
					t.Errorf("Page(%d) = %p, want %p", f, got, want)
					return
				}
				if data := m.Page(f).Data(); len(data) != PageSize || data[0] != byte(f) {
					t.Errorf("frame %d: %d bytes, first byte %d", f, len(data), data[0])
					return
				}
				if m.Page(Frame(total+2*chunkFrames)) != nil {
					t.Errorf("frame past the directory has a page")
					return
				}
			}
		}(r)
	}

	// A second allocator goroutine churns frames it never publishes.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			a := m.Alloc(nil)
			m.Free(m.Copy(nil, a))
			m.Free(a)
		}
	}()

	for i := 0; i < total; i++ {
		pg := m.Alloc(nil)
		pg.Data()[0] = byte(pg.Frame())
		published[i].Store(pg)
		n.Add(1)
	}
	close(stop)
	wg.Wait()
	if got := len(*m.dir.Load()); got < 2 {
		t.Fatalf("directory has %d chunks; the test meant to grow it", got)
	}
}
