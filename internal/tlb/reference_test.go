package tlb

import (
	"fmt"
	"testing"

	"memsnap/internal/mem"
	"memsnap/internal/sim"
)

// refTLB is the TLB as it stood before the slot array: a map from vpn
// to entry plus a FIFO slice of vpns, scanned and memmoved on every
// invalidation. It is kept, test-only, as the executable definition of
// the replacement policy — which entry an insert evicts, what a
// re-insert keeps, which lookup hits — so the differential tests below
// can hold TLB to it operation by operation.
type refTLB struct {
	capacity int
	entries  map[uint64]Entry
	fifo     []uint64
}

func newRefTLB(capacity int) *refTLB {
	return &refTLB{capacity: capacity, entries: make(map[uint64]Entry, capacity)}
}

func (t *refTLB) lookup(vpn uint64) (Entry, bool) {
	e, ok := t.entries[vpn]
	return e, ok
}

// insert returns the evicted vpn, if the insert evicted one.
func (t *refTLB) insert(vpn uint64, e Entry) (victim uint64, evicted bool) {
	if _, exists := t.entries[vpn]; !exists {
		if len(t.entries) >= t.capacity {
			victim, evicted = t.fifo[0], true
			t.fifo = t.fifo[1:]
			delete(t.entries, victim)
		}
		t.fifo = append(t.fifo, vpn)
	}
	t.entries[vpn] = e
	return victim, evicted
}

func (t *refTLB) invalidatePage(vpn uint64) {
	if _, ok := t.entries[vpn]; !ok {
		return
	}
	delete(t.entries, vpn)
	for i, v := range t.fifo {
		if v == vpn {
			t.fifo = append(t.fifo[:i], t.fifo[i+1:]...)
			break
		}
	}
}

func (t *refTLB) invalidateAll() {
	clear(t.entries)
	t.fifo = t.fifo[:0]
}

// fifoOrder returns the live vpns of t from oldest to newest.
func (t *TLB) fifoOrder() []uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var order []uint64
	for i := t.slots[0].next; i != 0; i = t.slots[i].next {
		order = append(order, t.slots[i].vpn)
	}
	return order
}

// op codes of a differential stream.
const (
	opLookup = iota
	opInsert
	opInvalidatePage
	opInvalidateAll
)

// differ drives a TLB and the reference with one operation stream.
type differ struct {
	got   *TLB
	want  *refTLB
	pages [4]*mem.Page
}

func newDiffer(capacity int) *differ {
	d := &differ{got: New(capacity), want: newRefTLB(capacity)}
	for i := range d.pages {
		d.pages[i] = new(mem.Page)
	}
	return d
}

// apply runs one operation on both and compares what the operation
// returned (a lookup's hit or miss and entry), the eviction victim and
// the occupancy.
func (d *differ) apply(op int, vpn uint64, arg int) error {
	switch op {
	case opLookup:
		ge, gok := d.got.Lookup(vpn)
		we, wok := d.want.lookup(vpn)
		if gok != wok {
			return fmt.Errorf("Lookup(%d) hit = %v, reference %v", vpn, gok, wok)
		}
		if ge != we {
			return fmt.Errorf("Lookup(%d) = %+v, reference %+v", vpn, ge, we)
		}
	case opInsert:
		e := Entry{Page: d.pages[arg%len(d.pages)], Writable: arg&4 != 0}
		oldest := d.got.slots[d.got.slots[0].next].vpn
		lenBefore := d.got.Len()
		d.got.Insert(vpn, e)
		victim, evicted := d.want.insert(vpn, e)
		if gotEvicted := lenBefore > 0 && d.got.find(oldest) == 0; gotEvicted != evicted {
			return fmt.Errorf("Insert(%d) evicted %v, reference %v", vpn, gotEvicted, evicted)
		}
		if evicted && oldest != victim {
			return fmt.Errorf("Insert(%d) evicted vpn %d, reference %d", vpn, oldest, victim)
		}
	case opInvalidatePage:
		d.got.InvalidatePage(vpn)
		d.want.invalidatePage(vpn)
	case opInvalidateAll:
		d.got.InvalidateAll()
		d.want.invalidateAll()
	}
	if d.got.Len() != len(d.want.entries) {
		return fmt.Errorf("Len = %d, reference %d", d.got.Len(), len(d.want.entries))
	}
	return nil
}

// checkContents compares the whole cache: the FIFO order, which fixes
// every future victim, and the entry cached for each vpn.
func (d *differ) checkContents() error {
	order := d.got.fifoOrder()
	if len(order) != len(d.want.fifo) {
		return fmt.Errorf("FIFO holds %d entries, reference %d", len(order), len(d.want.fifo))
	}
	for i, vpn := range order {
		if vpn != d.want.fifo[i] {
			return fmt.Errorf("FIFO position %d holds vpn %d, reference %d", i, vpn, d.want.fifo[i])
		}
		if e := d.got.slots[d.got.find(vpn)].entry; e != d.want.entries[vpn] {
			return fmt.Errorf("vpn %d caches %+v, reference %+v", vpn, e, d.want.entries[vpn])
		}
	}
	return nil
}

// step is apply plus checkContents.
func (d *differ) step(op int, vpn uint64, arg int) error {
	if err := d.apply(op, vpn, arg); err != nil {
		return err
	}
	return d.checkContents()
}

// TestMatchesReference runs seeded random operation streams against
// the old map+slice TLB at a capacity of one (every insert evicts),
// two and four (the list's head, tail and middle all get unlinked) and
// the default, where hash chains form. The vpn span is three times the
// capacity and a flush comes once in 40 x capacity operations, so the
// cache fills, evicts and is invalidated while full.
func TestMatchesReference(t *testing.T) {
	for _, capacity := range []int{1, 2, 4, DefaultCapacity} {
		// Comparing the whole cache costs its size: after every
		// operation on the small ones, every 509th on the large one.
		steps, every := 5000, 1
		if capacity == DefaultCapacity {
			steps, every = 150000, 509
		}
		for seed := uint64(1); seed <= 3; seed++ {
			rng := sim.NewRNG(seed*1000 + uint64(capacity))
			d := newDiffer(capacity)
			span := uint64(3*capacity + 2)
			flushEvery := 40*capacity + 50
			for i := 0; i < steps; i++ {
				op := opInvalidateAll
				if i%flushEvery != flushEvery-1 {
					switch r := rng.Intn(100); {
					case r < 35:
						op = opLookup
					case r < 85:
						op = opInsert
					default:
						op = opInvalidatePage
					}
				}
				// Region addresses are large and share their high bits.
				vpn := 0x7_0000_0000 + rng.Uint64()%span
				err := d.apply(op, vpn, rng.Intn(8))
				if err == nil && (i%every == 0 || i == steps-1) {
					err = d.checkContents()
				}
				if err != nil {
					t.Fatalf("capacity %d seed %d step %d: %v", capacity, seed, i, err)
				}
			}
		}
	}
}

// TestMatchesReferenceFlushWhileFull pins the shapes the random
// streams reach only by luck: a full flush of a full TLB followed by a
// refill, and invalidating every entry one by one in insertion order
// and in reverse.
func TestMatchesReferenceFlushWhileFull(t *testing.T) {
	for _, capacity := range []int{1, 2, 4, DefaultCapacity} {
		d := newDiffer(capacity)
		step := func(op int, vpn uint64) {
			t.Helper()
			if err := d.apply(op, vpn, int(vpn)); err != nil {
				t.Fatalf("capacity %d: %v", capacity, err)
			}
		}
		check := func() {
			t.Helper()
			if err := d.checkContents(); err != nil {
				t.Fatalf("capacity %d: %v", capacity, err)
			}
		}
		n := uint64(capacity)
		for round := 0; round < 2; round++ {
			for v := uint64(0); v < n+n/2+1; v++ {
				step(opInsert, v)
			}
			check()
			step(opInvalidateAll, 0)
			step(opLookup, n)
			check()
		}
		for _, reverse := range []bool{false, true} {
			for v := uint64(0); v < n; v++ {
				step(opInsert, v)
			}
			check()
			for v := uint64(0); v < n; v++ {
				if reverse {
					step(opInvalidatePage, n-1-v)
				} else {
					step(opInvalidatePage, v)
				}
			}
			check()
		}
		step(opInsert, 7)
		step(opLookup, 7)
		check()
	}
}

// FuzzTLBOps decodes the input as an operation stream and holds a
// small TLB to the reference after every operation. The first byte
// picks the capacity (1 to 8); each following pair of bytes is one
// operation: the top two bits of the first byte are the op code, its
// low six bits the entry argument, and the second byte the vpn (of
// 24). The committed corpus under testdata/fuzz/FuzzTLBOps holds
// streams that fill, evict, unlink from the head, middle and tail of
// the list, and flush.
func FuzzTLBOps(f *testing.F) {
	const (
		look  = opLookup << 6
		ins   = opInsert << 6
		inval = opInvalidatePage << 6
		flush = opInvalidateAll << 6
	)
	f.Add([]byte{0})
	f.Add([]byte{1, ins, 1, ins, 2, look, 1, ins, 3, look, 1, look, 3})            // capacity 2: third insert evicts vpn 1
	f.Add([]byte{3, ins, 1, ins | 4, 2, ins, 3, ins, 4, inval, 2, ins, 5, ins, 6}) // unlink from the middle, reuse the slot
	f.Add([]byte{0, ins, 9, flush, 0, ins, 9, look, 9})                            // capacity 1: flush, reinsert
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		d := newDiffer(1 + int(data[0]%8))
		data = data[1:]
		for i := 0; i+1 < len(data); i += 2 {
			if err := d.step(int(data[i]>>6), uint64(data[i+1]%24), int(data[i]&0x3f)); err != nil {
				t.Fatalf("op %d: %v", i/2, err)
			}
		}
	})
}
