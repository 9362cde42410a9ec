package disk

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"
	"time"

	"memsnap/internal/sim"
)

// refDevice is the device model as it stood before the block table:
// a 256 KiB-chunk sparse byte store written in place, with every
// write's previous contents copied out into its in-flight record as
// the undo image. It is kept, test-only, as the executable definition
// of what the device models — queueing, counters, the undo-reclaim
// floor and the exact rng draw order of a power cut — so the
// differential tests below can hold Device to it byte for byte.
type refDevice struct {
	costs    *sim.CostModel
	capacity int64
	chunks   map[int64][]byte
	nextFree time.Duration
	inflight []refInflight
	gcFloor  time.Duration

	stragFrom, stragTo time.Duration
	stragFactor        int

	stats Stats
}

type refInflight struct {
	submit, completion time.Duration
	offset             int64
	oldData            []byte
}

const refChunk = 256 << 10

func newRefDevice(costs *sim.CostModel, capacity int64) *refDevice {
	return &refDevice{costs: costs, capacity: capacity, chunks: make(map[int64][]byte)}
}

func (d *refDevice) readAt(off int64, dst []byte) {
	for len(dst) > 0 {
		within := off % refChunk
		n := min(refChunk-within, int64(len(dst)))
		if chunk := d.chunks[off/refChunk]; chunk != nil {
			copy(dst[:n], chunk[within:])
		} else {
			clear(dst[:n])
		}
		off += n
		dst = dst[n:]
	}
}

func (d *refDevice) writeAt(off int64, src []byte) {
	for len(src) > 0 {
		within := off % refChunk
		n := min(refChunk-within, int64(len(src)))
		chunk := d.chunks[off/refChunk]
		if chunk == nil {
			chunk = make([]byte, refChunk)
			d.chunks[off/refChunk] = chunk
		}
		copy(chunk[within:], src[:n])
		off += n
		src = src[n:]
	}
}

func (d *refDevice) setStraggler(from, to time.Duration, factor int) {
	if factor <= 1 {
		d.stragFrom, d.stragTo, d.stragFactor = 0, 0, 0
		return
	}
	d.stragFrom, d.stragTo, d.stragFactor = from, to, factor
}

// service queues an n-byte IO submitted at at and returns its
// completion time.
func (d *refDevice) service(at time.Duration, n int) time.Duration {
	start := max(at, d.nextFree)
	cost := d.costs.DiskBaseLatency + d.costs.TransferCost(n)
	if d.stragFactor > 1 && start >= d.stragFrom && start < d.stragTo {
		cost *= time.Duration(d.stragFactor)
	}
	d.nextFree = start + cost
	return d.nextFree
}

func (d *refDevice) submitWrite(at time.Duration, offset int64, data []byte) time.Duration {
	return d.submitWriteV(at, []Extent{{Offset: offset, Data: data}}, len(data))
}

func (d *refDevice) submitWriteV(at time.Duration, segs []Extent, total int) time.Duration {
	completion := d.service(at, total)
	for _, s := range segs {
		old := make([]byte, len(s.Data))
		d.readAt(s.Offset, old)
		d.inflight = append(d.inflight, refInflight{submit: at, completion: completion, offset: s.Offset, oldData: old})
		d.writeAt(s.Offset, s.Data)
		d.stats.BytesWritten += int64(len(s.Data))
	}
	d.stats.Writes++
	d.gc(at)
	return completion
}

func (d *refDevice) submitRead(at time.Duration, offset int64, buf []byte) time.Duration {
	completion := d.service(at, len(buf))
	d.readAt(offset, buf)
	d.stats.Reads++
	d.stats.BytesRead += int64(len(buf))
	return completion
}

func (d *refDevice) gc(at time.Duration) {
	if len(d.inflight) < 64 {
		return
	}
	kept := d.inflight[:0]
	for _, w := range d.inflight {
		if w.completion > at {
			kept = append(kept, w)
		}
	}
	if len(kept) < len(d.inflight) && at > d.gcFloor {
		d.gcFloor = at
	}
	d.inflight = kept
}

func (d *refDevice) cutPower(at time.Duration, rng *sim.RNG) {
	at = max(at, d.gcFloor)
	sector := d.costs.DiskSectorSize
	for i := len(d.inflight) - 1; i >= 0; i-- {
		w := d.inflight[i]
		if w.completion <= at {
			continue
		}
		for s := 0; s < len(w.oldData); s += sector {
			if w.submit < at && rng.Float64() < 0.5 {
				continue
			}
			end := min(s+sector, len(w.oldData))
			d.writeAt(w.offset+int64(s), w.oldData[s:end])
		}
	}
	d.inflight = nil
	d.nextFree = 0
}

// payloads hands out write payloads as windows into one block of
// random bytes, so a stream of large writes costs one draw each.
type payloads struct {
	rng  *sim.RNG
	pool []byte
}

func newPayloads(rng *sim.RNG) *payloads {
	pool := make([]byte, 1<<20)
	for i := 0; i < len(pool); i += 8 {
		binary.LittleEndian.PutUint64(pool[i:], rng.Uint64())
	}
	return &payloads{rng: rng, pool: pool}
}

func (p *payloads) get(n int) []byte {
	off := p.rng.Intn(len(p.pool) - n)
	return p.pool[off : off+n]
}

// devPair drives a Device and the reference model in lockstep and
// fails the test at the first observable difference.
type devPair struct {
	t   *testing.T
	dev *Device
	ref *refDevice
	// got and want are whole-device image buffers, reused by check.
	got, want []byte
	bag       spareBag
}

func newDevPair(t *testing.T, m *sim.CostModel, capacity int64) *devPair {
	return &devPair{
		t: t, dev: NewDevice(m, capacity), ref: newRefDevice(m, capacity),
		got: make([]byte, capacity), want: make([]byte, capacity),
	}
}

func (p *devPair) sameTime(op string, got, want time.Duration) {
	p.t.Helper()
	if got != want {
		p.t.Fatalf("%s: completion %v, reference %v", op, got, want)
	}
}

func (p *devPair) write(at time.Duration, offset int64, data []byte) time.Duration {
	p.t.Helper()
	done := p.dev.SubmitWrite(at, offset, data)
	p.sameTime("SubmitWrite", done, p.ref.submitWrite(at, offset, data))
	return done
}

func (p *devPair) writeV(at time.Duration, segs []Extent) time.Duration {
	p.t.Helper()
	total := 0
	for _, s := range segs {
		total += len(s.Data)
	}
	// The reference copies adopted blocks before the device takes them
	// and puts spares in their place.
	want := p.ref.submitWriteV(at, segs, total)
	done := p.dev.submitWriteV(at, segs, total)
	p.sameTime("submitWriteV", done, want)
	p.bag.collect(segs)
	return done
}

func (p *devPair) read(at time.Duration, offset int64, n int) time.Duration {
	p.t.Helper()
	got, want := make([]byte, n), make([]byte, n)
	done := p.dev.SubmitRead(at, offset, got)
	p.sameTime("SubmitRead", done, p.ref.submitRead(at, offset, want))
	if !bytes.Equal(got, want) {
		p.t.Fatalf("SubmitRead(%d, %d) differs from reference", offset, n)
	}
	return done
}

func (p *devPair) straggler(from, to time.Duration, factor int) {
	p.dev.SetStraggler(from, to, factor)
	p.ref.setStraggler(from, to, factor)
}

// cut cuts both models with equally seeded generators and compares
// the whole post-cut images.
func (p *devPair) cut(at time.Duration, seed uint64) {
	p.t.Helper()
	p.dev.CutPower(at, sim.NewRNG(seed))
	p.ref.cutPower(at, sim.NewRNG(seed))
	p.check(fmt.Sprintf("after CutPower(%v, seed %d)", at, seed))
	checkNoBlockLeak(p.t, &p.bag, p.dev)
}

// check compares everything observable without advancing the models.
func (p *devPair) check(when string) {
	p.t.Helper()
	if got, want := p.dev.Stats(), p.ref.stats; got != want {
		p.t.Fatalf("%s: Stats %+v, reference %+v", when, got, want)
	}
	if got, want := p.dev.GCFloor(), p.ref.gcFloor; got != want {
		p.t.Fatalf("%s: GCFloor %v, reference %v", when, got, want)
	}
	p.dev.PeekAt(0, p.got)
	p.ref.readAt(0, p.want)
	if !bytes.Equal(p.got, p.want) {
		for i := range p.got {
			if p.got[i] != p.want[i] {
				p.t.Fatalf("%s: images differ first at byte %d (block %d, sector %d)", when, i, i/blockSize, i/512)
			}
		}
	}
}

// spareBag is a test caller's stock of buffers for adopted writes: it
// hands out the spares the devices gave back and brings a new buffer
// only when it has none, as objstore.Object does.
type spareBag struct {
	spares  []*Block
	brought int
	// audited is every buffer the last blockAudit accounted for.
	audited map[*Block]string
}

func (b *spareBag) get() *Block {
	if n := len(b.spares); n > 0 {
		s := b.spares[n-1]
		b.spares = b.spares[:n-1]
		return s
	}
	b.brought++
	return new(Block)
}

// adopt returns an extent whose block the device adopts, filled with
// data.
func (b *spareBag) adopt(offset int64, data []byte) Extent {
	blk := b.get()
	copy(blk[:], data)
	return Extent{Offset: offset, Data: blk[:], Block: blk}
}

// collect takes back the spares a write left in its extents.
func (b *spareBag) collect(extents []Extent) {
	for _, e := range extents {
		if e.Block != nil {
			b.spares = append(b.spares, e.Block)
		}
	}
}

// blockAudit accounts for every block buffer the devices made and the
// caller brought: each must be in exactly one place — a device's
// table, free list or undo list, or the caller's spares — and none may
// be missing. A device makes buffers a whole slab at a time and never
// drops one, so what is accounted for, less what the caller brought,
// is whole slabs, and every buffer the bag's last audit saw is still
// there. bag may be nil for a caller that never adopts.
func blockAudit(bag *spareBag, devs ...*Device) error {
	if bag == nil {
		bag = &spareBag{}
	}
	seen := make(map[*Block]string)
	var dup error
	note := func(b *Block, where string) {
		if b == nil {
			return
		}
		if prev, held := seen[b]; held && dup == nil {
			dup = fmt.Errorf("block buffer held twice: %s and %s", prev, where)
		}
		seen[b] = where
	}
	for i, d := range devs {
		d.mu.Lock()
		for _, b := range d.blocks {
			note(b, fmt.Sprintf("device %d table", i))
		}
		for _, b := range d.free {
			note(b, fmt.Sprintf("device %d free list", i))
		}
		parked := 0
		for _, w := range d.inflight {
			parked += w.nblk
		}
		if parked != len(d.undo) {
			d.mu.Unlock()
			return fmt.Errorf("device %d: in-flight records own %d undo entries, undo holds %d", i, parked, len(d.undo))
		}
		for _, b := range d.undo {
			note(b, fmt.Sprintf("device %d undo", i))
		}
		d.mu.Unlock()
	}
	for _, b := range bag.spares {
		note(b, "caller's spares")
	}
	if dup != nil {
		return dup
	}
	if (len(seen)-bag.brought)%slabBlocks != 0 {
		return fmt.Errorf("%d block buffers accounted for and %d brought: not whole slabs of %d", len(seen), bag.brought, slabBlocks)
	}
	for b, where := range bag.audited {
		if _, held := seen[b]; !held {
			return fmt.Errorf("block buffer last seen in %s is gone", where)
		}
	}
	bag.audited = seen
	return nil
}

// heldBlocks counts the buffers d holds in its table, free list and
// undo list: every one it made, once blockAudit passes.
func heldBlocks(d *Device) int {
	n := len(d.free)
	for _, list := range [][]*Block{d.blocks, d.undo} {
		for _, b := range list {
			if b != nil {
				n++
			}
		}
	}
	return n
}

func checkNoBlockLeak(t *testing.T, bag *spareBag, devs ...*Device) {
	t.Helper()
	if err := blockAudit(bag, devs...); err != nil {
		t.Fatal(err)
	}
}

// TestDifferentialRandomStream drives Device and the reference with
// one seeded stream mixing every shape of IO the stack issues and some
// it does not: aligned blocks, lone sectors, unaligned runs, writes
// longer than a stripe, vectored commands that mix adopted blocks with
// copied bytes, repeated hits on a few hot
// blocks while earlier writes to them are still in flight, reads of
// written and never-written ranges, straggler windows, bursts that
// push the in-flight list past the GC threshold, and power cuts at
// random instants — now, mid-flight, and before the reclaim floor.
func TestDifferentialRandomStream(t *testing.T) {
	const capacity = 1 << 20
	m := costs()
	for seed := uint64(1); seed <= 6; seed++ {
		t.Run(fmt.Sprint("seed=", seed), func(t *testing.T) {
			rng := sim.NewRNG(seed)
			p := newDevPair(t, m, capacity)
			payload := newPayloads(rng).get
			// offsetFor picks where an n-byte write lands: half the
			// time on one of 8 hot blocks, so in-flight writes overlap.
			offsetFor := func(n int, align int64) int64 {
				var off int64
				if rng.Intn(2) == 0 {
					off = int64(rng.Intn(8))*blockSize + int64(rng.Intn(blockSize))
				} else {
					off = int64(rng.Intn(capacity))
				}
				off -= off % align
				return min(off, int64(capacity-n))
			}
			var now time.Duration
			cuts := 0
			for step := 0; step < 3000; step++ {
				// Mostly the clock creeps, so writes pile up in
				// flight; sometimes it jumps past everything queued.
				if rng.Intn(10) == 0 {
					now += time.Duration(rng.Intn(2000)) * time.Microsecond
				} else {
					now += time.Duration(rng.Intn(3000)) * time.Nanosecond
				}
				switch k := rng.Intn(100); {
				case k < 30:
					p.write(now, offsetFor(blockSize, blockSize), payload(blockSize))
				case k < 45:
					p.write(now, offsetFor(512, 512), payload(512))
				case k < 60:
					n := 1 + rng.Intn(3*blockSize)
					p.write(now, offsetFor(n, 1), payload(n))
				case k < 65:
					n := m.StripeSize + 1 + rng.Intn(m.StripeSize)
					p.write(now, offsetFor(n, 1), payload(n))
				case k < 80:
					segs := make([]Extent, 1+rng.Intn(16))
					for i := range segs {
						switch rng.Intn(4) {
						case 0:
							n := 1 + rng.Intn(2*blockSize)
							segs[i] = Extent{Offset: offsetFor(n, 512), Data: payload(n)}
						case 1:
							segs[i] = Extent{Offset: offsetFor(blockSize, 512), Data: payload(blockSize)}
						default:
							segs[i] = p.bag.adopt(offsetFor(blockSize, blockSize), payload(blockSize))
						}
					}
					p.writeV(now, segs)
				case k < 90:
					n := 1 + rng.Intn(2*blockSize)
					p.read(now, offsetFor(n, 1), n)
				case k < 93:
					from := now + time.Duration(rng.Intn(200))*time.Microsecond
					p.straggler(from, from+time.Duration(rng.Intn(500))*time.Microsecond, rng.Intn(10))
				case k < 96:
					// Cut relative to now: in the past (possibly behind
					// the reclaim floor), at now, or while the queue
					// is still draining.
					at := now + time.Duration(rng.Intn(400)-200)*time.Microsecond
					p.cut(max(at, 0), rng.Uint64())
					cuts++
				default:
					p.check(fmt.Sprint("step ", step))
				}
			}
			if cuts == 0 || p.dev.GCFloor() == 0 {
				t.Fatalf("stream too tame: %d cuts, GC floor %v", cuts, p.dev.GCFloor())
			}
			p.cut(now, seed)
		})
	}
}

// TestDifferentialArray runs the same comparison one level up: an
// Array over two Devices against two reference devices fed by a
// test-side copy of the stripe arithmetic, so WriteV's scatter plan,
// the >64 KiB stripe-crossing split, adopted blocks and the spares
// handed back for them, and the array-wide clamped cut are all held to
// the reference images.
func TestDifferentialArray(t *testing.T) {
	const capacityEach = 1 << 20
	m := costs()
	stripe := int64(m.StripeSize)
	for seed := uint64(1); seed <= 3; seed++ {
		rng := sim.NewRNG(seed)
		payload := newPayloads(rng).get
		arr := NewArray(m, 2, capacityEach)
		refs := []*refDevice{newRefDevice(m, capacityEach), newRefDevice(m, capacityEach)}
		var bag spareBag
		refWriteV := func(at time.Duration, extents []Extent) time.Duration {
			segs, sizes := make([][]Extent, len(refs)), make([]int, len(refs))
			for _, e := range extents {
				data := e.Data
				if e.Block != nil {
					data = e.Block[:]
				}
				for off := e.Offset; len(data) > 0; {
					idx, within := off/stripe, off%stripe
					take := int(min(stripe-within, int64(len(data))))
					dev := idx % int64(len(refs))
					segs[dev] = append(segs[dev], Extent{Offset: idx/int64(len(refs))*stripe + within, Data: data[:take]})
					sizes[dev] += take
					off, data = off+int64(take), data[take:]
				}
			}
			done := time.Duration(0)
			for i, r := range refs {
				if sizes[i] > 0 {
					done = max(done, r.submitWriteV(at, segs[i], sizes[i]))
				}
			}
			return done
		}
		got, want := make([]byte, capacityEach), make([]byte, capacityEach)
		compare := func(when string) {
			t.Helper()
			for i, r := range refs {
				arr.devices[i].PeekAt(0, got)
				r.readAt(0, want)
				if !bytes.Equal(got, want) {
					t.Fatalf("seed %d %s: device %d image differs from reference", seed, when, i)
				}
				if got, want := arr.devices[i].Stats(), r.stats; got != want {
					t.Fatalf("seed %d %s: device %d Stats %+v, reference %+v", seed, when, i, got, want)
				}
			}
			checkNoBlockLeak(t, &bag, arr.devices...)
		}
		var now time.Duration
		for step := 0; step < 1000; step++ {
			now += time.Duration(rng.Intn(4000)) * time.Nanosecond
			extents := make([]Extent, 1+rng.Intn(16))
			for i := range extents {
				n := blockSize
				switch rng.Intn(8) {
				case 0:
					n = 512
				case 1:
					n = int(stripe) + rng.Intn(2*int(stripe)) // crosses to the other device
				case 2, 3, 4:
					off := int64(rng.Intn(2*capacityEach/blockSize)) * blockSize
					extents[i] = Extent{Offset: off, Block: bag.adopt(off, payload(blockSize)).Block}
					continue
				}
				off := int64(rng.Intn(2*capacityEach - n))
				off -= off % 512
				extents[i] = Extent{Offset: off, Data: payload(n)}
			}
			// The reference goes first: WriteV replaces adopted blocks
			// with spares.
			want := refWriteV(now, extents)
			if got := arr.WriteV(now, extents); got != want {
				t.Fatalf("seed %d step %d: WriteV completes %v, reference %v", seed, step, got, want)
			}
			bag.collect(extents)
			if rng.Intn(100) == 0 {
				// Array.CutPower: one instant for every device, clamped
				// to the highest reclaim floor, one rng across devices.
				at := now - time.Duration(rng.Intn(300))*time.Microsecond
				cutSeed := rng.Uint64()
				arr.CutPower(at, sim.NewRNG(cutSeed))
				for _, r := range refs {
					at = max(at, r.gcFloor)
				}
				refRNG := sim.NewRNG(cutSeed)
				for _, r := range refs {
					r.cutPower(at, refRNG)
				}
				compare(fmt.Sprint("after cut at step ", step))
			}
		}
		compare("at end")
	}
}

// TestOverlappingInflightWritesRollBackInOrder spells out the case
// pointer-swap undo has to get right: three writes to one block all in
// flight at the cut, so a rolled-back sector must fall through the
// newer undo images to the oldest surviving contents.
func TestOverlappingInflightWritesRollBackInOrder(t *testing.T) {
	m := costs()
	for seed := uint64(0); seed < 32; seed++ {
		p := newDevPair(t, m, 1<<16)
		durable := p.write(0, 0, bytes.Repeat([]byte{1}, blockSize))
		at := durable + time.Microsecond
		p.write(at, 0, bytes.Repeat([]byte{2}, blockSize))        // whole block
		p.write(at+1, 1024, bytes.Repeat([]byte{3}, 1024))        // two sectors inside it
		p.write(at+2, 3*1024, bytes.Repeat([]byte{4}, blockSize)) // its tail and the next, never-written block
		p.write(at+3, 100, bytes.Repeat([]byte{5}, 1000))         // unaligned: segment sectors straddle disk sectors
		p.cut(at+4, seed)
	}
}

// TestBlockLeakAfterLongRunAndFinalGC runs enough spaced-out traffic
// that the in-flight list is reclaimed many times over, forces a last
// reclaim, and checks the undo list is empty and no buffer went
// missing — and that steady overwriting stopped allocating.
func TestBlockLeakAfterLongRunAndFinalGC(t *testing.T) {
	m := costs()
	d := NewDevice(m, 1<<20)
	rng := sim.NewRNG(9)
	buf := make([]byte, blockSize)
	var bag spareBag
	var now time.Duration
	for i := 0; i < 5000; i++ {
		now += time.Duration(rng.Intn(60)) * time.Microsecond // mean spacing above the 17 us service time: no standing backlog
		n := blockSize
		if i%7 == 0 {
			n = 512
		}
		d.SubmitWrite(now, int64(rng.Intn(32))*blockSize, buf[:n])
		if i%500 == 0 {
			checkNoBlockLeak(t, &bag, d)
		}
	}
	d.mu.Lock()
	for len(d.inflight) < 64 { // below the threshold GC is a no-op
		d.writeLocked(now, now, 0, buf, nil)
	}
	d.gcInflightLocked(now + time.Hour)
	inflight, undo, made := len(d.inflight), len(d.undo), heldBlocks(d)
	d.mu.Unlock()
	if inflight != 0 || undo != 0 {
		t.Fatalf("final GC left %d records, %d undo entries", inflight, undo)
	}
	checkNoBlockLeak(t, &bag, d)
	// 32 live blocks plus at most a GC threshold's worth in flight.
	if limit := (32 + 64 + 2*slabBlocks); made > limit {
		t.Fatalf("%d block buffers made for a 32-block working set, want <= %d", made, limit)
	}
}

// TestUnwrittenRangesReadZeroWithoutMaterialising pins the sparse
// contract: reads and peeks of never-written ranges return zeroes
// (over whatever the caller's buffer held) and allocate no blocks.
func TestUnwrittenRangesReadZeroWithoutMaterialising(t *testing.T) {
	d := NewDevice(costs(), 2<<30)
	d.SubmitWrite(0, 5*blockSize+100, []byte("x"))
	made := heldBlocks(d)
	if made != slabBlocks {
		t.Fatalf("one write materialised %d block buffers, want one slab of %d", made, slabBlocks)
	}
	dirty := func(n int) []byte { return bytes.Repeat([]byte{0xEE}, n) }
	zero := func(b []byte) bool { return bytes.Equal(b, make([]byte, len(b))) }

	far := dirty(3*blockSize + 17)
	d.SubmitRead(0, 1<<30+123, far)
	if !zero(far) {
		t.Fatal("SubmitRead of a never-written range returned non-zero bytes")
	}
	peek := dirty(blockSize)
	d.PeekAt(2<<30-blockSize, peek)
	if !zero(peek) {
		t.Fatal("PeekAt of a never-written range returned non-zero bytes")
	}
	// A read straddling the written byte sees it and zeroes around it.
	near := dirty(2 * blockSize)
	d.SubmitRead(0, 4*blockSize+100, near)
	if near[blockSize] != 'x' || !zero(near[:blockSize]) || !zero(near[blockSize+1:]) {
		t.Fatal("read around a one-byte write is not zeroes plus that byte")
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if live := heldBlocks(d) - len(d.free); live != 1 || heldBlocks(d) != made {
		t.Fatalf("reads materialised blocks: %d live (want 1), %d made (want %d)", live, heldBlocks(d), made)
	}
}

// TestBlockAuditBites hands the audit the state a device would leave
// if it gave back the adopted buffer itself as the spare: that buffer
// is then both in the table and the caller's, and the free buffer it
// should have lent is gone. The audit must pass the honest hand-back
// and refuse the other.
func TestBlockAuditBites(t *testing.T) {
	d := NewDevice(costs(), 1<<20)
	var bag spareBag
	seg := []Extent{bag.adopt(blockSize, bytes.Repeat([]byte{7}, blockSize))}
	adopted := seg[0].Block
	d.submitWriteV(0, seg, blockSize)
	if seg[0].Block == adopted {
		t.Fatal("the device handed back the buffer it adopted")
	}
	bag.collect(seg)
	checkNoBlockLeak(t, &bag, d)
	bag.spares[0] = adopted
	if err := blockAudit(&bag, d); err == nil {
		t.Fatal("audit passed a spare that is still in the table")
	}
}
