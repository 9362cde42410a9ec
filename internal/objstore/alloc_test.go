package objstore

import (
	"fmt"
	"testing"
	"time"

	"memsnap/internal/sim"
)

// allocSequenceDigest is the FNV-1a digest of every data-block
// address the workload in TestAllocationSequencePinned was handed,
// taken when the object ring became a log of delta records in a
// stripe unit at the top of the array (no ring block among the data,
// and no leaf allocated until the log is full). Freed-block reuse
// order decides disk
// layout, and with it bytes written per operation and every
// virtual-time number, so a change that moves this digest is a model
// change, not a speed-up.
const allocSequenceDigest = "a31ab0fefa60bb15"

// TestAllocationSequencePinned runs 1000 random commits against two
// objects of one store — some submitted after the previous commit is
// durable, some before, so blocks sit in quarantine across commits,
// and with a third object created midway — and digests the address of
// every data block in the order they were assigned. Tree nodes share
// the allocator, so where they go moves the data blocks after them.
func TestAllocationSequencePinned(t *testing.T) {
	s, _ := newStore(t)
	rng := sim.NewRNG(15)
	objs := make([]*Object, 0, 3)
	var at, durable time.Duration
	create := func(name string, blocks int64) {
		o, done, err := s.CreateObject(at, name, blocks*BlockSize)
		if err != nil {
			t.Fatal(err)
		}
		objs, durable = append(objs, o), done
	}
	create("a", 16384)
	create("b", 300)

	h := uint64(14695981039346656037)
	mix := func(addr int64) {
		for i := 0; i < 8; i++ {
			h = (h ^ uint64(byte(addr>>(8*i)))) * 1099511628211
		}
	}
	data := block(0xC3)
	for c := 0; c < 1000; c++ {
		if c == 500 {
			at = durable // commit 499's freed blocks mature: the new ring and directory reuse them
			create("c", 4096)
		}
		o := objs[rng.Intn(len(objs))]
		writes := make([]BlockWrite, 1+rng.Intn(32))
		for i := range writes {
			writes[i] = BlockWrite{Index: rng.Int63n(o.MaxBlocks()), Data: data[:BlockSize-rng.Intn(2)]}
		}
		// Two commits in three wait for the last one; the rest are
		// issued while its freed blocks are still quarantined.
		if rng.Intn(3) > 0 {
			at = durable
		} else {
			at += time.Microsecond
		}
		_, done, err := o.Commit(at, writes)
		if err != nil {
			t.Fatal(err)
		}
		durable = max(durable, done)
		for _, w := range writes {
			mix(o.tree.lookup(w.Index))
		}
	}
	if got := fmt.Sprintf("%016x", h); got != allocSequenceDigest {
		t.Fatalf("allocation sequence digest %s, pinned %s: block reuse order changed", got, allocSequenceDigest)
	}
}
