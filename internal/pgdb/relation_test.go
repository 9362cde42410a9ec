package pgdb

import (
	"bytes"
	"testing"
	"testing/quick"
)

func freshHeapPage() []byte {
	p := make([]byte, HeapPageSize)
	heapInit(p)
	return p
}

func TestHeapInsertTuple(t *testing.T) {
	p := freshHeapPage()
	slot := heapInsert(p, 7, []byte("payload-one"))
	if slot != 0 {
		t.Fatalf("first slot = %d", slot)
	}
	xmin, xmax, payload := heapTuple(p, slot)
	if xmin != 7 || xmax != 0 || string(payload) != "payload-one" {
		t.Fatalf("tuple = %d/%d/%q", xmin, xmax, payload)
	}
	slot2 := heapInsert(p, 8, []byte("payload-two"))
	if slot2 != 1 {
		t.Fatalf("second slot = %d", slot2)
	}
	// First tuple untouched.
	if _, _, pl := heapTuple(p, 0); string(pl) != "payload-one" {
		t.Fatal("first tuple disturbed")
	}
}

func TestHeapSetXmax(t *testing.T) {
	p := freshHeapPage()
	slot := heapInsert(p, 3, []byte("v"))
	heapSetXmax(p, slot, 44)
	_, xmax, _ := heapTuple(p, slot)
	if xmax != 44 {
		t.Fatalf("xmax = %d", xmax)
	}
}

func TestHeapFreeSpaceAccounting(t *testing.T) {
	p := freshHeapPage()
	start := heapFree(p)
	if start <= 0 || start >= HeapPageSize {
		t.Fatalf("initial free = %d", start)
	}
	payload := bytes.Repeat([]byte{1}, 100)
	heapInsert(p, 1, payload)
	if got := heapFree(p); got != start-(tupleHdr+100+2) {
		t.Fatalf("free after insert = %d, want %d", got, start-(tupleHdr+100+2))
	}
}

func TestHeapFits(t *testing.T) {
	p := freshHeapPage()
	big := bytes.Repeat([]byte{1}, maxTuple)
	if !heapFits(p, big) {
		t.Fatal("max tuple should fit an empty page")
	}
	heapInsert(p, 1, big)
	if heapFits(p, []byte("x")) {
		t.Fatal("full page claims to fit more")
	}
}

func TestHeapTupleOutOfRangePanics(t *testing.T) {
	p := freshHeapPage()
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for bad slot")
		}
	}()
	heapTuple(p, 5)
}

func TestHeapFillDrainProperty(t *testing.T) {
	f := func(sizes []uint8) bool {
		p := freshHeapPage()
		type rec struct {
			slot    uint16
			payload []byte
		}
		var recs []rec
		for i, sz := range sizes {
			payload := bytes.Repeat([]byte{byte(i)}, int(sz)+1)
			if !heapFits(p, payload) {
				break
			}
			slot := heapInsert(p, uint32(i+1), payload)
			recs = append(recs, rec{slot, payload})
		}
		for i, r := range recs {
			xmin, _, payload := heapTuple(p, r.slot)
			if xmin != uint32(i+1) || !bytes.Equal(payload, r.payload) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Nil reports an unset TID.
func (t TID) Nil() bool { return t.Page == 0 && t.Slot == 0 }

func TestTIDNil(t *testing.T) {
	if !(TID{}).Nil() {
		t.Fatal("zero TID not nil")
	}
	if (TID{Page: 1}).Nil() {
		t.Fatal("non-zero TID nil")
	}
}
