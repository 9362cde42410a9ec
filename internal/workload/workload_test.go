package workload

import (
	"bytes"
	"testing"
)

func TestDBBenchSequentialKeys(t *testing.T) {
	d := NewDBBench(1, 1000, 128, 4096, false)
	tx := d.NextTx()
	if len(tx) != d.PairsPerTx() {
		t.Fatalf("tx size = %d", len(tx))
	}
	if string(tx[0].Key) != "0000000000000000" {
		t.Fatalf("first key = %q", tx[0].Key)
	}
	if string(tx[1].Key) != "0000000000000001" {
		t.Fatalf("second key = %q", tx[1].Key)
	}
	for _, kv := range tx {
		if len(kv.Value) != 128 {
			t.Fatalf("value size = %d", len(kv.Value))
		}
	}
}

func TestDBBenchRandomDeterministic(t *testing.T) {
	a := NewDBBench(7, 1000, 128, 4096, true)
	b := NewDBBench(7, 1000, 128, 4096, true)
	ta, tb := a.NextTx(), b.NextTx()
	for i := range ta {
		if !bytes.Equal(ta[i].Key, tb[i].Key) {
			t.Fatal("same seed diverged")
		}
	}
}

func TestDBBenchTxBytes(t *testing.T) {
	// A 64 KiB transaction with 128 B values holds ~455 pairs.
	d := NewDBBench(1, 1<<20, 128, 64<<10, false)
	if got := d.PairsPerTx(); got < 400 || got > 512 {
		t.Fatalf("pairs per 64 KiB tx = %d", got)
	}
	// Tiny transactions still carry at least one pair.
	d2 := NewDBBench(1, 100, 128, 1, false)
	if d2.PairsPerTx() != 1 {
		t.Fatalf("minimum pairs = %d", d2.PairsPerTx())
	}
}

func TestMixGraphMix(t *testing.T) {
	m := NewMixGraph(3, 100000)
	counts := map[MixGraphOp]int{}
	const n = 100000
	for i := 0; i < n; i++ {
		req := m.Next()
		counts[req.Op]++
		if len(req.Key) != 48 {
			t.Fatalf("key size = %d", len(req.Key))
		}
		switch req.Op {
		case OpPut:
			if len(req.Value) != 100 {
				t.Fatalf("value size = %d", len(req.Value))
			}
		case OpSeek:
			if req.ScanLen <= 0 {
				t.Fatal("seek without scan length")
			}
		}
	}
	getFrac := float64(counts[OpGet]) / n
	putFrac := float64(counts[OpPut]) / n
	seekFrac := float64(counts[OpSeek]) / n
	if getFrac < 0.80 || getFrac > 0.86 {
		t.Fatalf("get fraction = %.3f", getFrac)
	}
	if putFrac < 0.11 || putFrac > 0.17 {
		t.Fatalf("put fraction = %.3f", putFrac)
	}
	if seekFrac < 0.01 || seekFrac > 0.05 {
		t.Fatalf("seek fraction = %.3f", seekFrac)
	}
}

func TestMixGraphWriteSkew(t *testing.T) {
	// Puts follow a Pareto distribution: a small fraction of the key
	// space receives most writes.
	m := NewMixGraph(5, 1<<20)
	writes := map[string]int{}
	for i := 0; i < 200000; i++ {
		if req := m.Next(); req.Op == OpPut {
			writes[string(req.Key)]++
		}
	}
	var hot int
	for _, c := range writes {
		if c > 1 {
			hot++
		}
	}
	if hot == 0 {
		t.Fatal("no hot keys in Pareto-distributed writes")
	}
}

func TestTATPMix(t *testing.T) {
	g := NewTATP(11, 100000)
	counts := map[TATPOp]int{}
	writes := 0
	const n = 100000
	for i := 0; i < n; i++ {
		tx := g.Next()
		counts[tx.Op]++
		if tx.Op >= TATPUpdateSubscriberData {
			writes++
		}
		if tx.Subscriber < 0 || tx.Subscriber >= 100000 {
			t.Fatalf("subscriber out of range: %d", tx.Subscriber)
		}
		if tx.AIType < 1 || tx.AIType > 4 {
			t.Fatalf("ai_type = %d", tx.AIType)
		}
	}
	writeFrac := float64(writes) / n
	if writeFrac < 0.18 || writeFrac > 0.22 {
		t.Fatalf("write fraction = %.3f, want ~0.20", writeFrac)
	}
	if frac := float64(counts[TATPGetSubscriberData]) / n; frac < 0.32 || frac > 0.38 {
		t.Fatalf("GET_SUBSCRIBER_DATA fraction = %.3f", frac)
	}
}

func TestTPCCMix(t *testing.T) {
	g := NewTPCC(13, 150)
	counts := map[TPCCOp]int{}
	writes := 0
	const n = 100000
	for i := 0; i < n; i++ {
		tx := g.Next()
		counts[tx.Op]++
		if tx.Op == TPCCNewOrder || tx.Op == TPCCPayment || tx.Op == TPCCDelivery {
			writes++
		}
		if tx.Warehouse < 0 || tx.Warehouse >= 150 {
			t.Fatalf("warehouse = %d", tx.Warehouse)
		}
		if tx.Op == TPCCNewOrder {
			if len(tx.Items) < 5 || len(tx.Items) > 15 {
				t.Fatalf("order lines = %d", len(tx.Items))
			}
		}
	}
	// ~92% of transactions write under the sysbench mix; the paper
	// describes TPC-C as a heavily write OLTP benchmark.
	writeFrac := float64(writes) / n
	if writeFrac < 0.88 || writeFrac > 0.96 {
		t.Fatalf("write fraction = %.3f", writeFrac)
	}
	if float64(counts[TPCCNewOrder])/n < 0.40 {
		t.Fatalf("NEW_ORDER fraction = %.3f", float64(counts[TPCCNewOrder])/n)
	}
}

func TestKey16Sortable(t *testing.T) {
	if !(string(Key16(5)) < string(Key16(50))) {
		t.Fatal("Key16 not sortable")
	}
	if len(Key16(123)) != 16 {
		t.Fatal("Key16 length")
	}
}
