package pgdb

import (
	"bytes"
	"sync"
	"testing"

	"memsnap/internal/core"
	"memsnap/internal/disk"
	"memsnap/internal/fs"
	"memsnap/internal/sim"
	"memsnap/internal/workload"
)

func newCluster(t *testing.T, v Variant) *Cluster {
	t.Helper()
	costs := sim.DefaultCosts()
	cfg := Config{Variant: v, Costs: costs, RegionBytes: 64 << 20}
	if v == VarMemSnap {
		sys, err := core.NewSystem(core.Options{DiskBytesEach: 1 << 30})
		if err != nil {
			t.Fatal(err)
		}
		cfg.Sys = sys
	} else {
		cfg.Fsys = fs.New(costs, disk.NewArray(costs, 2, 2<<30), fs.FFS)
	}
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func eachVariant(t *testing.T, fn func(t *testing.T, c *Cluster)) {
	for _, v := range []Variant{VarFFS, VarMmap, VarMmapBufDirect, VarMemSnap} {
		t.Run(v.String(), func(t *testing.T) { fn(t, newCluster(t, v)) })
	}
}

// WarehouseYTD sums warehouse year-to-date balances (consistency
// checks in tests).
func (d *TPCC) WarehouseYTD(b *Backend) int64 {
	b.Begin()
	defer b.Commit()
	var sum int64
	for w := int64(0); w < d.warehouses; w++ {
		if _, ytd, _, _, err := d.fetchRow(b, relWarehouse, w); err == nil {
			sum += ytd
		}
	}
	return sum
}

func TestInsertFetch(t *testing.T) {
	eachVariant(t, func(t *testing.T, c *Cluster) {
		b, err := c.NewBackend(0)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.CreateRelation(b.Clock(), "t"); err != nil {
			t.Fatal(err)
		}
		b.Begin()
		tid, err := b.Insert("t", []byte("tuple-one"))
		if err != nil {
			t.Fatal(err)
		}
		// Visible to the inserting transaction before commit.
		v, ok := b.Fetch("t", tid)
		if !ok || string(v) != "tuple-one" {
			t.Fatalf("own insert invisible: %q ok=%v", v, ok)
		}
		b.Commit()
		b.Begin()
		v, ok = b.Fetch("t", tid)
		b.Commit()
		if !ok || string(v) != "tuple-one" {
			t.Fatalf("committed tuple: %q ok=%v", v, ok)
		}
	})
}

func TestMVCCIsolation(t *testing.T) {
	eachVariant(t, func(t *testing.T, c *Cluster) {
		b1, _ := c.NewBackend(0)
		b2, _ := c.NewBackend(1)
		c.CreateRelation(b1.Clock(), "t")

		b1.Begin()
		tid, _ := b1.Insert("t", []byte("uncommitted"))

		// Another backend must not see the uncommitted tuple.
		b2.Begin()
		if _, ok := b2.Fetch("t", tid); ok {
			t.Fatal("dirty read")
		}
		b2.Commit()

		b1.Commit()
		b2.Begin()
		if _, ok := b2.Fetch("t", tid); !ok {
			t.Fatal("committed tuple invisible")
		}
		b2.Commit()
	})
}

func TestMVCCUpdateVersions(t *testing.T) {
	eachVariant(t, func(t *testing.T, c *Cluster) {
		b, _ := c.NewBackend(0)
		c.CreateRelation(b.Clock(), "t")
		b.Begin()
		tid1, _ := b.Insert("t", []byte("v1"))
		b.Commit()

		b.Begin()
		tid2, err := b.Update("t", tid1, []byte("v2"))
		if err != nil {
			t.Fatal(err)
		}
		b.Commit()

		b.Begin()
		if _, ok := b.Fetch("t", tid1); ok {
			t.Fatal("superseded version still visible")
		}
		v, ok := b.Fetch("t", tid2)
		if !ok || string(v) != "v2" {
			t.Fatalf("new version: %q ok=%v", v, ok)
		}
		b.Commit()
	})
}

func TestAbortInvisible(t *testing.T) {
	eachVariant(t, func(t *testing.T, c *Cluster) {
		b, _ := c.NewBackend(0)
		c.CreateRelation(b.Clock(), "t")
		b.Begin()
		tid, _ := b.Insert("t", []byte("aborted"))
		b.Abort()
		b.Begin()
		if _, ok := b.Fetch("t", tid); ok {
			t.Fatal("aborted tuple visible")
		}
		b.Commit()
	})
}

func TestHeapExtension(t *testing.T) {
	eachVariant(t, func(t *testing.T, c *Cluster) {
		b, _ := c.NewBackend(0)
		c.CreateRelation(b.Clock(), "t")
		b.Begin()
		payload := bytes.Repeat([]byte{0xAA}, 500)
		var tids []TID
		for i := 0; i < 100; i++ {
			tid, err := b.Insert("t", payload)
			if err != nil {
				t.Fatal(err)
			}
			tids = append(tids, tid)
		}
		b.Commit()
		if c.relations["t"].pages < 2 {
			t.Fatalf("heap did not extend: %d pages", c.relations["t"].pages)
		}
		b.Begin()
		for i, tid := range tids {
			if v, ok := b.Fetch("t", tid); !ok || !bytes.Equal(v, payload) {
				t.Fatalf("tuple %d lost across pages", i)
			}
		}
		b.Commit()
	})
}

func TestCheckpointTriggers(t *testing.T) {
	costs := sim.DefaultCosts()
	fsys := fs.New(costs, disk.NewArray(costs, 2, 2<<30), fs.FFS)
	c, _ := NewCluster(Config{Variant: VarFFS, Costs: costs, Fsys: fsys, CheckpointWAL: 64 << 10})
	b, _ := c.NewBackend(0)
	c.CreateRelation(b.Clock(), "t")
	payload := bytes.Repeat([]byte{1}, 200)
	for i := 0; i < 600 && c.Checkpoints == 0; i++ {
		b.Begin()
		b.Insert("t", payload)
		b.Commit()
	}
	if c.Checkpoints == 0 {
		t.Fatal("checkpoint never ran")
	}
}

func TestMemSnapCommitPersistsOwnDirtySet(t *testing.T) {
	c := newCluster(t, VarMemSnap)
	b1, _ := c.NewBackend(0)
	b2, _ := c.NewBackend(1)
	c.CreateRelation(b1.Clock(), "t")

	b1.Begin()
	b2.Begin()
	tid1, _ := b1.Insert("t", []byte("from-b1"))
	tid2, _ := b2.Insert("t", []byte("from-b2"))
	b1.Commit()
	// b2 has not committed; b1's uCheckpoint may carry b2's appended
	// version (MVCC makes that safe) but b2's data must become
	// visible only after its own commit.
	b2.Commit()

	b3, _ := c.NewBackend(2)
	b3.Begin()
	if v, ok := b3.Fetch("t", tid1); !ok || string(v) != "from-b1" {
		t.Fatalf("b1 tuple: %q ok=%v", v, ok)
	}
	if v, ok := b3.Fetch("t", tid2); !ok || string(v) != "from-b2" {
		t.Fatalf("b2 tuple: %q ok=%v", v, ok)
	}
	b3.Commit()
}

func TestTPCCAllVariants(t *testing.T) {
	eachVariant(t, func(t *testing.T, c *Cluster) {
		loader, _ := c.NewBackend(0)
		d, err := NewTPCCWithItems(c, loader, 2, 2000)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := c.NewBackend(1)
		gen := workload.NewTPCC(7, 2)
		var payments int64
		for i := 0; i < 200; i++ {
			tx := gen.Next()
			if err := d.Run(b, tx); err != nil {
				t.Fatalf("tx %d (%v): %v", i, tx.Op, err)
			}
			if tx.Op == workload.TPCCPayment {
				payments += tx.Amount
			}
		}
		check, _ := c.NewBackend(2)
		if got := d.WarehouseYTD(check); got != payments {
			t.Fatalf("warehouse YTD %d != payments %d", got, payments)
		}
	})
}

func TestTPCCConcurrentBackends(t *testing.T) {
	c := newCluster(t, VarMemSnap)
	loader, _ := c.NewBackend(0)
	d, err := NewTPCCWithItems(c, loader, 4, 2000)
	if err != nil {
		t.Fatal(err)
	}
	const threads = 4
	var wg sync.WaitGroup
	var mu sync.Mutex
	var payments int64
	errs := make(chan error, threads)
	for th := 0; th < threads; th++ {
		wg.Add(1)
		go func(th int) {
			defer wg.Done()
			b, err := c.NewBackend(th + 1)
			if err != nil {
				errs <- err
				return
			}
			gen := workload.NewTPCC(uint64(th)+100, 4)
			for i := 0; i < 100; i++ {
				tx := gen.Next()
				if err := d.Run(b, tx); err != nil {
					errs <- err
					return
				}
				if tx.Op == workload.TPCCPayment {
					mu.Lock()
					payments += tx.Amount
					mu.Unlock()
				}
			}
		}(th)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	check, _ := c.NewBackend(9)
	if got := d.WarehouseYTD(check); got != payments {
		t.Fatalf("warehouse YTD %d != payments %d under concurrency", got, payments)
	}
}

func TestVariantCommitCosts(t *testing.T) {
	// Figure 6's ordering on the write path: bufdirect commits carry
	// full page images every time, so its WAL grows fastest.
	walBytes := func(v Variant) int64 {
		c := newCluster(t, v)
		b, _ := c.NewBackend(0)
		c.CreateRelation(b.Clock(), "t")
		var tid TID
		b.Begin()
		tid, _ = b.Insert("t", bytes.Repeat([]byte{1}, 100))
		b.Commit()
		for i := 0; i < 20; i++ {
			b.Begin()
			tid, _ = b.Update("t", tid, bytes.Repeat([]byte{byte(i)}, 100))
			b.Commit()
		}
		return c.log.Size()
	}
	ffs := walBytes(VarFFS)
	bd := walBytes(VarMmapBufDirect)
	if bd <= ffs {
		t.Fatalf("bufdirect WAL %d not larger than baseline %d", bd, ffs)
	}
}

func TestTupleTooLarge(t *testing.T) {
	c := newCluster(t, VarFFS)
	b, _ := c.NewBackend(0)
	c.CreateRelation(b.Clock(), "t")
	b.Begin()
	if _, err := b.Insert("t", make([]byte, HeapPageSize)); err == nil {
		t.Fatal("oversized tuple accepted")
	}
	b.Commit()
}
