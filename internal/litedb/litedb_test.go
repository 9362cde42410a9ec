package litedb

import (
	"bytes"
	"fmt"
	"testing"
	"testing/quick"

	"memsnap/internal/core"
	"memsnap/internal/disk"
	"memsnap/internal/fs"
	"memsnap/internal/sim"
	"memsnap/internal/workload"
)

func newWALDB(t *testing.T) (*DB, *fs.FS, *sim.Clock) {
	t.Helper()
	costs := sim.DefaultCosts()
	fsys := fs.New(costs, disk.NewArray(costs, 2, 1<<30), fs.FFS)
	clk := sim.NewClock()
	return CreateWAL(fsys, clk, "test.db"), fsys, clk
}

func newMemSnapDB(t *testing.T) (*DB, *core.System, *core.Context) {
	t.Helper()
	sys, err := core.NewSystem(core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	proc := sys.NewProcess()
	ctx := proc.NewContext(0)
	db, err := OpenMemSnap(proc, ctx, "test.db", 64<<20)
	if err != nil {
		t.Fatal(err)
	}
	return db, sys, ctx
}

func eachMode(t *testing.T, fn func(t *testing.T, db *DB)) {
	t.Run("wal", func(t *testing.T) {
		db, _, _ := newWALDB(t)
		fn(t, db)
	})
	t.Run("memsnap", func(t *testing.T) {
		db, _, _ := newMemSnapDB(t)
		fn(t, db)
	})
}

func TestPutGetDelete(t *testing.T) {
	eachMode(t, func(t *testing.T, db *DB) {
		tx := db.Begin()
		tx.CreateTable("kv")
		if err := tx.Put("kv", []byte("alpha"), []byte("1")); err != nil {
			t.Fatal(err)
		}
		tx.Put("kv", []byte("beta"), []byte("2"))
		v, ok, _ := tx.Get("kv", []byte("alpha"))
		if !ok || string(v) != "1" {
			t.Fatalf("get alpha = %q ok=%v", v, ok)
		}
		if _, ok, _ := tx.Get("kv", []byte("gamma")); ok {
			t.Fatal("found missing key")
		}
		existed, _ := tx.Delete("kv", []byte("alpha"))
		if !existed {
			t.Fatal("delete missed")
		}
		if _, ok, _ := tx.Get("kv", []byte("alpha")); ok {
			t.Fatal("deleted key still visible")
		}
		tx.Commit()
	})
}

func TestUpdateInPlace(t *testing.T) {
	eachMode(t, func(t *testing.T, db *DB) {
		tx := db.Begin()
		tx.CreateTable("kv")
		tx.Put("kv", []byte("k"), []byte("old"))
		tx.Put("kv", []byte("k"), []byte("new"))
		v, _, _ := tx.Get("kv", []byte("k"))
		if string(v) != "new" {
			t.Fatalf("updated value = %q", v)
		}
		// Different length forces remove+insert.
		tx.Put("kv", []byte("k"), []byte("much longer value"))
		v, _, _ = tx.Get("kv", []byte("k"))
		if string(v) != "much longer value" {
			t.Fatalf("resized value = %q", v)
		}
		tx.Commit()
	})
}

func TestManyKeysForceSplits(t *testing.T) {
	eachMode(t, func(t *testing.T, db *DB) {
		tx := db.Begin()
		tx.CreateTable("kv")
		const n = 5000
		val := bytes.Repeat([]byte{0x61}, 100)
		for i := 0; i < n; i++ {
			if err := tx.Put("kv", workload.Key16(int64(i*7919%n)), val); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < n; i++ {
			v, ok, _ := tx.Get("kv", workload.Key16(int64(i)))
			if !ok || !bytes.Equal(v, val) {
				t.Fatalf("key %d lost after splits", i)
			}
		}
		tx.Commit()
	})
}

func TestScanOrdered(t *testing.T) {
	eachMode(t, func(t *testing.T, db *DB) {
		tx := db.Begin()
		tx.CreateTable("kv")
		for i := 999; i >= 0; i-- {
			tx.Put("kv", workload.Key16(int64(i)), []byte(fmt.Sprint(i)))
		}
		var keys [][]byte
		tx.Scan("kv", workload.Key16(100), workload.Key16(200), func(k, v []byte) bool {
			keys = append(keys, append([]byte(nil), k...))
			return true
		})
		if len(keys) != 100 {
			t.Fatalf("scan returned %d keys", len(keys))
		}
		for i := 1; i < len(keys); i++ {
			if bytes.Compare(keys[i-1], keys[i]) >= 0 {
				t.Fatal("scan out of order")
			}
		}
		tx.Commit()
	})
}

func TestScanAcrossLeaves(t *testing.T) {
	eachMode(t, func(t *testing.T, db *DB) {
		tx := db.Begin()
		tx.CreateTable("kv")
		const n = 3000
		for i := 0; i < n; i++ {
			tx.Put("kv", workload.Key16(int64(i)), bytes.Repeat([]byte{1}, 64))
		}
		count := 0
		tx.Scan("kv", nil, nil, func(k, v []byte) bool { count++; return true })
		if count != n {
			t.Fatalf("full scan saw %d/%d keys", count, n)
		}
		tx.Commit()
	})
}

func TestMultipleTables(t *testing.T) {
	eachMode(t, func(t *testing.T, db *DB) {
		tx := db.Begin()
		tx.CreateTable("a")
		tx.CreateTable("b")
		tx.Put("a", []byte("k"), []byte("in-a"))
		tx.Put("b", []byte("k"), []byte("in-b"))
		va, _, _ := tx.Get("a", []byte("k"))
		vb, _, _ := tx.Get("b", []byte("k"))
		if string(va) != "in-a" || string(vb) != "in-b" {
			t.Fatalf("cross-table: a=%q b=%q", va, vb)
		}
		tx.Commit()
	})
}

func TestRollback(t *testing.T) {
	eachMode(t, func(t *testing.T, db *DB) {
		tx := db.Begin()
		tx.CreateTable("kv")
		tx.Put("kv", []byte("committed"), []byte("yes"))
		tx.Commit()

		tx2 := db.Begin()
		tx2.Put("kv", []byte("committed"), []byte("NO!"))
		tx2.Put("kv", []byte("aborted"), []byte("gone"))
		tx2.Rollback()

		tx3 := db.Begin()
		v, ok, _ := tx3.Get("kv", []byte("committed"))
		if !ok || string(v) != "yes" {
			t.Fatalf("rollback leaked: %q ok=%v", v, ok)
		}
		if _, ok, _ := tx3.Get("kv", []byte("aborted")); ok {
			t.Fatal("aborted insert visible")
		}
		tx3.Commit()
	})
}

func TestOversizedPayloadRejected(t *testing.T) {
	eachMode(t, func(t *testing.T, db *DB) {
		tx := db.Begin()
		tx.CreateTable("kv")
		err := tx.Put("kv", []byte("k"), make([]byte, PageSize))
		if err == nil {
			t.Fatal("oversized value accepted")
		}
		tx.Commit()
	})
}

func TestMissingTable(t *testing.T) {
	eachMode(t, func(t *testing.T, db *DB) {
		tx := db.Begin()
		if err := tx.Put("nope", []byte("k"), []byte("v")); err == nil {
			t.Fatal("put to missing table")
		}
		tx.Commit()
	})
}

func TestWALCheckpointTriggers(t *testing.T) {
	db, _, _ := newWALDB(t)
	tx := db.Begin()
	tx.CreateTable("kv")
	tx.Commit()
	// Push more than CheckpointThreshold bytes of frames through: a
	// checkpoint truncates the log.
	log := db.be.(*walPager).log
	val := bytes.Repeat([]byte{7}, 256)
	truncated := false
	for i := 0; !truncated && i < 10000; i++ {
		before := log.Size()
		tx := db.Begin()
		for j := 0; j < 8; j++ {
			tx.Put("kv", workload.Key16(int64(i*8+j)), val)
		}
		tx.Commit()
		truncated = log.Size() < before
	}
	if !truncated {
		t.Fatal("checkpoint never triggered")
	}
	// Data must survive checkpointing.
	tx2 := db.Begin()
	if _, ok, _ := tx2.Get("kv", workload.Key16(0)); !ok {
		t.Fatal("key lost across checkpoint")
	}
	tx2.Commit()
}

func TestMemSnapCrashRecovery(t *testing.T) {
	sys, _ := core.NewSystem(core.Options{})
	proc := sys.NewProcess()
	ctx := proc.NewContext(0)
	db, err := OpenMemSnap(proc, ctx, "crash.db", 64<<20)
	if err != nil {
		t.Fatal(err)
	}
	tx := db.Begin()
	tx.CreateTable("kv")
	for i := 0; i < 300; i++ {
		tx.Put("kv", workload.Key16(int64(i)), []byte(fmt.Sprint(i)))
	}
	tx.Commit()

	// An uncommitted transaction in progress at crash time.
	tx2 := db.Begin()
	tx2.Put("kv", []byte("uncommitted"), []byte("lost"))

	sys.Array().CutPower(ctx.Clock().Now(), sim.NewRNG(9))
	sys2, at, err := core.Recover(core.Options{}, sys.Array(), ctx.Clock().Now())
	if err != nil {
		t.Fatal(err)
	}
	proc2 := sys2.NewProcess()
	ctx2 := proc2.NewContext(0)
	ctx2.Clock().AdvanceTo(at)
	db2, err := OpenMemSnap(proc2, ctx2, "crash.db", 64<<20)
	if err != nil {
		t.Fatal(err)
	}
	tx3 := db2.Begin()
	for i := 0; i < 300; i++ {
		v, ok, _ := tx3.Get("kv", workload.Key16(int64(i)))
		if !ok || string(v) != fmt.Sprint(i) {
			t.Fatalf("key %d after crash: %q ok=%v", i, v, ok)
		}
	}
	if _, ok, _ := tx3.Get("kv", []byte("uncommitted")); ok {
		t.Fatal("uncommitted write survived the crash")
	}
	tx3.Commit()
}

func TestEquivalenceWALvsMemSnap(t *testing.T) {
	// Both backends must produce identical database contents for the
	// same operation sequence.
	f := func(seed uint64, opsRaw []uint16) bool {
		if len(opsRaw) == 0 {
			return true
		}
		run := func(db *DB) map[string]string {
			tx := db.Begin()
			tx.CreateTable("kv")
			tx.Commit()
			rng := sim.NewRNG(seed)
			for _, raw := range opsRaw {
				tx := db.Begin()
				key := workload.Key16(int64(raw % 64))
				switch raw % 3 {
				case 0, 1:
					val := []byte(fmt.Sprintf("v%d", rng.Uint64()%1000))
					tx.Put("kv", key, val)
				case 2:
					tx.Delete("kv", key)
				}
				tx.Commit()
			}
			out := make(map[string]string)
			tx = db.Begin()
			tx.Scan("kv", nil, nil, func(k, v []byte) bool {
				out[string(k)] = string(v)
				return true
			})
			tx.Commit()
			return out
		}
		dbW, _, _ := newWALDB(t)
		dbM, _, _ := newMemSnapDB(t)
		a, b := run(dbW), run(dbM)
		if len(a) != len(b) {
			return false
		}
		for k, v := range a {
			if b[k] != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestMemSnapFasterThanWALForRandomWrites(t *testing.T) {
	// The headline §7.1 result, in miniature: random-key transactions
	// commit faster under MemSnap than under WAL-and-checkpoint.
	runBench := func(make func() (*DB, *sim.Clock)) (perTx float64) {
		db, clk := make()
		tx := db.Begin()
		tx.CreateTable("kv")
		tx.Commit()
		gen := workload.NewDBBench(1, 100000, 128, 4096, true)
		start := clk.Now()
		const txs = 300
		for i := 0; i < txs; i++ {
			tx := db.Begin()
			for _, kv := range gen.NextTx() {
				tx.Put("kv", kv.Key, kv.Value)
			}
			tx.Commit()
		}
		return float64(clk.Now()-start) / txs
	}
	walTime := runBench(func() (*DB, *sim.Clock) {
		db, _, clk := newWALDB(t)
		return db, clk
	})
	msTime := runBench(func() (*DB, *sim.Clock) {
		db, _, ctx := newMemSnapDB(t)
		return db, ctx.Clock()
	})
	if msTime >= walTime {
		t.Fatalf("memsnap (%v ns/tx) not faster than WAL (%v ns/tx)", msTime, walTime)
	}
}
