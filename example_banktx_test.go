package memsnap_test

import (
	"encoding/binary"
	"fmt"
	"log"
	"time"

	"memsnap"
	"memsnap/internal/sim"
)

// bankAccounts is the ledger size of Example_banktx: one account per
// page.
const bankAccounts = 256

func readBalance(ctx *memsnap.Context, r *memsnap.Region, id int) int64 {
	buf := make([]byte, 8)
	ctx.ReadAt(r, int64(id)*memsnap.PageSize, buf)
	return int64(binary.LittleEndian.Uint64(buf))
}

func writeBalance(ctx *memsnap.Context, r *memsnap.Region, id int, v int64) {
	buf := make([]byte, 8)
	binary.LittleEndian.PutUint64(buf, uint64(v))
	ctx.WriteAt(r, int64(id)*memsnap.PageSize, buf)
}

// Example_banktx runs atomic multi-page transactions without a WAL. A
// transfer debits one account and credits another — two dirty pages
// that must persist atomically, or a crash could create or destroy
// money. With the file API this is the classic motivating case for
// write-ahead logging; with MemSnap a transfer is two in-place writes
// plus one Persist.
//
// The example runs random transfers, cuts power at a random instant
// inside the last transfer's commit window, recovers, and audits the
// invariant: the total is exactly what it was.
func Example_banktx() {
	const initialBalance = 1000
	store, err := memsnap.NewStore(memsnap.Config{})
	if err != nil {
		log.Fatal(err)
	}
	proc := store.NewProcess()
	ctx := proc.NewContext(0)
	bank, err := proc.Open(ctx, "bank", bankAccounts*memsnap.PageSize)
	if err != nil {
		log.Fatal(err)
	}

	// Fund the accounts (one uCheckpoint for the whole ledger).
	for id := 0; id < bankAccounts; id++ {
		writeBalance(ctx, bank, id, initialBalance)
	}
	if _, err := ctx.Persist(bank, memsnap.Sync); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("funded %d accounts with %d each\n", bankAccounts, initialBalance)

	// Run transfers; each one is: debit, credit, persist.
	rng := sim.NewRNG(7)
	acked := 0
	var lastStart time.Duration
	for i := 0; i < 500; i++ {
		from, to := rng.Intn(bankAccounts), rng.Intn(bankAccounts)
		if from == to {
			continue
		}
		amount := int64(1 + rng.Intn(100))
		lastStart = ctx.Clock().Now()
		writeBalance(ctx, bank, from, readBalance(ctx, bank, from)-amount)
		writeBalance(ctx, bank, to, readBalance(ctx, bank, to)+amount)
		if _, err := ctx.Persist(bank, memsnap.Sync); err != nil {
			log.Fatal(err)
		}
		acked++
	}

	// Crash at a random instant inside the final transfer's commit
	// window: it either fully persisted or is fully invisible.
	end := ctx.Clock().Now()
	cut := lastStart + time.Duration(rng.Int63n(int64(end-lastStart)+1))
	store.Array().CutPower(cut, rng)
	fmt.Printf("ran %d transfers; power cut at %v (last commit window %v..%v)\n",
		acked, cut, lastStart, end)

	// Recover and audit.
	store2, at, err := memsnap.RecoverStore(memsnap.Config{}, store.Array(), end)
	if err != nil {
		log.Fatal(err)
	}
	proc2 := store2.NewProcess()
	ctx2 := proc2.NewContext(0)
	ctx2.Clock().AdvanceTo(at)
	bank2, err := proc2.Open(ctx2, "bank", bankAccounts*memsnap.PageSize)
	if err != nil {
		log.Fatal(err)
	}
	var total int64
	for id := 0; id < bankAccounts; id++ {
		total += readBalance(ctx2, bank2, id)
	}
	fmt.Printf("audited total after crash: %d (expected %d)\n", total, bankAccounts*initialBalance)

	// Output:
	// funded 256 accounts with 1000 each
	// ran 500 transfers; power cut at 23.464119ms (last commit window 23.432718ms..23.478454ms)
	// audited total after crash: 256000 (expected 256000)
}
