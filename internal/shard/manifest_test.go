package shard

import (
	"fmt"
	"slices"
	"testing"

	"memsnap/internal/core"
	"memsnap/internal/sim"
)

// pageOf returns the offset of the slot page key lands on in shard 0
// of svc, probing under the execution lock.
func pageOf(t *testing.T, svc *Service, key string) int64 {
	t.Helper()
	sh := svc.shards[0]
	sh.execMu.Lock()
	defer sh.execMu.Unlock()
	composed, err := composeKey(sh.key[:], "t", key)
	if err != nil {
		t.Fatal(err)
	}
	idx, _, ok := sh.tab.probe(fnv1a("t", key), composed)
	if !ok {
		t.Fatalf("no slot for %q", key)
	}
	off, _ := slotPos(idx)
	return off
}

// lastWritten returns the slot page holding shard 0's newest manifest
// copy: the page the latest batch wrote last.
func lastWritten(svc *Service) int64 {
	sh := svc.shards[0]
	sh.execMu.Lock()
	defer sh.execMu.Unlock()
	return sh.tab.last
}

// TestRecoveryTakesNewestManifestCopy commits batches whose last
// written slot pages differ — the newest ends on a page that is
// neither the first slot page nor the highest one carrying a copy —
// then cuts power after everything is durable and reopens. The
// recovered manifest must be the pre-cut one, and the rescan must
// agree with it.
func TestRecoveryTakesNewestManifestCopy(t *testing.T) {
	const regionBytes = 64 * core.PageSize
	sys := newSystem(t, 1)
	cfg := Config{Shards: 1, RegionBytes: regionBytes}
	svc, err := New(sys, cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Four keys on four distinct slot pages, none on the first.
	var keys []string
	var pages []int64
	for i := 0; len(keys) < 4; i++ {
		key := fmt.Sprintf("k%03d", i)
		p := pageOf(t, svc, key)
		if p == core.PageSize || slices.Contains(pages, p) {
			continue
		}
		keys, pages = append(keys, key), append(pages, p)
	}
	byPage := func(i, j int) int { return int(pages[i] - pages[j]) }
	order := []int{0, 1, 2, 3}
	slices.SortFunc(order, byPage)
	low, mid, mid2, high := keys[order[0]], keys[order[1]], keys[order[2]], keys[order[3]]

	steps := []struct {
		name string
		run  func() error
		last string // key whose page the batch writes last
	}{
		{"put high", func() error { return svc.Put("t", high, 10) }, high},
		{"put mid2", func() error { return svc.Put("t", mid2, 20) }, mid2},
		{"put mid", func() error { return svc.Put("t", mid, 30) }, mid},
		{"transfer high→low", func() error { return svc.Transfer("t", high, low, 4) }, low},
		{"delete mid2", func() error { return svc.Do(Op{Kind: OpDelete, Tenant: "t", Key: mid2}).Err }, mid2},
		{"add mid", func() error { _, err := svc.Add("t", mid, 7); return err }, mid},
	}
	for _, st := range steps {
		if err := st.run(); err != nil {
			t.Fatalf("%s: %v", st.name, err)
		}
		if got, want := lastWritten(svc), pageOf(t, svc, st.last); got != want {
			t.Fatalf("%s: manifest copy went to page %d, want %d (the page written last)", st.name, got/core.PageSize, want/core.PageSize)
		}
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	pre := svc.shards[0].tab.man
	if pre.commits != uint64(len(steps)) {
		t.Fatalf("pre-cut manifest has %d commits, want %d", pre.commits, len(steps))
	}

	cutAt := svc.EndTime()
	sys.Array().CutPower(cutAt, sim.NewRNG(11))
	sys2, doneAt, err := core.Recover(core.Options{CPUs: 1, DiskBytesEach: 512 << 20}, sys.Array(), cutAt)
	if err != nil {
		t.Fatal(err)
	}
	cfg.StartAt = doneAt
	svc2, err := New(sys2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer svc2.Close()
	rec := svc2.Recovery()[0]
	if !rec.Existing || !rec.Consistent() {
		t.Fatalf("recovery %+v: want an existing, consistent shard", rec)
	}
	if rec.Seq != pre.commits || rec.Applied != pre.applied || rec.Records != pre.live || rec.ValueSum != pre.sum {
		t.Fatalf("recovered (seq %d applied %d records %d sum %d), want the pre-cut manifest (%d %d %d %d)",
			rec.Seq, rec.Applied, rec.Records, rec.ValueSum, pre.commits, pre.applied, pre.live, pre.sum)
	}
	if v, ok, _ := svc2.Get("t", mid); !ok || v != 37 {
		t.Fatalf("%s = %d (found %v) after recovery, want 37", mid, v, ok)
	}
}

// TestLonePutCommitsOneDataPage pins the page cost of the manifest: a
// lone Put's uCheckpoint holds exactly the slot page it wrote, and a
// Transfer across two slot pages exactly those two. The counters ride
// in a page the batch already dirtied.
func TestLonePutCommitsOneDataPage(t *testing.T) {
	sys := newSystem(t, 1)
	svc, err := New(sys, Config{Shards: 1, RegionBytes: 64 * core.PageSize})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	sh := svc.shards[0]
	pagesOfLastCommit := func() int {
		sh.execMu.Lock()
		defer sh.execMu.Unlock()
		return sh.ctx.LastBreakdown.Pages
	}
	for i, key := range []string{"a", "b", "a", "c"} {
		if err := svc.Put("t", key, uint64(i+1)); err != nil {
			t.Fatal(err)
		}
		if got := pagesOfLastCommit(); got != 1 {
			t.Fatalf("put %d (%q) committed %d pages, want 1", i, key, got)
		}
	}
	from, to := "a", ""
	for i := 0; to == ""; i++ {
		if k := fmt.Sprintf("x%02d", i); pageOf(t, svc, k) != pageOf(t, svc, from) {
			to = k
		}
	}
	if err := svc.Transfer("t", from, to, 1); err != nil {
		t.Fatal(err)
	}
	if got := pagesOfLastCommit(); got != 2 {
		t.Fatalf("transfer across two slot pages committed %d pages, want 2", got)
	}
}
