package shard

import (
	"fmt"
	"testing"
	"time"

	"memsnap/internal/core"
)

// passReplicator acknowledges every commit at once.
type passReplicator struct{}

func (passReplicator) ShipCommit(_ int, at time.Duration, c Commit, _ func() Snapshot) (time.Duration, error) {
	if c.Owned {
		core.ReleasePages(c.Pages)
	}
	return at, nil
}

// statsLine is the part of a shard's statistics an op can move.
func statsLine(st ShardStats) string {
	return fmt.Sprintf("ops %d reads %d writes %d commits %d queue high water %d rejected %d elapsed %v commit hist %d",
		st.Ops, st.Reads, st.Writes, st.Commits, st.QueueHighWater, st.Rejected, st.Elapsed, st.CommitHist.Count)
}

// TestTryRunContract pins what TryRun may and may not do: it runs an op
// on its caller only when the shard is idle in the claim sense, it never
// queues anything, and with a Replicator attached it runs no write.
func TestTryRunContract(t *testing.T) {
	t.Run("idle", func(t *testing.T) {
		svc, err := New(newSystem(t, 1), Config{Shards: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer svc.Close()
		r, ran, err := svc.TryRun(Op{Kind: OpAdd, Tenant: "t", Key: "k", Value: 5})
		if err != nil || !ran || r.Value != 5 || r.Epoch == 0 {
			t.Fatalf("add on an idle shard = %+v, ran %v, %v; want value 5 with a durable epoch", r, ran, err)
		}
		r, ran, err = svc.TryRun(Op{Kind: OpGet, Tenant: "t", Key: "k"})
		if err != nil || !ran || !r.Found || r.Value != 5 {
			t.Fatalf("get on an idle shard = %+v, ran %v, %v", r, ran, err)
		}
		if st := svc.TotalStats(); st.Writes != 1 || st.Reads != 1 || st.Commits != 1 || st.QueueHighWater != 0 {
			t.Fatalf("stats after two ops on the caller: %+v", st)
		}
		if _, _, err := svc.TryRun(Op{Kind: OpGet, Tenant: "t", Key: string(make([]byte, MaxKeyLen))}); err != ErrKeyTooLong {
			t.Fatalf("over-long key: %v, want ErrKeyTooLong", err)
		}
	})

	t.Run("busy", func(t *testing.T) {
		svc, err := New(newSystem(t, 1), Config{Shards: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer svc.Close()
		if err := svc.Put("t", "k", 1); err != nil {
			t.Fatal(err)
		}
		sh := svc.shards[0]
		before := statsLine(svc.TotalStats())
		sh.execMu.Lock() // someone else is running the shard
		for _, op := range []Op{
			{Kind: OpGet, Tenant: "t", Key: "k"},
			{Kind: OpAdd, Tenant: "t", Key: "k", Value: 1},
		} {
			if r, ran, err := svc.TryRun(op); ran || err != nil {
				t.Errorf("%v on a busy shard: %+v, ran %v, %v; want refused", op.Kind, r, ran, err)
			}
		}
		if n := len(sh.queue); n != 0 {
			t.Errorf("a refused TryRun left %d requests queued", n)
		}
		sh.execMu.Unlock()
		if after := statsLine(svc.TotalStats()); after != before {
			t.Errorf("a refused TryRun moved the stats:\n before %s\n after  %s", before, after)
		}
	})

	t.Run("behind a queued put", func(t *testing.T) {
		// No workers yet: a tagged put waits in the queue, and the lock is
		// free. A get that ran now would read the key as it was before the
		// put this submitter already issued.
		svc, err := open(newSystem(t, 1), Config{Shards: 1})
		if err != nil {
			t.Fatal(err)
		}
		resp := make(chan Response, 1)
		if err := svc.DoTagged(Op{Kind: OpPut, Tenant: "t", Key: "k", Value: 9}, 1, resp); err != nil {
			t.Fatal(err)
		}
		if r, ran, err := svc.TryRun(Op{Kind: OpGet, Tenant: "t", Key: "k"}); ran || err != nil {
			t.Fatalf("get behind a queued put ran: %+v, %v (stale read)", r, err)
		}
		svc.start()
		defer svc.Close()
		if r := <-resp; r.Err != nil || r.Tag != 1 {
			t.Fatalf("queued put = %+v", r)
		}
		if r, ran, err := svc.TryRun(Op{Kind: OpGet, Tenant: "t", Key: "k"}); !ran || err != nil || r.Value != 9 {
			t.Fatalf("get after the put = %+v, ran %v, %v; want 9", r, ran, err)
		}
	})

	t.Run("replicated", func(t *testing.T) {
		svc, err := New(newSystem(t, 1), Config{Shards: 1, Replicator: passReplicator{}})
		if err != nil {
			t.Fatal(err)
		}
		defer svc.Close()
		if err := svc.Put("t", "k", 3); err != nil {
			t.Fatal(err)
		}
		before := svc.TotalStats()
		for _, op := range []Op{
			{Kind: OpPut, Tenant: "t", Key: "k", Value: 4},
			{Kind: OpAdd, Tenant: "t", Key: "k", Value: 1},
			{Kind: OpDelete, Tenant: "t", Key: "k"},
		} {
			if r, ran, err := svc.TryRun(op); ran || err != nil {
				t.Errorf("%v with a Replicator attached: %+v, ran %v, %v; want refused", op.Kind, r, ran, err)
			}
		}
		if st := svc.TotalStats(); st.Writes != before.Writes || st.QueueHighWater != 0 {
			t.Errorf("refused writes moved the shard: writes %d → %d, queue high water %d", before.Writes, st.Writes, st.QueueHighWater)
		}
		if r, ran, err := svc.TryRun(Op{Kind: OpGet, Tenant: "t", Key: "k"}); !ran || err != nil || r.Value != 3 {
			t.Fatalf("get with a Replicator attached = %+v, ran %v, %v; want 3", r, ran, err)
		}
	})
}
