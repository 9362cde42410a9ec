package shard

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"memsnap/internal/core"
	"memsnap/internal/sim"
)

// A blocking call runs on its caller when the shard is idle (see
// Service.call). These tests pin what that must not change: each
// submitter's order, the modelled outcome, the Close contract, group
// commit among concurrent blocking callers, and the queue statistics.

// TestFIFOAsyncThenGet: a goroutine that submits a put through the
// queue (DoTagged) and then reads the key with a blocking Get always
// sees its put, with 8 such goroutines on one shard so Gets find the
// shard both busy and idle. The Get may run on the caller only when the
// put can no longer be in the queue.
func TestFIFOAsyncThenGet(t *testing.T) {
	const (
		submitters = 8
		rounds     = 300
	)
	sys := newSystem(t, 1)
	svc, err := New(sys, Config{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	var wg sync.WaitGroup
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			key := fmt.Sprintf("k%d", g)
			ch := make(chan Response, 1)
			for i := uint64(1); i <= rounds; i++ {
				if err := svc.DoTagged(Op{Kind: OpPut, Tenant: "t", Key: key, Value: i}, 0, ch); err != nil {
					t.Errorf("submitter %d: DoTagged: %v", g, err)
					return
				}
				v, ok, err := svc.Get("t", key)
				if err != nil || !ok || v != i {
					t.Errorf("submitter %d: Get after DoTagged(put %d) = %d, %v, %v", g, i, v, ok, err)
					return
				}
				if r := <-ch; r.Err != nil {
					t.Errorf("submitter %d: put %d: %v", g, i, r.Err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestFIFOTaggedPutThenGet: a pipeline that puts a key and then gets it
// through DoTagged must read its put. The get runs on the submitter only
// when the shard is idle, and the put, still in the queue or with the
// worker, makes it busy; 4 such pipelines on one shard have gets find
// it both ways.
func TestFIFOTaggedPutThenGet(t *testing.T) {
	const (
		submitters = 4
		rounds     = 500
	)
	sys := newSystem(t, 1)
	svc, err := New(sys, Config{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	var wg sync.WaitGroup
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			key := fmt.Sprintf("k%d", g)
			ch := make(chan Response, 2)
			for i := uint64(1); i <= rounds; i++ {
				if err := svc.DoTagged(Op{Kind: OpPut, Tenant: "t", Key: key, Value: i}, 0, ch); err != nil {
					t.Errorf("submitter %d: put %d: %v", g, i, err)
					return
				}
				if err := svc.DoTagged(Op{Kind: OpGet, Tenant: "t", Key: key}, i, ch); err != nil {
					t.Errorf("submitter %d: get %d: %v", g, i, err)
					return
				}
				for n := 0; n < 2; n++ {
					r := <-ch
					if r.Err != nil {
						t.Errorf("submitter %d round %d: %v", g, i, r.Err)
						return
					}
					if r.Tag == i && (!r.Found || r.Value != i) {
						t.Errorf("submitter %d: get after put %d = %d, found %v", g, i, r.Value, r.Found)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestCallerRunsTaggedGetInline: a tagged get on an idle shard runs on
// its submitter, so its response is on the channel when TryDoTagged
// returns.
func TestCallerRunsTaggedGetInline(t *testing.T) {
	sys := newSystem(t, 1)
	svc, err := New(sys, Config{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	if err := svc.Put("t", "k", 7); err != nil {
		t.Fatal(err)
	}
	ch := make(chan Response, 1)
	if err := svc.TryDoTagged(Op{Kind: OpGet, Tenant: "t", Key: "k"}, 3, ch); err != nil {
		t.Fatal(err)
	}
	select {
	case r := <-ch:
		if r.Tag != 3 || r.Value != 7 || !r.Found || r.Err != nil {
			t.Errorf("tagged get = %+v, want tag 3, value 7, found", r)
		}
	default:
		t.Fatal("tagged get on an idle shard not answered before TryDoTagged returned")
	}
	if st := svc.TotalStats(); st.Reads != 1 || st.Ops != 2 {
		t.Errorf("reads %d, ops %d; want 1, 2", st.Reads, st.Ops)
	}
}

// seededOps returns a reproducible mixed sequence over a small key set.
func seededOps(seed uint64, n int) []Op {
	rng := sim.NewRNG(seed)
	ops := make([]Op, n)
	for i := range ops {
		op := Op{Tenant: fmt.Sprintf("t%d", rng.Intn(3)), Key: fmt.Sprintf("k%03d", rng.Intn(200))}
		switch p := rng.Intn(100); {
		case p < 40:
			op.Kind = OpGet
		case p < 70:
			op.Kind, op.Value = OpAdd, uint64(rng.Intn(1000))
		case p < 90:
			op.Kind, op.Value = OpPut, uint64(rng.Intn(1000))
		default:
			op.Kind = OpDelete
		}
		ops[i] = op
	}
	return ops
}

// TestCallerRunsDifferential drives one seeded 5,000-op sequence through
// Do (every op runs on the caller: the shards are always idle) and on a
// second system through DoTagged plus a wait (every write runs on the
// worker, gets on the submitter or the worker as they find the shard).
// Responses, region digests, every shard's virtual clock, the statistics
// and the bytes written to disk must be equal: which goroutine runs a
// shard is invisible to the model.
func TestCallerRunsDifferential(t *testing.T) {
	ops := seededOps(21, 5000)
	type outcome struct {
		resps   []Response
		digests []uint64
		end     time.Duration
		stats   []ShardStats
		disk    any
	}
	drive := func(do func(*Service, Op) Response) outcome {
		sys := newSystem(t, 2)
		svc, err := New(sys, Config{Shards: 2, RegionBytes: 1 << 20})
		if err != nil {
			t.Fatal(err)
		}
		defer svc.Close()
		var out outcome
		for _, op := range ops {
			out.resps = append(out.resps, do(svc, op))
		}
		if out.digests, err = svc.ShardDigests(); err != nil {
			t.Fatal(err)
		}
		out.end = svc.EndTime()
		out.stats = svc.Stats()
		for i := range out.stats {
			// The one field that says which path ran: nothing queues
			// when every op runs on its caller.
			out.stats[i].QueueHighWater = 0
		}
		out.disk = sys.Array().Stats()
		return out
	}
	onCaller := drive(func(s *Service, op Op) Response { return s.Do(op) })
	tagged := drive(func(s *Service, op Op) Response {
		const tag = 42
		ch := make(chan Response, 1)
		if err := s.DoTagged(op, tag, ch); err != nil {
			return Response{Err: err}
		}
		r := <-ch
		if r.Tag != tag {
			t.Fatalf("DoTagged: response tag %d, want %d", r.Tag, tag)
		}
		r.Tag = 0
		return r
	})
	for i := range ops {
		if onCaller.resps[i] != tagged.resps[i] {
			t.Fatalf("op %d %+v: on caller %+v, tagged %+v", i, ops[i], onCaller.resps[i], tagged.resps[i])
		}
	}
	if fmt.Sprint(onCaller.digests) != fmt.Sprint(tagged.digests) {
		t.Errorf("region digests differ: on caller %v, tagged %v", onCaller.digests, tagged.digests)
	}
	if onCaller.end != tagged.end {
		t.Errorf("EndTime: on caller %v, tagged %v", onCaller.end, tagged.end)
	}
	if onCaller.disk != tagged.disk {
		t.Errorf("disk stats: on caller %+v, tagged %+v", onCaller.disk, tagged.disk)
	}
	for i := range onCaller.stats {
		if a, b := fmt.Sprintf("%+v", onCaller.stats[i]), fmt.Sprintf("%+v", tagged.stats[i]); a != b {
			t.Errorf("shard %d stats differ:\n on caller %s\n tagged    %s", i, a, b)
		}
	}
	if w := onCaller.stats[0].Writes + onCaller.stats[1].Writes; w < 2000 {
		t.Fatalf("sequence applied only %d writes", w)
	}
}

// TestCloseRaceCallerRuns races Close against blocking callers (which
// run on themselves or queue, as they find the shard) and tagged
// pipelines (which always queue) on one shard. Pinned:
//
//   - every accepted tagged op is answered exactly once, in order,
//     never with ErrClosed;
//   - a blocking op either fails with ErrClosed and was not applied, or
//     returns its real outcome and is durable: after recovery every
//     adder's key holds exactly the sum of its acknowledged adds;
//   - per-submitter order holds across the two kinds of holder: each
//     pipeline increments one key by one per op, so the response to its
//     i-th accepted op must carry the value i, and the recovered value is
//     the number accepted.
func TestCloseRaceCallerRuns(t *testing.T) {
	const (
		adders    = 4
		pipelines = 3
		perClient = 400
		depth     = 8
	)
	for round := 0; round < 6; round++ {
		round := round
		t.Run(fmt.Sprintf("round%d", round), func(t *testing.T) {
			opts := core.Options{CPUs: 1, DiskBytesEach: 512 << 20}
			sys, err := core.NewSystem(opts)
			if err != nil {
				t.Fatal(err)
			}
			cfg := Config{Shards: 1, QueueDepth: 8, BatchSize: 4, RegionBytes: 1 << 20}
			svc, err := New(sys, cfg)
			if err != nil {
				t.Fatal(err)
			}

			acked := make([]uint64, adders)       // sum of acknowledged adds per adder
			accepted := make([]uint64, pipelines) // ops accepted per pipeline
			var wg sync.WaitGroup
			for a := 0; a < adders; a++ {
				wg.Add(1)
				go func(a int) {
					defer wg.Done()
					key := fmt.Sprintf("add%d", a)
					for i := 1; i <= perClient; i++ {
						v, err := svc.Add("t", key, uint64(i))
						if err == ErrClosed {
							return
						}
						if err != nil {
							t.Errorf("adder %d: %v", a, err)
							return
						}
						acked[a] += uint64(i)
						if v != acked[a] {
							t.Errorf("adder %d: Add returned %d, acknowledged sum %d", a, v, acked[a])
							return
						}
					}
				}(a)
			}
			for p := 0; p < pipelines; p++ {
				wg.Add(1)
				go func(p int) {
					defer wg.Done()
					key := fmt.Sprintf("inc%d", p)
					ch := make(chan Response, depth+1)
					// Bursts: submit up to depth ops, then collect their
					// responses, so the shard keeps going idle and adders
					// keep finding it so. One shard answers one key's
					// writes in order: response n of a burst is op n.
					closed := false
					for next := uint64(1); next <= perClient && !closed; {
						first := next
						for ; next < first+depth && next <= perClient; next++ {
							if err := svc.DoTagged(Op{Kind: OpAdd, Tenant: "t", Key: key, Value: 1}, next, ch); err != nil {
								if err != ErrClosed {
									t.Errorf("pipeline %d: %v", p, err)
								}
								closed = true
								break
							}
							accepted[p] = next
						}
						// A lost response blocks here until the test
						// times out.
						for want := first; want <= accepted[p]; want++ {
							if r := <-ch; r.Tag != want || r.Value != want || r.Err != nil {
								t.Errorf("pipeline %d: response to op %d: tag %d, value %d, %v", p, want, r.Tag, r.Value, r.Err)
							}
						}
					}
					select {
					case r := <-ch:
						t.Errorf("pipeline %d: extra response %+v", p, r)
					default:
					}
				}(p)
			}

			time.Sleep(time.Duration(round) * 300 * time.Microsecond)
			if err := svc.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			// Close has returned: nothing may still be running a shard.
			for _, sh := range svc.shards {
				if !sh.execMu.TryLock() {
					t.Fatalf("shard %d still running after Close", sh.id)
				}
				sh.execMu.Unlock()
				if n := len(sh.queue); n != 0 {
					t.Errorf("shard %d: %d requests left in queue after Close", sh.id, n)
				}
			}
			wg.Wait()

			end := svc.EndTime()
			sys.Array().CutPower(end, sim.NewRNG(uint64(round)))
			sys2, at, err := core.Recover(opts, sys.Array(), end)
			if err != nil {
				t.Fatal(err)
			}
			cfg.StartAt = at
			svc2, err := New(sys2, cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer svc2.Close()
			var want uint64
			for _, rec := range svc2.Recovery() {
				if !rec.Consistent() {
					t.Fatalf("shard %d manifest/data mismatch after recovery", rec.Shard)
				}
			}
			for a, sum := range acked {
				want += sum
				if v, _, err := svc2.Get("t", fmt.Sprintf("add%d", a)); err != nil || v != sum {
					t.Errorf("adder %d: recovered %d, %v; acknowledged %d", a, v, err, sum)
				}
			}
			for p, n := range accepted {
				want += n
				if v, _, err := svc2.Get("t", fmt.Sprintf("inc%d", p)); err != nil || v != n {
					t.Errorf("pipeline %d: recovered %d, %v; accepted %d increments", p, v, err, n)
				}
			}
			if got, err := svc2.TotalValueSum(); err != nil || got != want {
				t.Errorf("recovered value sum %d, %v; want %d", got, err, want)
			}
		})
	}
}

// gateReplicator holds the first commit it is handed inside ShipCommit
// until released, so a test can park whoever is running the shard.
type gateReplicator struct {
	once    sync.Once
	entered chan struct{}
	release chan struct{}
}

func (g *gateReplicator) ShipCommit(_ int, at time.Duration, c Commit, _ func() Snapshot) (time.Duration, error) {
	g.once.Do(func() {
		close(g.entered)
		<-g.release
	})
	if c.Owned {
		core.ReleasePages(c.Pages)
	}
	return at, nil
}

// TestCallerRunsGroupCommit: 64 concurrent blocking writers on one shard
// share group commits exactly as they did when every op went through
// the worker. How free-running writers batch depends on the host
// scheduler (anywhere from 1.0 to 10 on the 2-vCPU development box, at
// the parent commit and here alike), so the test fixes the interleaving:
// the first writer finds the shard idle, runs on its own goroutine and is
// held in its commit; the other 63 find the shard busy and queue; then
// the first is let go. The 63 must drain in full batches of BatchSize
// (16): five commits for 64 writes, occupancy 12.8 — the figure the same
// body gives at the parent commit, where the worker is the one held.
func TestCallerRunsGroupCommit(t *testing.T) {
	const writers = 64
	gate := &gateReplicator{entered: make(chan struct{}), release: make(chan struct{})}
	sys := newSystem(t, 1)
	svc, err := New(sys, Config{Shards: 1, Replicator: gate})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	var wg sync.WaitGroup
	add := func(w int) {
		defer wg.Done()
		if _, err := svc.Add("t", fmt.Sprintf("w%02d", w), 1); err != nil {
			t.Errorf("writer %d: %v", w, err)
		}
	}
	wg.Add(1)
	go add(0)
	<-gate.entered
	for w := 1; w < writers; w++ {
		wg.Add(1)
		go add(w)
	}
	for len(svc.shards[0].queue) < writers-1 {
		runtime.Gosched()
	}
	close(gate.release)
	wg.Wait()
	st := svc.TotalStats()
	if st.Writes != writers || st.Commits != 5 || st.BatchOccupancy != 12.8 {
		t.Errorf("writes %d, commits %d, occupancy %.2f; want %d, 5, 12.80",
			st.Writes, st.Commits, st.BatchOccupancy, writers)
	}
	if sum, err := svc.TotalValueSum(); err != nil || sum != writers {
		t.Errorf("value sum %d, %v; want %d", sum, err, writers)
	}
}

// TestQueueHighWaterWithinDepth: the high-water mark is a depth the
// queue actually reached, so it never exceeds QueueDepth — blocking
// submitters used to note len+1 before they had a slot.
func TestQueueHighWaterWithinDepth(t *testing.T) {
	const depth = 4
	sys := newSystem(t, 1)
	svc, err := New(sys, Config{Shards: 1, QueueDepth: depth})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ch := make(chan Response, 64)
			for i := 0; i < 64; i++ {
				if err := svc.DoTagged(Op{Kind: OpAdd, Tenant: "t", Key: fmt.Sprintf("k%d", g), Value: 1}, uint64(i), ch); err != nil {
					t.Errorf("DoTagged: %v", err)
					return
				}
			}
			for i := 0; i < 64; i++ {
				<-ch
			}
		}(g)
	}
	wg.Wait()
	hw := svc.TotalStats().QueueHighWater
	if hw < 1 || hw > depth {
		t.Fatalf("QueueHighWater = %d; want within [1, %d]", hw, depth)
	}
}

// TestStatsWhileServing scrapes Stats and TotalStats in a loop while
// blocking callers and a pipeline drive one shard: the scrape reads the
// lock-free histograms outside statsMu, which retire takes on the
// goroutine a client is waiting on. Once the service is quiet every
// commit is in the histogram.
func TestStatsWhileServing(t *testing.T) {
	sys := newSystem(t, 1)
	svc, err := New(sys, Config{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	stop := make(chan struct{})
	scraped := make(chan struct{})
	go func() {
		defer close(scraped)
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, st := range svc.Stats() {
				if h := st.CommitHist; h.P50() > h.Max || h.Count > st.Commits {
					t.Errorf("bad histogram while serving: p50 %v, max %v, count %d of %d commits", h.P50(), h.Max, h.Count, st.Commits)
				}
			}
			svc.TotalStats()
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				if _, err := svc.Add("t", fmt.Sprintf("k%d", g), 1); err != nil {
					t.Errorf("Add: %v", err)
					return
				}
			}
		}(g)
	}
	ch := make(chan Response, 8)
	for i := 0; i < 300; i++ {
		if i >= cap(ch) {
			<-ch
		}
		if err := svc.DoTagged(Op{Kind: OpAdd, Tenant: "t", Key: "p", Value: 1}, uint64(i), ch); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < cap(ch); i++ {
		<-ch
	}
	wg.Wait()
	close(stop)
	<-scraped
	st := svc.Stats()[0]
	if st.Writes != 1200 || st.CommitHist.Count != st.Commits || st.CommitHist != svc.TotalStats().CommitHist {
		t.Errorf("quiet service: writes %d, commits %d, histogram count %d, total %d", st.Writes, st.Commits, st.CommitHist.Count, svc.TotalStats().CommitHist.Count)
	}
}
