package netsvc

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"memsnap/internal/core"
	"memsnap/internal/proto"
	"memsnap/internal/shard"
	"memsnap/internal/sim"
)

// TestLoneRequestsSkipTheQueue: on a depth-1 connection every request
// is lone, so each add runs on the connection's reader — none waits in
// a shard queue — and its reply still carries the epoch that made it
// durable.
func TestLoneRequestsSkipTheQueue(t *testing.T) {
	svc := newService(t, shard.Config{Shards: 2})
	defer svc.Close()
	srv := startServer(t, svc, Config{MaxInFlight: 1})
	defer srv.Close()
	c, err := Dial(srv.Addr(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 500; i++ {
		q := proto.Request{Kind: proto.KindAdd, Tenant: []byte("t"), Key: []byte(fmt.Sprintf("k%d", i%7)), Value: 1}
		p, err := c.Do(&q)
		if err != nil || p.Status != proto.StatusOK || p.Epoch == 0 {
			t.Fatalf("add %d = %+v, %v; want OK with a durable epoch", i, p, err)
		}
	}
	st := svc.TotalStats()
	if st.QueueHighWater != 0 {
		t.Errorf("queue high water %d after 500 lone adds, want 0: they went through the shard queue", st.QueueHighWater)
	}
	if st.Writes != 500 {
		t.Errorf("writes %d, want 500", st.Writes)
	}
}

// loneOps is a seeded mix of every op kind over a small key set; the
// transfers' keys may route to different shards, which the service
// refuses the same way on both paths.
func loneOps(seed uint64, n int) []proto.Request {
	rng := sim.NewRNG(seed)
	ops := make([]proto.Request, n)
	for i := range ops {
		q := proto.Request{Tenant: []byte(fmt.Sprintf("t%d", rng.Intn(3))), Key: []byte(fmt.Sprintf("k%03d", rng.Intn(100)))}
		switch p := rng.Intn(100); {
		case p < 35:
			q.Kind = proto.KindGet
		case p < 60:
			q.Kind, q.Value = proto.KindAdd, uint64(rng.Intn(1000))
		case p < 80:
			q.Kind, q.Value = proto.KindPut, uint64(rng.Intn(1000))
		case p < 90:
			q.Kind = proto.KindDelete
		default:
			q.Kind, q.Value = proto.KindTransfer, uint64(rng.Intn(500))
			q.Key2 = []byte(fmt.Sprintf("k%03d", rng.Intn(100)))
		}
		ops[i] = q
	}
	return ops
}

// TestLoneDifferential drives one seeded 2,000-op sequence through a
// depth-1 TCP client — every request lone, run on the server's
// connection reader — and through svc.Do on a twin service, where every
// op runs on the caller. The replies, region digests, shard clocks,
// statistics and bytes written to disk must be equal: answering on the
// reader is invisible to the model.
func TestLoneDifferential(t *testing.T) {
	ops := loneOps(35, 2000)
	type outcome struct {
		resps   []proto.Response
		digests []uint64
		end     time.Duration
		stats   []shard.ShardStats
		disk    any
	}
	drive := func(do func(*shard.Service, *proto.Request) proto.Response) outcome {
		sys, err := core.NewSystem(core.Options{CPUs: 2, DiskBytesEach: 512 << 20})
		if err != nil {
			t.Fatal(err)
		}
		svc, err := shard.New(sys, shard.Config{Shards: 2, RegionBytes: 1 << 20})
		if err != nil {
			t.Fatal(err)
		}
		defer svc.Close()
		var out outcome
		for i := range ops {
			q := ops[i]
			out.resps = append(out.resps, do(svc, &q))
		}
		if out.digests, err = svc.ShardDigests(); err != nil {
			t.Fatal(err)
		}
		out.end = svc.EndTime()
		out.stats = svc.Stats()
		out.disk = sys.Array().Stats()
		return out
	}
	var srv *Server
	var c *Client
	overTCP := drive(func(svc *shard.Service, q *proto.Request) proto.Response {
		if c == nil {
			srv = startServer(t, svc, Config{MaxInFlight: 1})
			var err error
			if c, err = Dial(srv.Addr(), 1); err != nil {
				t.Fatal(err)
			}
		}
		p, err := c.Do(q)
		if err != nil {
			t.Fatal(err)
		}
		p.ID = 0
		return p
	})
	c.Close()
	srv.Close()
	onCaller := drive(func(svc *shard.Service, q *proto.Request) proto.Response {
		r := svc.Do(shard.Op{Kind: opKind(q.Kind), Tenant: string(q.Tenant), Key: string(q.Key), Key2: string(q.Key2), Value: q.Value})
		p := proto.Response{Status: statusOf(r.Err), Found: r.Found, Value: r.Value, Epoch: uint64(r.Epoch)}
		return p
	})
	for i := range ops {
		if overTCP.resps[i] != onCaller.resps[i] {
			t.Fatalf("op %d %s: over TCP %+v, on the caller %+v", i, ops[i].Kind, overTCP.resps[i], onCaller.resps[i])
		}
	}
	if fmt.Sprint(overTCP.digests) != fmt.Sprint(onCaller.digests) {
		t.Errorf("region digests: over TCP %v, on the caller %v", overTCP.digests, onCaller.digests)
	}
	if overTCP.end != onCaller.end {
		t.Errorf("EndTime: over TCP %v, on the caller %v", overTCP.end, onCaller.end)
	}
	for i := range onCaller.stats {
		a, b := overTCP.stats[i], onCaller.stats[i]
		if fmt.Sprintf("%+v", a) != fmt.Sprintf("%+v", b) {
			t.Errorf("shard %d stats differ: over TCP ops %d writes %d commits %d queue high water %d elapsed %v commit p50 %v; on the caller %d %d %d %d %v %v",
				i, a.Ops, a.Writes, a.Commits, a.QueueHighWater, a.Elapsed, a.CommitHist.Quantile(0.5),
				b.Ops, b.Writes, b.Commits, b.QueueHighWater, b.Elapsed, b.CommitHist.Quantile(0.5))
		}
	}
	if overTCP.disk != onCaller.disk {
		t.Errorf("disk stats: over TCP %+v, on the caller %+v", overTCP.disk, onCaller.disk)
	}
}

// silentListener accepts connections and reads them to EOF without ever
// answering: a peer whose replies never come. received counts the bytes
// it has read.
func silentListener(t *testing.T, received *atomic.Int64) (addr string, stop func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				buf := make([]byte, 4<<10)
				for {
					n, err := nc.Read(buf)
					received.Add(int64(n))
					if err != nil {
						break
					}
				}
				nc.Close()
			}()
		}
	}()
	return ln.Addr().String(), func() { ln.Close(); wg.Wait() }
}

// TestClientCloseWakesEveryWaiter: callers parked on their slots for
// replies that will never come must all return, with an error, once
// the client is closed — each waits on its own slot, so the read loop's
// exit has to wake every one of them.
func TestClientCloseWakesEveryWaiter(t *testing.T) {
	var received atomic.Int64
	addr, stop := silentListener(t, &received)
	defer stop()
	const callers = 16
	c, err := Dial(addr, callers)
	if err != nil {
		t.Fatal(err)
	}
	get := func(g int) *proto.Request {
		return &proto.Request{Kind: proto.KindGet, Tenant: []byte("t"), Key: []byte(fmt.Sprintf("k%02d", g))}
	}
	frame, err := proto.AppendRequest(nil, get(0))
	if err != nil {
		t.Fatal(err)
	}
	errs := make(chan error, callers)
	for g := 0; g < callers; g++ {
		go func(g int) {
			_, err := c.Do(get(g))
			errs <- err
		}(g)
	}
	// Every frame has reached the peer: every caller has sent and is
	// waiting for its reply.
	waitFor(t, func() bool { return received.Load() == int64(callers*len(frame)) }, "every caller's request to arrive")
	c.Close()
	deadline := time.After(time.Second)
	for g := 0; g < callers; g++ {
		select {
		case err := <-errs:
			if err == nil {
				t.Fatal("a caller got a reply from a peer that never answers")
			}
		case <-deadline:
			t.Fatalf("%d of %d callers still waiting 1 s after Close", callers-g, callers)
		}
	}
	if _, err := c.Do(&proto.Request{Kind: proto.KindPing}); err != ErrClientClosed {
		t.Fatalf("Do after Close: %v, want ErrClientClosed", err)
	}
}

// TestInternBudgetServerWide: connections churning unique keys share
// one intern budget. However many connections there are, the server
// holds at most maxIntern strings, and a connection hands its share
// back when it closes.
func TestInternBudgetServerWide(t *testing.T) {
	svc := newService(t, shard.Config{Shards: 2})
	defer svc.Close()
	srv := startServer(t, svc, Config{})
	defer srv.Close()
	const (
		conns   = 8
		perConn = maxIntern/conns + 1000 // together well past the budget
	)
	var wg sync.WaitGroup
	errs := make(chan error, conns)
	peak := make(chan int64, 1)
	stopPeak := make(chan struct{})
	go func() {
		var most int64
		for {
			if n := srv.interned.Load(); n > most {
				most = n
			}
			select {
			case <-stopPeak:
				peak <- most
				return
			default:
				time.Sleep(100 * time.Microsecond)
			}
		}
	}()
	for g := 0; g < conns; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			nc, err := net.Dial("tcp", srv.Addr())
			if err != nil {
				errs <- err
				return
			}
			defer nc.Close()
			// Pipelined gets of never-seen keys: each interns one new
			// string (the tenant is shared).
			var frames []byte
			for i := 0; i < perConn; i++ {
				q := proto.Request{ID: uint64(i + 1), Kind: proto.KindGet, Tenant: []byte("t"), Key: []byte(fmt.Sprintf("c%d-key%06d", g, i))}
				if frames, err = proto.AppendRequest(frames, &q); err != nil {
					errs <- err
					return
				}
			}
			go nc.Write(frames)
			fr := proto.NewFrameReader(nc, 0)
			var p proto.Response
			for i := 0; i < perConn; i++ {
				payload, err := fr.Next()
				if err == nil {
					err = proto.DecodeResponse(payload, &p)
				}
				// A key is interned whatever the reply; a full shard
				// queue answers RETRY_AFTER.
				if err == nil && p.Status != proto.StatusOK && p.Status != proto.StatusRetryAfter {
					err = fmt.Errorf("status %v", p.Status)
				}
				if err != nil {
					errs <- fmt.Errorf("conn %d reply %d: %v", g, i, err)
					return
				}
			}
			if n := srv.interned.Load(); n > maxIntern {
				errs <- fmt.Errorf("%d strings interned, budget %d", n, maxIntern)
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	close(stopPeak)
	if most := <-peak; most > maxIntern || most < maxIntern/2 {
		t.Errorf("peak interned strings %d; want the budget %d reached and never passed", most, maxIntern)
	}
	waitFor(t, func() bool { return srv.Stats().OpenConns == 0 }, "connections to close")
	if n := srv.interned.Load(); n != 0 {
		t.Fatalf("%d interned strings still counted after every connection closed", n)
	}
}
