package netsvc

import (
	"errors"
	"fmt"
	"net"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"memsnap/internal/proto"
	"memsnap/internal/shard"
)

// wireCounts counts the Read and Write calls one side of a connection
// makes on its socket — each is a syscall on a real one — and how often
// it moves the write deadline.
type wireCounts struct{ reads, writes, deadlines atomic.Int64 }

// countingConn is a TCP connection that counts its Read and Write
// calls. Embedding the concrete type keeps CloseRead, so a server
// holding one still drains gracefully.
type countingConn struct {
	*net.TCPConn
	n *wireCounts
}

func (c countingConn) Read(p []byte) (int, error) {
	c.n.reads.Add(1)
	return c.TCPConn.Read(p)
}

func (c countingConn) Write(p []byte) (int, error) {
	c.n.writes.Add(1)
	return c.TCPConn.Write(p)
}

func (c countingConn) SetWriteDeadline(t time.Time) error {
	c.n.deadlines.Add(1)
	return c.TCPConn.SetWriteDeadline(t)
}

// countingListener hands the server counting connections.
type countingListener struct {
	net.Listener
	n *wireCounts
}

func (l countingListener) Accept() (net.Conn, error) {
	nc, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{nc.(*net.TCPConn), l.n}, nil
}

// countedPair is a loopback server and one client of the given depth,
// both on counting connections.
type countedPair struct {
	svc      *shard.Service
	srv      *Server
	c        *Client
	cli, ser wireCounts
}

func newCountedPair(tb testing.TB, depth int) *countedPair {
	tb.Helper()
	p := &countedPair{}
	p.svc = newService(tb, shard.Config{Shards: 2})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	p.srv = serve(countingListener{ln, &p.ser}, p.svc, Config{MaxInFlight: depth})
	nc, err := net.Dial("tcp", p.srv.Addr())
	if err != nil {
		tb.Fatal(err)
	}
	p.c = newClient(countingConn{nc.(*net.TCPConn), &p.cli}, depth)
	return p
}

func (p *countedPair) close() {
	p.c.Close()
	p.srv.Close()
	p.svc.Close()
}

// run issues n requests of the given kind from callers goroutines,
// each a closed loop over its own key, and returns the Read and Write
// calls per request on the client and server sockets.
func (p *countedPair) run(tb testing.TB, kind proto.Kind, callers, n int) (cliR, cliW, serR, serW float64) {
	tb.Helper()
	cr, cw, sr, sw := p.cli.reads.Load(), p.cli.writes.Load(), p.ser.reads.Load(), p.ser.writes.Load()
	var wg sync.WaitGroup
	errs := make([]error, callers)
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			q := proto.Request{Kind: kind, Tenant: []byte("t"), Key: []byte(fmt.Sprintf("key%02d", g)), Value: 1}
			for i := g; i < n; i += callers {
				if resp, err := p.c.Do(&q); err != nil || resp.Status != proto.StatusOK {
					errs[g] = fmt.Errorf("caller %d op %d: %v %v", g, i, resp.Status, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			tb.Fatal(err)
		}
	}
	per := func(a, b int64) float64 { return float64(a-b) / float64(n) }
	return per(p.cli.reads.Load(), cr), per(p.cli.writes.Load(), cw), per(p.ser.reads.Load(), sr), per(p.ser.writes.Load(), sw)
}

// TestPipelinedSyscallsPerRequest pins the batching of the wire in
// both directions: with 16 callers keeping a depth-16 connection full,
// each socket call carries several frames, on all four paths. How many
// depends on how the woken callers are scheduled, so the test runs on
// two processors like the box the benchmark's numbers come from; with
// more, callers run in parallel and fewer of them share a flush.
func TestPipelinedSyscallsPerRequest(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	p := newCountedPair(t, 16)
	defer p.close()
	p.run(t, proto.KindGet, 16, 2000) // warm up: intern tables, buffers
	cliR, cliW, serR, serW := p.run(t, proto.KindGet, 16, 20000)
	t.Logf("per request: client %.3f reads %.3f writes, server %.3f reads %.3f writes", cliR, cliW, serR, serW)
	for _, c := range []struct {
		name string
		got  float64
	}{{"client reads", cliR}, {"client writes", cliW}, {"server reads", serR}, {"server writes", serW}} {
		if c.got > 0.25 {
			t.Errorf("%s: %.3f socket calls per request, want at most 0.25", c.name, c.got)
		}
	}
}

// TestDepthOneWritesOncePerRequest: with a single caller nothing can
// be combined, and nothing is deferred — each request is exactly one
// Write on the client socket and one on the server's. The server's
// write deadline is armed by the first flush and then only pushed out
// as it runs down, not once per request.
func TestDepthOneWritesOncePerRequest(t *testing.T) {
	p := newCountedPair(t, 1)
	defer p.close()
	const n = 500
	start := time.Now()
	_, cliW, _, serW := p.run(t, proto.KindAdd, 1, n)
	if cliW != 1 || serW != 1 {
		t.Fatalf("writes per request: client %v, server %v, want exactly 1 and 1", cliW, serW)
	}
	most := 1 + int64(time.Since(start)/(writeTimeout/2))
	if d := p.ser.deadlines.Load(); d < 1 || d > most {
		t.Fatalf("server moved its write deadline %d times over %d requests, want 1 to %d", d, n, most)
	}
}

// TestLoneRequestOnDeepClient: a single Do on an idle depth-16 client
// completes — the flusher never waits for company.
func TestLoneRequestOnDeepClient(t *testing.T) {
	p := newCountedPair(t, 16)
	defer p.close()
	for i := 0; i < 100; i++ {
		done := make(chan error, 1)
		go func() {
			_, err := p.c.Do(&proto.Request{Kind: proto.KindPing})
			done <- err
		}()
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("lone request %d still waiting: its frame was left in the pending buffer", i)
		}
	}
	if w := p.cli.writes.Load(); w != 100 {
		t.Fatalf("%d client writes for 100 lone requests, want 100", w)
	}
}

// gatedConn is a connection whose next Write, once armed, reports the
// size of its batch, blocks until released and then fails.
type gatedConn struct {
	net.Conn
	armed   atomic.Bool
	batch   chan int
	release chan struct{}
}

var errInjected = errors.New("injected write failure")

func (c *gatedConn) Write(p []byte) (int, error) {
	if !c.armed.Load() {
		return c.Conn.Write(p)
	}
	c.batch <- len(p)
	<-c.release
	return 0, errInjected
}

// TestFailedFlushFailsEveryCaller: a Write that fails with other
// callers' frames in the batch, and more waiting in the pending
// buffer, must fail all of them — through the closed connection — and
// leave none waiting for a response that cannot come.
func TestFailedFlushFailsEveryCaller(t *testing.T) {
	svc := newService(t, shard.Config{Shards: 2})
	defer svc.Close()
	srv := startServer(t, svc, Config{})
	defer srv.Close()
	nc, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	const callers = 16
	gc := &gatedConn{Conn: nc, batch: make(chan int, callers), release: make(chan struct{})}
	c := newClient(gc, callers)
	defer c.Close()
	if _, err := c.Do(&proto.Request{Kind: proto.KindPing}); err != nil {
		t.Fatal(err)
	}
	frame, err := proto.AppendRequest(nil, &proto.Request{Kind: proto.KindPing})
	if err != nil {
		t.Fatal(err)
	}

	gc.armed.Store(true)
	errs := make(chan error, callers)
	for g := 0; g < callers; g++ {
		go func() {
			_, err := c.Do(&proto.Request{Kind: proto.KindPing})
			errs <- err
		}()
	}
	// One caller is the flusher, blocked in Write with its batch; wait
	// until every other caller's frame is in that batch or pending.
	inWrite := <-gc.batch
	waitFor(t, func() bool {
		c.wbuf.mu.Lock()
		defer c.wbuf.mu.Unlock()
		return inWrite+len(c.wbuf.pending) == callers*len(frame)
	}, "all callers' frames to be queued behind the blocked write")
	close(gc.release)
	for g := 0; g < callers; g++ {
		select {
		case err := <-errs:
			if err == nil {
				t.Fatal("a caller got a response over a connection whose write failed")
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%d of %d callers still waiting after the failed flush", callers-g, callers)
		}
	}
	if _, err := c.Do(&proto.Request{Kind: proto.KindPing}); err == nil {
		t.Fatal("Do succeeded on a client whose connection failed")
	}
	if err := c.Close(); err != nil {
		t.Fatalf("Close after a failed flush = %v, want nil: the socket is closed once", err)
	}
}

// smallSendListener shrinks the send buffer of accepted connections so
// a peer that stops reading wedges the server's writer quickly.
type smallSendListener struct{ net.Listener }

func (l smallSendListener) Accept() (net.Conn, error) {
	nc, err := l.Listener.Accept()
	if err == nil {
		err = nc.(*net.TCPConn).SetWriteBuffer(4 << 10)
	}
	return nc, err
}

// TestDrainWithStalledPeer: a peer that pipelines gets and never reads
// a response blocks the writer's flush once its receive window and the
// send buffer fill. The write deadline must turn that into a broken
// connection, so Close still drains: it returns, and every admitted
// request is accounted for.
func TestDrainWithStalledPeer(t *testing.T) {
	if testing.Short() {
		t.Skip("waits out the write deadline")
	}
	svc := newService(t, shard.Config{Shards: 2})
	defer svc.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	const depth = 32
	srv := serve(smallSendListener{ln}, svc, Config{MaxInFlight: depth})

	nc, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	if err := nc.(*net.TCPConn).SetReadBuffer(4 << 10); err != nil {
		t.Fatal(err)
	}
	// 20000 gets draw ~700 KB of responses, far more than the two small
	// buffers hold. The write blocks while the server is wedged (it
	// stops reading when its in-flight table fills) and finishes once
	// the deadline has broken the connection and responses are dropped.
	var frames []byte
	for i := 0; i < 20000; i++ {
		frames, err = proto.AppendRequest(frames, &proto.Request{ID: uint64(i + 1), Kind: proto.KindGet, Tenant: []byte("t"), Key: []byte("k")})
		if err != nil {
			t.Fatal(err)
		}
	}
	wrote := make(chan error, 1)
	go func() {
		_, err := nc.Write(frames)
		wrote <- err
	}()
	waitFor(t, func() bool { return srv.Stats().InFlight == depth }, "the stalled peer to wedge the writer")

	closed := make(chan error, 1)
	go func() { closed <- srv.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatalf("Close: %v", err)
		}
	case <-time.After(writeTimeout + 10*time.Second):
		t.Fatal("Close still waiting on a peer that stopped reading")
	}
	st := srv.Stats()
	if st.InFlight != 0 || st.Requests != st.Responses || st.OpenConns != 0 {
		t.Fatalf("after drain: in-flight %d, requests %d, responses %d, open connections %d",
			st.InFlight, st.Requests, st.Responses, st.OpenConns)
	}
	nc.Close()
	<-wrote
}

// TestDrainWithStalledLonePeer: a depth-1 peer that sends its requests
// one at a time and never reads. Each request is lone, so the reader
// answers it and flushes the reply itself, until the buffers fill and
// the reader's own Write blocks. The write deadline must break the
// connection there too: Close returns within writeTimeout plus slack,
// and every request is accounted for.
func TestDrainWithStalledLonePeer(t *testing.T) {
	if testing.Short() {
		t.Skip("waits out the write deadline")
	}
	svc := newService(t, shard.Config{Shards: 2})
	defer svc.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := serve(smallSendListener{ln}, svc, Config{})
	// The receive buffer is set before connecting, so the peer never
	// advertises more window than it has room for. Shrunk after the
	// handshake, it would drop replies already in flight, and with them
	// the acks for its own requests: the next request would sit in
	// retransmission backoff instead of reaching the reader.
	d := net.Dialer{Control: func(_, _ string, rc syscall.RawConn) error {
		var serr error
		err := rc.Control(func(fd uintptr) {
			serr = syscall.SetsockoptInt(int(fd), syscall.SOL_SOCKET, syscall.SO_RCVBUF, 4<<10)
		})
		if err != nil {
			return err
		}
		return serr
	}}
	nc, err := d.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	var c *conn
	waitFor(t, func() bool {
		srv.mu.Lock()
		defer srv.mu.Unlock()
		for sc := range srv.conns {
			c = sc
		}
		return c != nil
	}, "the server to accept the peer")
	inWrite := func() bool {
		c.wbuf.mu.Lock()
		defer c.wbuf.mu.Unlock()
		return c.wbuf.flushing
	}
	// Send request n+1 only once request n is counted, so the reader
	// never holds a second frame, until the reader has stayed in one
	// flush for 100 ms.
	var frame []byte
	for id := int64(1); ; id++ {
		frame, err = proto.AppendRequest(frame[:0], &proto.Request{ID: uint64(id), Kind: proto.KindGet, Tenant: []byte("t"), Key: []byte("k")})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := nc.Write(frame); err != nil {
			t.Fatal(err)
		}
		waitFor(t, func() bool { return srv.Stats().Requests == id || inWrite() }, "the request to be counted")
		stuck := true
		for end := time.Now().Add(100 * time.Millisecond); stuck && time.Now().Before(end); time.Sleep(time.Millisecond) {
			stuck = inWrite()
		}
		if stuck {
			t.Logf("the reader's flush blocked at request %d", id)
			break
		}
	}
	// Every admitted request is answered and nothing is queued: the
	// blocked Write is the reader's lone flush, not the writer's.
	if st := srv.Stats(); st.InFlight != 0 || st.Requests != st.Responses {
		t.Fatalf("reader wedged with in-flight %d, requests %d, responses %d", st.InFlight, st.Requests, st.Responses)
	}

	closed := make(chan error, 1)
	go func() { closed <- srv.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatalf("Close: %v", err)
		}
	case <-time.After(writeTimeout + 10*time.Second):
		t.Fatal("Close still waiting on a lone peer that stopped reading")
	}
	c.wbuf.mu.Lock()
	broken := c.wbuf.broken
	c.wbuf.mu.Unlock()
	if !errors.Is(broken, os.ErrDeadlineExceeded) {
		t.Fatalf("the connection broke with %v, want the write deadline", broken)
	}
	if st := srv.Stats(); st.InFlight != 0 || st.Requests != st.Responses || st.OpenConns != 0 {
		t.Fatalf("after drain: in-flight %d, requests %d, responses %d, open connections %d",
			st.InFlight, st.Requests, st.Responses, st.OpenConns)
	}
}

// failingListener hands the server connections whose every Write
// fails, with a small receive buffer so what the peer has already sent
// is read quickly. failed is closed at the first failed Write.
type failingListener struct {
	net.Listener
	failed chan struct{}
	once   *sync.Once
}

type failingConn struct {
	*net.TCPConn
	l failingListener
}

func (l failingListener) Accept() (net.Conn, error) {
	nc, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	tc := nc.(*net.TCPConn)
	if err := tc.SetReadBuffer(4 << 10); err != nil {
		return nil, err
	}
	return failingConn{tc, l}, nil
}

func (c failingConn) Write(p []byte) (int, error) {
	c.l.once.Do(func() { close(c.l.failed) })
	return 0, errInjected
}

// TestBrokenWriterStopsReader: once a connection's writer has failed,
// nobody reads its answers, so its reader must stop admitting the
// peer's requests — reading and executing them is shard time burned for
// nobody. A peer keeps pipelining gets into a connection whose every
// Write fails: after the failure the server's request count must stop
// growing, and Close must drain.
func TestBrokenWriterStopsReader(t *testing.T) {
	svc := newService(t, shard.Config{Shards: 2})
	defer svc.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fl := failingListener{Listener: ln, failed: make(chan struct{}), once: new(sync.Once)}
	srv := serve(fl, svc, Config{MaxInFlight: 16})
	nc, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	sent := make(chan struct{})
	go func() {
		defer close(sent)
		var frames []byte
		for id := uint64(1); ; {
			frames = frames[:0]
			for i := 0; i < 64; i, id = i+1, id+1 {
				frames, _ = proto.AppendRequest(frames, &proto.Request{ID: id, Kind: proto.KindGet, Tenant: []byte("t"), Key: []byte("k")})
			}
			if _, err := nc.Write(frames); err != nil {
				return // the server hung up, or the test closed nc
			}
		}
	}()
	select {
	case <-fl.failed:
	case <-time.After(5 * time.Second):
		t.Fatal("the server never wrote a response")
	}
	// What the peer already sent may still be read; after that, nothing.
	const window = 200 * time.Millisecond
	prev := srv.Stats().Requests
	for deadline := time.Now().Add(5 * time.Second); ; {
		time.Sleep(window)
		cur := srv.Stats().Requests
		if cur == prev {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("the reader kept admitting requests after the writer failed: %d → %d in the last %v", prev, cur, window)
		}
		prev = cur
	}
	closed := make(chan error, 1)
	go func() { closed <- srv.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatalf("Close: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Close still waiting after the writer failed")
	}
	if st := srv.Stats(); st.InFlight != 0 || st.Requests != st.Responses || st.OpenConns != 0 {
		t.Fatalf("after drain: in-flight %d, requests %d, responses %d, open connections %d",
			st.InFlight, st.Requests, st.Responses, st.OpenConns)
	}
	nc.Close()
	<-sent
}

func benchLoopback(b *testing.B, kind proto.Kind, depth int) {
	p := newCountedPair(b, depth)
	defer p.close()
	p.run(b, kind, depth, 2000)
	b.ReportAllocs()
	b.ResetTimer()
	cliR, cliW, serR, serW := p.run(b, kind, depth, b.N)
	b.StopTimer()
	b.ReportMetric(cliW+serW, "writes/op")
	b.ReportMetric(cliR+serR, "reads/op")
}

// BenchmarkLoopbackGetD16 is the net_get95_d16 shape at layer scale:
// 16 callers on one depth-16 connection, gets only.
func BenchmarkLoopbackGetD16(b *testing.B) { benchLoopback(b, proto.KindGet, 16) }

// BenchmarkLoopbackAddD1 is the net_write_d1 shape: one caller, every
// op a lone round trip and its own commit.
func BenchmarkLoopbackAddD1(b *testing.B) { benchLoopback(b, proto.KindAdd, 1) }
