package netsvc

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"memsnap/internal/core"
	"memsnap/internal/proto"
	"memsnap/internal/shard"
)

func newService(t testing.TB, cfg shard.Config) *shard.Service {
	t.Helper()
	cpus := cfg.Shards
	if cpus <= 0 {
		cpus = 8
	}
	sys, err := core.NewSystem(core.Options{CPUs: cpus, DiskBytesEach: 512 << 20})
	if err != nil {
		t.Fatal(err)
	}
	svc, err := shard.New(sys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return svc
}

func startServer(t *testing.T, svc *shard.Service, cfg Config) *Server {
	t.Helper()
	srv, err := Serve("127.0.0.1:0", svc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// TestEndToEnd exercises every op kind through a real TCP round trip.
func TestEndToEnd(t *testing.T) {
	svc := newService(t, shard.Config{Shards: 4})
	defer svc.Close()
	srv := startServer(t, svc, Config{})
	defer srv.Close()

	c, err := Dial(srv.Addr(), 8)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	do := func(q proto.Request) proto.Response {
		t.Helper()
		p, err := c.Do(&q)
		if err != nil {
			t.Fatalf("kind %d: %v", q.Kind, err)
		}
		return p
	}

	if p := do(proto.Request{Kind: proto.KindPing}); p.Status != proto.StatusOK {
		t.Fatalf("ping status = %v", p.Status)
	}
	p := do(proto.Request{Kind: proto.KindPut, Tenant: []byte("acme"), Key: []byte("alpha"), Value: 100})
	if p.Status != proto.StatusOK || p.Epoch == 0 {
		t.Fatalf("put = %+v, want OK with nonzero durable epoch", p)
	}
	p = do(proto.Request{Kind: proto.KindGet, Tenant: []byte("acme"), Key: []byte("alpha")})
	if p.Status != proto.StatusOK || !p.Found || p.Value != 100 {
		t.Fatalf("get = %+v, want Found 100", p)
	}
	// Tenants namespace keys.
	if p = do(proto.Request{Kind: proto.KindGet, Tenant: []byte("globex"), Key: []byte("alpha")}); p.Found {
		t.Fatal("tenant namespaces leak over the wire")
	}
	if p = do(proto.Request{Kind: proto.KindAdd, Tenant: []byte("acme"), Key: []byte("alpha"), Value: 11}); p.Value != 111 {
		t.Fatalf("add = %+v, want 111", p)
	}
	if p = do(proto.Request{Kind: proto.KindDelete, Tenant: []byte("acme"), Key: []byte("alpha")}); !p.Found || p.Value != 111 {
		t.Fatalf("delete = %+v, want Found 111", p)
	}
	if p = do(proto.Request{Kind: proto.KindGet, Tenant: []byte("acme"), Key: []byte("alpha")}); p.Found {
		t.Fatal("key survives delete")
	}
	// Transfer between co-sharded keys (find a pair on one shard).
	tenant := "bank"
	from, to := "", ""
	for i := 0; to == "" && i < 1000; i++ {
		k := fmt.Sprintf("acct%03d", i)
		if from == "" {
			from = k
			continue
		}
		if svc.ShardOf(tenant, k) == svc.ShardOf(tenant, from) {
			to = k
		}
	}
	if to == "" {
		t.Fatal("no co-sharded key pair found")
	}
	do(proto.Request{Kind: proto.KindPut, Tenant: []byte(tenant), Key: []byte(from), Value: 50})
	p = do(proto.Request{Kind: proto.KindTransfer, Tenant: []byte(tenant), Key: []byte(from), Key2: []byte(to), Value: 20})
	if p.Status != proto.StatusOK || p.Value != 30 {
		t.Fatalf("transfer = %+v, want OK remaining 30", p)
	}
	// Semantic errors come back as statuses on a healthy connection.
	if p = do(proto.Request{Kind: proto.KindTransfer, Tenant: []byte(tenant), Key: []byte(from), Key2: []byte(to), Value: 9999}); p.Status != proto.StatusInsufficient {
		t.Fatalf("overdraft status = %v, want insufficient", p.Status)
	}
	long := bytes.Repeat([]byte("k"), shard.MaxKeyLen+1)
	if p = do(proto.Request{Kind: proto.KindGet, Tenant: []byte("t"), Key: long}); p.Status != proto.StatusKeyTooLong {
		t.Fatalf("long-key status = %v, want key_too_long", p.Status)
	}

	st := srv.Stats()
	if st.Requests == 0 || st.Requests != st.Responses {
		t.Errorf("requests %d != responses %d", st.Requests, st.Responses)
	}
	if st.BytesIn == 0 || st.BytesOut == 0 {
		t.Errorf("bytes in/out = %d/%d, want nonzero", st.BytesIn, st.BytesOut)
	}
	if st.Accepted != 1 || st.OpenConns != 1 {
		t.Errorf("accepted/open = %d/%d, want 1/1", st.Accepted, st.OpenConns)
	}
	if st.OpLatency.Count != st.Responses {
		t.Errorf("latency samples %d != responses %d", st.OpLatency.Count, st.Responses)
	}
}

// TestStatsJSONCarriesOpLatency: the JSON form of Stats (what /varz and
// flight bundles carry) includes the request latency summary, and once
// the server is quiet it has counted exactly one sample per response.
func TestStatsJSONCarriesOpLatency(t *testing.T) {
	svc := newService(t, shard.Config{Shards: 2})
	defer svc.Close()
	srv := startServer(t, svc, Config{})
	defer srv.Close()
	c, err := Dial(srv.Addr(), 4)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 20; i++ {
		q := proto.Request{Kind: proto.KindAdd, Tenant: []byte("t"), Key: []byte(fmt.Sprintf("k%d", i%5)), Value: 1}
		if _, err := c.Do(&q); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for st := srv.Stats(); st.InFlight != 0 || st.Requests != st.Responses; st = srv.Stats() {
		if time.Now().After(deadline) {
			t.Fatalf("server never went quiet: %+v", st)
		}
		time.Sleep(time.Millisecond)
	}
	raw, err := json.Marshal(srv.Stats())
	if err != nil {
		t.Fatal(err)
	}
	var got struct {
		Responses int64 `json:"responses"`
		OpLatency struct {
			Count int64 `json:"count"`
		} `json:"op_latency"`
	}
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	if got.Responses < 20 || got.OpLatency.Count != got.Responses {
		t.Fatalf("op_latency.count %d, responses %d (want equal, at least 20): %s", got.OpLatency.Count, got.Responses, raw)
	}
}

// TestPipelinedOutOfOrder drives raw frames: many requests written
// back-to-back, responses collected in whatever order durability acks
// land. Every id must be answered exactly once with the right value.
func TestPipelinedOutOfOrder(t *testing.T) {
	svc := newService(t, shard.Config{Shards: 4})
	defer svc.Close()
	srv := startServer(t, svc, Config{MaxInFlight: 128})
	defer srv.Close()

	nc, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()

	const n = 100
	var frames []byte
	for i := 0; i < n; i++ {
		q := proto.Request{
			ID:     uint64(i + 1),
			Kind:   proto.KindPut,
			Tenant: []byte("t"),
			Key:    []byte(fmt.Sprintf("key%03d", i)),
			Value:  uint64(i),
		}
		frames, err = proto.AppendRequest(frames, &q)
		if err != nil {
			t.Fatal(err)
		}
	}
	if _, err := nc.Write(frames); err != nil {
		t.Fatal(err)
	}
	fr := proto.NewFrameReader(nc, 0)
	got := map[uint64]uint64{}
	var p proto.Response
	for len(got) < n {
		payload, err := fr.Next()
		if err != nil {
			t.Fatalf("after %d responses: %v", len(got), err)
		}
		if err := proto.DecodeResponse(payload, &p); err != nil {
			t.Fatal(err)
		}
		if p.Status != proto.StatusOK {
			t.Fatalf("id %d: status %v", p.ID, p.Status)
		}
		if _, dup := got[p.ID]; dup {
			t.Fatalf("id %d answered twice", p.ID)
		}
		got[p.ID] = p.Value
	}
	for i := 0; i < n; i++ {
		if got[uint64(i+1)] != uint64(i) {
			t.Fatalf("id %d value = %d, want %d", i+1, got[uint64(i+1)], i)
		}
	}
	// All slots must be free again.
	if st := srv.Stats(); st.InFlight != 0 {
		t.Errorf("in-flight = %d after all responses", st.InFlight)
	}
}

// TestDuplicateInFlightID: reusing an id while it is in flight is a
// protocol violation that closes the connection.
func TestDuplicateInFlightID(t *testing.T) {
	svc := newService(t, shard.Config{Shards: 2})
	defer svc.Close()
	srv := startServer(t, svc, Config{})
	defer srv.Close()

	nc, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	var frames []byte
	for i := 0; i < 2; i++ {
		q := proto.Request{ID: 7, Kind: proto.KindPut, Tenant: []byte("t"), Key: []byte("k"), Value: 1}
		frames, err = proto.AppendRequest(frames, &q)
		if err != nil {
			t.Fatal(err)
		}
	}
	if _, err := nc.Write(frames); err != nil {
		t.Fatal(err)
	}
	// The server answers the first and then drops the connection; the
	// reader sees at most one response followed by EOF.
	fr := proto.NewFrameReader(nc, 0)
	responses := 0
	for {
		_, err := fr.Next()
		if err != nil {
			break
		}
		responses++
	}
	if responses > 1 {
		t.Fatalf("got %d responses to a duplicate-id pair, want at most 1", responses)
	}
	waitFor(t, func() bool { return srv.Stats().BadFrames == 1 }, "bad-frame count")
}

// TestBadFrameClosesConn: garbage framing closes the connection and
// counts a bad frame, without touching the shard service.
func TestBadFrameClosesConn(t *testing.T) {
	svc := newService(t, shard.Config{Shards: 2})
	defer svc.Close()
	srv := startServer(t, svc, Config{})
	defer srv.Close()

	nc, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	// Oversized length prefix: refused before any allocation.
	if _, err := nc.Write([]byte{0xff, 0xff, 0xff, 0xff}); err != nil {
		t.Fatal(err)
	}
	if buf := make([]byte, 1); readEOF(nc, buf) != io.EOF {
		t.Fatal("connection survived an oversized frame prefix")
	}
	waitFor(t, func() bool { return srv.Stats().BadFrames == 1 }, "bad-frame count")
}

func readEOF(nc net.Conn, buf []byte) error {
	for {
		_, err := nc.Read(buf)
		if err != nil {
			return err
		}
	}
}

// gate is a Replicator whose ShipCommit blocks until released,
// deterministically wedging a shard worker mid-retire so its queue
// fills and backpressure surfaces on the wire.
type gate struct {
	release chan struct{}
}

func (g *gate) ShipCommit(shardID int, at time.Duration, c shard.Commit, snap func() shard.Snapshot) (time.Duration, error) {
	<-g.release
	if c.Owned {
		core.ReleasePages(c.Pages)
	}
	return at, nil
}

// waitFor polls cond with a deadline. Wall-clock waiting is fine here:
// the test coordinates with real goroutines, not virtual time.
func waitFor(t *testing.T, cond func() bool, what string) {
	t.Helper()
	for i := 0; i < 2000; i++ {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestRetryAfterOnTheWire pins the acceptance criterion: a full-queue
// shard answers RETRY_AFTER on the wire (connection stays open), and
// the client's retry path resends until the op succeeds.
func TestRetryAfterOnTheWire(t *testing.T) {
	g := &gate{release: make(chan struct{})}
	svc := newService(t, shard.Config{Shards: 1, QueueDepth: 2, BatchSize: 1, Replicator: g})
	defer svc.Close()
	srv := startServer(t, svc, Config{MaxInFlight: 16, RetryAfter: 100 * time.Microsecond})
	defer srv.Close()

	c, err := Dial(srv.Addr(), 16)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// 8 concurrent puts against one shard with queue depth 2 and a
	// wedged worker: the overflow must come back as RETRY_AFTER, and
	// the retry loop must carry every op to completion once released.
	const puts = 8
	var wg sync.WaitGroup
	errs := make([]error, puts)
	resps := make([]proto.Response, puts)
	for i := 0; i < puts; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			q := proto.Request{Kind: proto.KindPut, Tenant: []byte("t"), Key: []byte(fmt.Sprintf("k%d", i)), Value: uint64(i + 1)}
			resps[i], errs[i] = c.Do(&q)
		}(i)
	}
	// Backpressure must surface while the gate is held.
	waitFor(t, func() bool { return srv.Stats().RetryAfter > 0 }, "RETRY_AFTER on the wire")
	close(g.release)
	wg.Wait()
	for i := 0; i < puts; i++ {
		if errs[i] != nil {
			t.Fatalf("put %d: %v (connection must survive backpressure)", i, errs[i])
		}
		if resps[i].Status != proto.StatusOK {
			t.Fatalf("put %d status = %v", i, resps[i].Status)
		}
	}
	if c.Retries() == 0 {
		t.Fatal("client retry path not exercised")
	}
	if st := srv.Stats(); st.RetryAfter == 0 {
		t.Fatal("server did not count RETRY_AFTER responses")
	}
	// The connection survived: a fresh op still works.
	p, err := c.Do(&proto.Request{Kind: proto.KindGet, Tenant: []byte("t"), Key: []byte("k0")})
	if err != nil || !p.Found || p.Value != 1 {
		t.Fatalf("post-backpressure get = %+v, %v", p, err)
	}
}

// TestGracefulDrain: server Close with pipelined writes still in
// flight completes every admitted request with its real durable
// outcome before the connections go away.
func TestGracefulDrain(t *testing.T) {
	g := &gate{release: make(chan struct{})}
	svc := newService(t, shard.Config{Shards: 1, QueueDepth: 16, BatchSize: 1, Replicator: g})
	defer svc.Close()
	srv := startServer(t, svc, Config{MaxInFlight: 16})

	c, err := Dial(srv.Addr(), 8)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// 6 puts, all admitted (queue depth 16), wedged behind the gate.
	const puts = 6
	var wg sync.WaitGroup
	errs := make([]error, puts)
	resps := make([]proto.Response, puts)
	for i := 0; i < puts; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			q := proto.Request{Kind: proto.KindPut, Tenant: []byte("t"), Key: []byte(fmt.Sprintf("k%d", i)), Value: uint64(i + 1)}
			resps[i], errs[i] = c.Do(&q)
		}(i)
	}
	waitFor(t, func() bool { return srv.Stats().InFlight == puts }, "puts in flight")

	// Drain while all 6 are outstanding. Close blocks until they are
	// answered, so release the gate from the side.
	closed := make(chan error, 1)
	go func() { closed <- srv.Close() }()
	close(g.release)
	if err := <-closed; err != nil {
		t.Fatalf("Close: %v", err)
	}
	wg.Wait()
	for i := 0; i < puts; i++ {
		if errs[i] != nil {
			t.Fatalf("draining lost put %d: %v", i, errs[i])
		}
		if resps[i].Status != proto.StatusOK || resps[i].Epoch == 0 {
			t.Fatalf("drained put %d = %+v, want durable OK", i, resps[i])
		}
	}
	st := srv.Stats()
	if st.Requests != st.Responses {
		t.Errorf("drain left requests %d != responses %d", st.Requests, st.Responses)
	}
	if st.OpenConns != 0 {
		t.Errorf("open connections after drain = %d", st.OpenConns)
	}
	// Durability check: the writes really landed in the shard.
	for i := 0; i < puts; i++ {
		v, ok, err := svc.Get("t", fmt.Sprintf("k%d", i))
		if err != nil || !ok || v != uint64(i+1) {
			t.Fatalf("k%d = %d, %v, %v after drain", i, v, ok, err)
		}
	}
}

// TestServiceClosedStatus: ops against a closed shard service come
// back as StatusClosed on a live connection (server outliving service).
func TestServiceClosedStatus(t *testing.T) {
	svc := newService(t, shard.Config{Shards: 2})
	srv := startServer(t, svc, Config{})
	defer srv.Close()

	c, err := Dial(srv.Addr(), 2)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	p, err := c.Do(&proto.Request{Kind: proto.KindPut, Tenant: []byte("t"), Key: []byte("k"), Value: 1})
	if err != nil {
		t.Fatal(err)
	}
	if p.Status != proto.StatusClosed {
		t.Fatalf("status = %v, want closed", p.Status)
	}
	// Ping bypasses the shard service and still works.
	if p, err = c.Do(&proto.Request{Kind: proto.KindPing}); err != nil || p.Status != proto.StatusOK {
		t.Fatalf("ping on closed service = %+v, %v", p, err)
	}
}
