package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"memsnap/internal/sim"
)

// get performs one GET over a fresh loopback connection and returns
// the status code and body.
func get(t *testing.T, addr, path string) (int, []byte) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, "GET %s HTTP/1.0\r\nHost: test\r\n\r\n", path)
	br := bufio.NewReader(conn)
	status, err := br.ReadString('\n')
	if err != nil {
		t.Fatalf("reading status line: %v", err)
	}
	var proto string
	var code int
	if _, err := fmt.Sscanf(status, "%s %d", &proto, &code); err != nil {
		t.Fatalf("bad status line %q: %v", status, err)
	}
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			t.Fatalf("reading headers: %v", err)
		}
		if line == "\r\n" || line == "\n" {
			break
		}
	}
	body, err := io.ReadAll(br)
	if err != nil {
		t.Fatalf("reading body: %v", err)
	}
	return code, body
}

func TestServerEndpoints(t *testing.T) {
	clk := sim.NewClock()
	clk.Advance(1500 * time.Millisecond)
	rec := NewRecorder(64)
	rec.Span(CatShard, NameGroupCommit, ShardTrack(0), time.Millisecond, time.Millisecond, 3)
	rec.Instant(CatVM, NameTrackingFault, ShardTrack(0), 2*time.Millisecond, 7)

	srv, err := Serve("127.0.0.1:0", ServerSources{
		Metrics: func(w io.Writer) error {
			_, err := io.WriteString(w, "# HELP memsnap_up 1 when serving\n# TYPE memsnap_up gauge\nmemsnap_up 1\n")
			return err
		},
		Vars:  func() any { return map[string]int64{"commits": 42} },
		Trace: func() []Event { return rec.Drain() },
		Clock: clk,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	code, body := get(t, srv.Addr(), "/metricz")
	if code != 200 || !bytes.Contains(body, []byte("memsnap_up 1")) {
		t.Errorf("/metricz = %d %q", code, body)
	}

	code, body = get(t, srv.Addr(), "/varz")
	if code != 200 {
		t.Fatalf("/varz = %d %q", code, body)
	}
	var varz struct {
		VirtualSeconds float64          `json:"virtual_now_seconds"`
		Vars           map[string]int64 `json:"vars"`
	}
	if err := json.Unmarshal(body, &varz); err != nil {
		t.Fatalf("/varz is not valid JSON: %v\n%s", err, body)
	}
	if varz.VirtualSeconds != 1.5 {
		t.Errorf("virtual_now_seconds = %v, want 1.5", varz.VirtualSeconds)
	}
	if varz.Vars["commits"] != 42 {
		t.Errorf("vars = %v, want commits:42", varz.Vars)
	}

	code, body = get(t, srv.Addr(), "/tracez")
	if code != 200 {
		t.Fatalf("/tracez = %d %q", code, body)
	}
	var trace struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(body, &trace); err != nil {
		t.Fatalf("/tracez is not valid JSON: %v\n%s", err, body)
	}
	// Metadata lane + span + instant.
	if len(trace.TraceEvents) != 3 {
		t.Errorf("/tracez events = %d, want 3\n%s", len(trace.TraceEvents), body)
	}
	// The drain emptied the ring: a second scrape returns a valid empty
	// trace.
	code, body = get(t, srv.Addr(), "/tracez")
	if code != 200 {
		t.Fatalf("second /tracez = %d", code)
	}
	if err := json.Unmarshal(body, &trace); err != nil || len(trace.TraceEvents) != 0 {
		t.Errorf("second /tracez = %v events (err %v), want empty valid JSON", len(trace.TraceEvents), err)
	}

	code, _ = get(t, srv.Addr(), "/nope")
	if code != 404 {
		t.Errorf("/nope = %d, want 404", code)
	}
}

func TestServerNoSources(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", ServerSources{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if code, _ := get(t, srv.Addr(), "/metricz"); code != 404 {
		t.Errorf("/metricz without source = %d, want 404", code)
	}
	code, body := get(t, srv.Addr(), "/varz")
	if code != 200 || !strings.Contains(string(body), `"virtual_now_seconds": 0`) {
		t.Errorf("/varz without sources = %d %q", code, body)
	}
	code, body = get(t, srv.Addr(), "/tracez")
	if code != 200 || !bytes.Contains(body, []byte("traceEvents")) {
		t.Errorf("/tracez without sources = %d %q", code, body)
	}
}

func TestServerBadRequest(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", ServerSources{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, "POST /metricz HTTP/1.0\r\n\r\n")
	resp, _ := io.ReadAll(conn)
	if !bytes.Contains(resp, []byte("400")) {
		t.Errorf("POST response = %q, want 400", resp)
	}
}

func TestServerCloseIdempotent(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", ServerSources{})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("second Close = %v, want nil", err)
	}
	if _, err := net.Dial("tcp", srv.Addr()); err == nil {
		t.Error("listener still accepting after Close")
	}
}

// stallPeers opens n connections to addr that never finish a request:
// every other one sends half a request line, the rest send nothing.
func stallPeers(t *testing.T, addr string, n int) []net.Conn {
	t.Helper()
	conns := make([]net.Conn, n)
	for i := range conns {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		if i%2 == 0 {
			io.WriteString(c, "GET /metr")
		}
		conns[i] = c
	}
	return conns
}

// expectClosed requires the server to have closed every peer by
// deadline: its reads reach EOF rather than timing out. A peer that
// sent half a request may get a 400 first.
func expectClosed(t *testing.T, conns []net.Conn, deadline time.Time) {
	t.Helper()
	for i, c := range conns {
		c.SetReadDeadline(deadline)
		resp, err := io.ReadAll(c)
		if err != nil {
			t.Fatalf("peer %d: %v; want EOF from the server closing it", i, err)
		}
		if len(resp) > 0 && !bytes.Contains(resp, []byte(" 400 ")) {
			t.Errorf("peer %d: got %q, want nothing or a 400", i, resp)
		}
	}
}

// waitGoroutines polls until at most want goroutines run or deadline
// passes, and reports the last count.
func waitGoroutines(want int, deadline time.Time) int {
	for {
		n := runtime.NumGoroutine()
		if n <= want || time.Now().After(deadline) {
			return n
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestServerShedsStalledPeers holds the header deadline: peers that
// stall mid-request or never send one are disconnected within it, and
// the goroutines serving them go too. Close with stalled peers still
// connected returns at once.
func TestServerShedsStalledPeers(t *testing.T) {
	const peers = 50
	slack := 1500 * time.Millisecond
	// Baseline before Serve: the server may keep its accept goroutine.
	base := runtime.NumGoroutine() + 1

	srv, err := Serve("127.0.0.1:0", ServerSources{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	start := time.Now()
	conns := stallPeers(t, srv.Addr(), peers)
	expectClosed(t, conns, start.Add(headerTimeout+slack))
	if n := waitGoroutines(base, start.Add(headerTimeout+2*slack)); n > base {
		t.Errorf("%d goroutines after the header deadline, want at most %d", n, base)
	}

	srv2, err := Serve("127.0.0.1:0", ServerSources{})
	if err != nil {
		t.Fatal(err)
	}
	conns = stallPeers(t, srv2.Addr(), peers)
	time.Sleep(100 * time.Millisecond) // let the server accept them
	start = time.Now()
	if err := srv2.Close(); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took > headerTimeout/4 {
		t.Errorf("Close with %d stalled peers took %v", peers, took)
	}
	expectClosed(t, conns, time.Now().Add(slack))
}

// TestServerShedsStalledReaders holds the write deadline: a peer that
// sends a whole GET /tracez for a trace larger than the socket buffers
// hold and never reads past the status line holds the goroutine
// serving it only until the deadline.
func TestServerShedsStalledReaders(t *testing.T) {
	events := make([]Event, 80_000) // about 8.5 MB of trace JSON
	for i := range events {
		events[i] = Event{Kind: KindSpan, Cat: CatShard, Name: NameGroupCommit, Start: time.Duration(i), Dur: 1, Arg: int64(i)}
	}
	slack := 1500 * time.Millisecond
	base := runtime.NumGoroutine() + 1

	srv, err := Serve("127.0.0.1:0", ServerSources{Trace: func() []Event { return events }})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.(*net.TCPConn).SetReadBuffer(4 << 10)
	start := time.Now()
	io.WriteString(conn, "GET /tracez HTTP/1.0\r\n\r\n")
	// The status line shows the handler is writing; then stop reading.
	// Building the body counts against the deadline too.
	status := make([]byte, len("HTTP/1.0 200 OK"))
	conn.SetReadDeadline(start.Add(writeTimeout))
	if _, err := io.ReadFull(conn, status); err != nil || string(status) != "HTTP/1.0 200 OK" {
		t.Fatalf("status line %q, %v", status, err)
	}
	// A moment on, the handler must still be blocked writing: else the
	// trace fit in the socket buffers and proves nothing.
	time.Sleep(200 * time.Millisecond)
	if n := runtime.NumGoroutine(); n <= base {
		t.Fatalf("%d goroutines while the response is stalled, want more than %d", n, base)
	}
	if n := waitGoroutines(base, start.Add(writeTimeout+slack)); n > base {
		t.Errorf("%d goroutines after the write deadline, want at most %d", n, base)
	}
}

// TestServerCloseWaitsForHandlers scrapes /varz from several
// goroutines while the server closes: Close must wait out running
// callbacks, and none may start once it has returned.
func TestServerCloseWaitsForHandlers(t *testing.T) {
	var closed atomic.Bool
	var late, calls atomic.Int64
	srv, err := Serve("127.0.0.1:0", ServerSources{
		Vars: func() any {
			calls.Add(1)
			time.Sleep(time.Millisecond)
			if closed.Load() {
				late.Add(1)
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !closed.Load() {
				conn, err := net.Dial("tcp", srv.Addr())
				if err != nil {
					return
				}
				fmt.Fprintf(conn, "GET /varz HTTP/1.0\r\n\r\n")
				io.ReadAll(conn)
				conn.Close()
			}
		}()
	}
	for calls.Load() < 8 {
		time.Sleep(time.Millisecond)
	}
	srv.Close()
	closed.Store(true)
	wg.Wait()
	if n := late.Load(); n > 0 {
		t.Errorf("%d Vars callbacks ran after Close returned", n)
	}
}
