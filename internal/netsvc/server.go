// Package netsvc exposes the shard service over real TCP: the data
// plane counterpart to the loopback observability endpoint in
// internal/obs. It follows the server / protocol / execution layering:
// this file owns the listener lifecycle, conn.go owns per-connection
// framing and pipelining, and execution stays inside internal/shard —
// the server is a thin adapter from decoded proto.Requests to shard
// calls.
//
// A lone request (nothing else in flight on its connection, nothing
// more read) is run by the connection's reader on an idle shard
// (shard.Service.TryRun) and answered from there. Otherwise each
// connection pipelines up to MaxInFlight requests through a bounded
// slot table of tagged submissions; responses complete out of order as
// shard workers acknowledge durability. Admission control surfaces on
// the wire: a full shard queue answers RETRY_AFTER (with a backoff
// hint) instead of stalling the read loop or dropping the connection.
//
// Time domains: the simulation underneath runs on virtual sim.Clocks,
// but a network client lives in wall time, so this package is — like
// obs.Serve — a deliberate wall boundary. Op latency histograms here
// measure real client-visible time and every wall-clock read carries a
// //lint:allow walltime annotation; virtual-time trace lanes remain
// the shard workers' own.
package netsvc

import (
	"net" //lint:allow sockio netsvc is the real-TCP data plane boundary
	"sync"
	"sync/atomic"
	"time"

	"memsnap/internal/obs"
	"memsnap/internal/shard"
)

// Config sizes the server.
type Config struct {
	// MaxInFlight bounds each connection's pipelined in-flight
	// requests (default 64). A reader that fills its slot table stops
	// reading frames until a response frees a slot, pushing flow
	// control onto TCP.
	MaxInFlight int
	// RetryAfter is the backoff hint carried in RETRY_AFTER responses
	// (default 200µs of wall time).
	RetryAfter time.Duration
	// MaxFrame bounds one request frame (default proto.MaxFrame).
	MaxFrame int
	// Recorder, when set, records a net-lane span (obs.CatNet /
	// obs.NameNetRequest) for every request that arrives carrying wire
	// trace context, stamped with the shard service's virtual clock so
	// the span shares a timeline with the shard/replica lanes. Untraced
	// requests — the overwhelming majority under sampling — record
	// nothing and touch no clock.
	Recorder *obs.Recorder
}

func (c *Config) fill() {
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 64
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = 200 * time.Microsecond
	}
}

// Server accepts proto-framed connections and executes their requests
// against a shard.Service.
type Server struct {
	cfg Config
	svc *shard.Service
	ln  net.Listener

	st counters
	// opLatency is the wall-clock request latency histogram (frame
	// decoded to response encoded), reusing the obs machinery so the
	// exposition format matches the shard-side histograms.
	opLatency obs.Histogram
	// interned counts the tenant/key strings every connection holds in
	// its intern table, against the budget maxIntern.
	interned atomic.Int64

	mu     sync.Mutex
	conns  map[*conn]bool
	closed bool
	wg     sync.WaitGroup
}

// Serve starts a server for svc on addr (e.g. "127.0.0.1:0") and
// begins accepting connections.
func Serve(addr string, svc *shard.Service, cfg Config) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return serve(ln, svc, cfg), nil
}

// serve starts a server on an established listener.
func serve(ln net.Listener, svc *shard.Service, cfg Config) *Server {
	cfg.fill()
	s := &Server{cfg: cfg, svc: svc, ln: ln, conns: map[*conn]bool{}}
	s.wg.Add(1)
	go s.acceptLoop()
	return s
}

// Addr returns the listener's address (host:port).
func (s *Server) Addr() string { return s.ln.Addr().String() }

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		nc, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		c := newConn(s, nc)
		if !s.track(c) {
			nc.Close()
			return
		}
		s.st.accepted.Add(1)
		s.st.openConns.Add(1)
		s.wg.Add(2)
		go c.readLoop()
		go c.writeLoop()
	}
}

func (s *Server) track(c *conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.conns[c] = true
	return true
}

func (s *Server) untrack(c *conn) {
	s.mu.Lock()
	if s.conns[c] {
		delete(s.conns, c)
		s.st.openConns.Add(-1)
	}
	s.mu.Unlock()
}

// Close drains the server gracefully: it stops accepting, half-closes
// every connection's read side (so readers see EOF and admit nothing
// new), waits for all in-flight requests to complete and their
// responses to flush, then closes the connections. Idempotent. The
// shard.Service itself is not closed — it belongs to the caller, and
// must be closed only after the server has drained.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return nil
	}
	s.closed = true
	conns := make([]*conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	err := s.ln.Close()
	for _, c := range conns {
		c.closeRead()
	}
	s.wg.Wait()
	return err
}

// wallNow reads the wall clock. The network boundary measures real
// client-visible latency, not simulated cost, so this is one of the
// package's documented wall-time sites.
func wallNow() time.Duration {
	return time.Duration(time.Now().UnixNano()) //lint:allow walltime client-visible latency at the real-TCP boundary
}
