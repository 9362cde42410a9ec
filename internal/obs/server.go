package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net" //lint:allow sockio obs.Serve is the documented loopback observability boundary
	"strings"
	"sync"
	"time"

	"memsnap/internal/sim"
)

// ServerSources supplies the live data the observability server
// exposes. All callbacks must be safe for concurrent use (they run on
// per-connection goroutines).
type ServerSources struct {
	// Metrics writes the Prometheus text exposition for /metricz.
	Metrics func(w io.Writer) error
	// Vars returns the expvar-style state marshaled as JSON for /varz
	// (typically shard stats + replication stats + pool stats).
	Vars func() any
	// Trace drains the event ring for /tracez.
	Trace func() []Event
	// Health reports readiness for /healthz: ready yields 200, a
	// draining/unready process yields 503, each with detail as the
	// body. A nil Health means /healthz always answers 200 "ok".
	Health func() (ready bool, detail string)
	// TopK returns the per-tenant attribution entries for /topz.
	TopK func() []TenantStat
	// Clock, when set, bridges virtual time at the boundary: /varz
	// responses carry the current virtual time alongside the
	// caller-supplied vars. Reads go through the clock's atomic Now —
	// the one cross-goroutine access the clock ownership rule permits
	// (internal/sim/clock.go).
	Clock *sim.Clock
}

// Server is the loopback observability front end: a real TCP listener
// speaking just enough HTTP/1.0 for curl, Prometheus scrapers and the
// CI smoke test, without importing net/http. It serves:
//
//	GET /metricz  Prometheus text exposition (ServerSources.Metrics)
//	GET /varz     expvar-style JSON state (ServerSources.Vars)
//	GET /tracez   Chrome trace-event JSON drained from the ring
//	GET /healthz  readiness probe: 200 ready / 503 draining
//	GET /topz     per-tenant top-K attribution as JSON
//
// Inside the simulation all timestamps are virtual; the server is the
// boundary where a wall-clock world (a scraper, a browser) observes
// them, so responses carry virtual times as plain numbers and the
// server itself never advances any clock.
type Server struct {
	ln  net.Listener
	src ServerSources
	// hasClock caches src.Clock != nil so the per-connection goroutine
	// touches the clock only to read it with Now, which never moves
	// the owner's virtual time (internal/sim/clock.go).
	hasClock bool

	mu     sync.Mutex
	conns  map[net.Conn]bool
	closed bool
	wg     sync.WaitGroup
}

// Serve starts the server on addr (e.g. "127.0.0.1:0") and begins
// accepting connections.
func Serve(addr string, src ServerSources) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &Server{ln: ln, src: src, hasClock: src.Clock != nil, conns: map[net.Conn]bool{}}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for {
			conn, err := s.ln.Accept()
			if err != nil {
				return
			}
			if !s.track(conn) {
				conn.Close()
				return
			}
			s.wg.Add(1)
			go func(c net.Conn) {
				defer s.wg.Done()
				defer s.untrack(c)
				// Stamp the boundary's virtual now once per request,
				// through the clock's atomic Now (the documented
				// cross-goroutine clock access).
				var vnow time.Duration
				if s.hasClock {
					vnow = s.src.Clock.Now()
				}
				s.handle(c, vnow)
			}(conn)
		}
	}()
	return s, nil
}

// Addr returns the listener's address (host:port).
func (s *Server) Addr() string { return s.ln.Addr().String() }

func (s *Server) track(c net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.conns[c] = true
	return true
}

func (s *Server) untrack(c net.Conn) {
	c.Close()
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
}

// Close stops accepting, closes open connections and waits for the
// handler goroutines. Idempotent.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	err := s.ln.Close()
	s.wg.Wait()
	return err
}

// handle serves one connection: one request, one response, close.
func (s *Server) handle(c net.Conn, vnow time.Duration) {
	path, ok := readRequestPath(c)
	if !ok {
		writeResponse(c, 400, "text/plain; charset=utf-8", []byte("bad request\n"))
		return
	}
	var body bytes.Buffer
	switch path {
	case "/metricz":
		if s.src.Metrics == nil {
			writeResponse(c, 404, "text/plain; charset=utf-8", []byte("no metrics source\n"))
			return
		}
		if err := s.src.Metrics(&body); err != nil {
			writeError(c, err)
			return
		}
		writeResponse(c, 200, "text/plain; version=0.0.4; charset=utf-8", body.Bytes())
	case "/varz":
		var vars any
		if s.src.Vars != nil {
			vars = s.src.Vars()
		}
		wrapped := struct {
			VirtualSeconds float64 `json:"virtual_now_seconds"`
			Vars           any     `json:"vars"`
		}{vnow.Seconds(), vars}
		data, err := json.MarshalIndent(wrapped, "", "  ")
		if err != nil {
			writeError(c, err)
			return
		}
		writeResponse(c, 200, "application/json", append(data, '\n'))
	case "/tracez":
		var events []Event
		if s.src.Trace != nil {
			events = s.src.Trace()
		}
		if err := WriteTrace(&body, events); err != nil {
			writeError(c, err)
			return
		}
		writeResponse(c, 200, "application/json", body.Bytes())
	case "/healthz":
		ready, detail := true, "ok"
		if s.src.Health != nil {
			ready, detail = s.src.Health()
		}
		code := 200
		if !ready {
			code = 503
		}
		writeResponse(c, code, "text/plain; charset=utf-8", []byte(detail+"\n"))
	case "/topz":
		var top []TenantStat
		if s.src.TopK != nil {
			top = s.src.TopK()
		}
		wrapped := struct {
			VirtualSeconds float64      `json:"virtual_now_seconds"`
			Tenants        []TenantStat `json:"tenants"`
		}{vnow.Seconds(), top}
		data, err := json.MarshalIndent(wrapped, "", "  ")
		if err != nil {
			writeError(c, err)
			return
		}
		writeResponse(c, 200, "application/json", append(data, '\n'))
	default:
		writeResponse(c, 404, "text/plain; charset=utf-8", []byte("not found (try /metricz, /varz, /tracez, /healthz, /topz)\n"))
	}
}

// readRequestPath reads the request line of a GET request and returns
// its path. The read is bounded; headers are consumed best-effort (the
// response closes the connection either way).
func readRequestPath(c net.Conn) (string, bool) {
	buf := make([]byte, 0, 1024)
	tmp := make([]byte, 256)
	for !bytes.Contains(buf, []byte("\n")) && len(buf) < 4096 {
		n, err := c.Read(tmp)
		buf = append(buf, tmp[:n]...)
		if err != nil {
			break
		}
	}
	line, _, ok := bytes.Cut(buf, []byte("\n"))
	if !ok {
		return "", false
	}
	fields := strings.Fields(string(line))
	if len(fields) < 2 || fields[0] != "GET" {
		return "", false
	}
	path := fields[1]
	if i := strings.IndexByte(path, '?'); i >= 0 {
		path = path[:i]
	}
	return path, true
}

var statusText = map[int]string{200: "OK", 400: "Bad Request", 404: "Not Found", 500: "Internal Server Error", 503: "Service Unavailable"}

func writeResponse(c net.Conn, code int, contentType string, body []byte) {
	fmt.Fprintf(c, "HTTP/1.0 %d %s\r\nContent-Type: %s\r\nContent-Length: %d\r\nConnection: close\r\n\r\n",
		code, statusText[code], contentType, len(body))
	c.Write(body)
}

func writeError(c net.Conn, err error) {
	writeResponse(c, 500, "text/plain; charset=utf-8", []byte(err.Error()+"\n"))
}
