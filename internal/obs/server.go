package obs

import (
	"bytes"
	"encoding/json"
	"io"
	"net"      //lint:allow sockio obs.Serve is the documented loopback observability boundary
	"net/http" //lint:allow sockio obs.Serve is the documented loopback observability boundary
	"strconv"
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

// headerTimeout bounds how long a peer may take to send its request
// headers: a peer that stalls mid-request, or never sends one, is
// disconnected after it instead of pinning a goroutine. writeTimeout
// bounds the rest of the exchange, from the end of the headers to the
// last byte of the response: a peer that asks for a large /tracez and
// never reads it is disconnected after it, and the handler's goroutine
// returns. Keep-alives are off too, so every connection carries one
// request and then closes.
const (
	headerTimeout = 2 * time.Second
	writeTimeout  = 3 * time.Second
)

// Server is the loopback observability front end: a net/http server on
// a real TCP listener, for curl, Prometheus scrapers and the CI smoke
// test. It serves:
//
//	GET /metricz  Prometheus text exposition (ServerSources.Metrics)
//	GET /varz     expvar-style JSON state (ServerSources.Vars)
//	GET /tracez   Chrome trace-event JSON drained from the ring
//	GET /healthz  readiness probe: 200 ready / 503 draining
//	GET /topz     per-tenant top-K attribution as JSON
//
// Any other method is answered 400 and any other path 404 with the
// list above. Inside the simulation all timestamps are virtual; the
// server is the boundary where a wall-clock world (a scraper, a
// browser) observes them, so responses carry virtual times as plain
// numbers and the server itself never advances any clock.
type Server struct {
	ln   net.Listener
	http *http.Server
	src  ServerSources

	// mu is read-held by every running handler; Close takes it to wait
	// them out, and closed turns away any handler that starts after.
	mu     sync.RWMutex
	closed bool
}

// Serve starts the server on addr (e.g. "127.0.0.1:0") and begins
// accepting connections.
func Serve(addr string, src ServerSources) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &Server{ln: ln, src: src}
	mux := http.NewServeMux()
	mux.HandleFunc("/metricz", func(w http.ResponseWriter, _ *http.Request) {
		if s.src.Metrics == nil {
			http.Error(w, "no metrics source", http.StatusNotFound)
			return
		}
		var body bytes.Buffer
		if err := s.src.Metrics(&body); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		send(w, http.StatusOK, "text/plain; version=0.0.4; charset=utf-8", body.Bytes())
	})
	mux.HandleFunc("/varz", func(w http.ResponseWriter, _ *http.Request) {
		var vars any
		if s.src.Vars != nil {
			vars = s.src.Vars()
		}
		sendJSON(w, struct {
			VirtualSeconds float64 `json:"virtual_now_seconds"`
			Vars           any     `json:"vars"`
		}{s.now().Seconds(), vars})
	})
	mux.HandleFunc("/tracez", func(w http.ResponseWriter, _ *http.Request) {
		var events []Event
		if s.src.Trace != nil {
			events = s.src.Trace()
		}
		var body bytes.Buffer
		if err := WriteTrace(&body, events); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		send(w, http.StatusOK, "application/json", body.Bytes())
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		ready, detail := true, "ok"
		if s.src.Health != nil {
			ready, detail = s.src.Health()
		}
		code := http.StatusOK
		if !ready {
			code = http.StatusServiceUnavailable
		}
		send(w, code, "text/plain; charset=utf-8", []byte(detail+"\n"))
	})
	mux.HandleFunc("/topz", func(w http.ResponseWriter, _ *http.Request) {
		var top []TenantStat
		if s.src.TopK != nil {
			top = s.src.TopK()
		}
		sendJSON(w, struct {
			VirtualSeconds float64      `json:"virtual_now_seconds"`
			Tenants        []TenantStat `json:"tenants"`
		}{s.now().Seconds(), top})
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, _ *http.Request) {
		http.Error(w, "not found (try /metricz, /varz, /tracez, /healthz, /topz)", http.StatusNotFound)
	})
	s.http = &http.Server{
		Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Method != http.MethodGet {
				http.Error(w, "bad request", http.StatusBadRequest)
				return
			}
			s.mu.RLock()
			defer s.mu.RUnlock()
			if !s.closed {
				mux.ServeHTTP(w, r)
			}
		}),
		ReadHeaderTimeout: headerTimeout,
		WriteTimeout:      writeTimeout,
	}
	s.http.SetKeepAlivesEnabled(false)
	go s.http.Serve(ln)
	return s, nil
}

// Addr returns the listener's address (host:port).
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops accepting, closes open connections and returns once no
// handler runs; no source callback starts after it. Idempotent.
func (s *Server) Close() error {
	err := s.http.Close()
	// Serve's goroutine may not have taken the listener over yet, and
	// would then leave it open: close it here too.
	s.ln.Close()
	s.mu.Lock()
	if s.closed {
		err = nil
	}
	s.closed = true
	s.mu.Unlock()
	return err
}

// now is the boundary's virtual now, read through the clock's atomic
// Now: the one cross-goroutine clock access, which never moves the
// owner's virtual time (internal/sim/clock.go).
func (s *Server) now() time.Duration {
	if s.src.Clock == nil {
		return 0
	}
	return s.src.Clock.Now()
}

// sendJSON answers 200 with v as indented JSON.
func sendJSON(w http.ResponseWriter, v any) {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	send(w, http.StatusOK, "application/json", append(data, '\n'))
}

// send answers code with body, its length declared up front.
func send(w http.ResponseWriter, code int, contentType string, body []byte) {
	w.Header().Set("Content-Type", contentType)
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(code)
	w.Write(body)
}
