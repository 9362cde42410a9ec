package netsvc

import (
	"bufio"
	"io"
	"net" //lint:allow sockio per-connection framing of the real-TCP data plane
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"memsnap/internal/obs"
	"memsnap/internal/proto"
	"memsnap/internal/shard"
)

// maxIntern caps each connection's tenant/key string intern table.
// Steady-state workloads reuse a bounded key set, so interning removes
// the per-op []byte→string copies; a hostile peer churning unique keys
// just falls back to plain copies once the table is full.
const maxIntern = 1 << 16

// writeTimeout bounds one flush of responses to the socket. A peer
// that pipelines requests and stops reading fills its receive window;
// without a deadline the writer would block in the flush forever and a
// graceful drain would never finish. Past the deadline the connection
// is treated like any other broken peer.
const writeTimeout = 2 * time.Second

// slotInfo describes one in-flight request. Written by the reader when
// the slot is acquired, read (by value) by the writer when the
// response arrives; the slot index travels through the shard tag, so
// each slot has exactly one owner at a time.
type slotInfo struct {
	id    uint64
	kind  proto.Kind
	start time.Duration // wall time the request was decoded
	// Trace context of a sampled request: its wire trace id, the
	// virtual time the frame was decoded, and the frame size. Zero
	// traceID (the common case) records no span.
	traceID uint64
	vstart  time.Duration
	wire    uint32
}

// conn is one client connection: a reader goroutine that decodes
// frames and submits tagged shard ops, and a writer goroutine that
// completes them out of order as responses arrive. A get that finds its
// shard idle runs on the reader inside TryDoTagged, and its response is
// on out before the call returns; writes, and gets that find the shard
// busy, are left to the shard workers.
//
// Flow control: slots (capacity MaxInFlight) bounds the in-flight
// table. The reader blocks acquiring a slot when the table is full —
// it stops reading frames, and TCP pushes back on the client. Because
// at most MaxInFlight requests are outstanding and every acquired slot
// produces exactly one message on out (the shard contract: admission
// means exactly one response; rejections are synthesized by the
// reader), sends on out never block, so neither shard workers nor the
// reader answering a get stall on a slow connection.
type conn struct {
	srv *Server
	c   net.Conn

	// out carries completions: shard worker responses and
	// reader-synthesized rejections, multiplexed by slot tag.
	out  chan shard.Response
	free chan uint32
	slot []slotInfo

	// inflight counts acquired slots; the writer exits once the reader
	// is done and it reaches zero.
	inflight   atomic.Int64
	readerDone chan struct{}

	// ids tracks in-flight request ids for duplicate detection.
	// Reader inserts, writer deletes.
	idsMu sync.Mutex
	ids   map[uint64]bool

	// strs interns tenant/key strings (reader-owned).
	strs map[string]string

	// dw is the socket as the response buffer sees it (writer-owned).
	dw deadlineWriter

	closeReadOnce sync.Once
}

func newConn(s *Server, nc net.Conn) *conn {
	n := s.cfg.MaxInFlight
	c := &conn{
		srv:        s,
		c:          nc,
		out:        make(chan shard.Response, n),
		free:       make(chan uint32, n),
		slot:       make([]slotInfo, n),
		readerDone: make(chan struct{}),
		ids:        make(map[uint64]bool, n),
		strs:       make(map[string]string),
		dw:         deadlineWriter{c: nc},
	}
	for i := 0; i < n; i++ {
		c.free <- uint32(i)
	}
	return c
}

// closeRead half-closes the connection, for graceful drain and once
// the writer has broken: the reader sees EOF and admits nothing new,
// while the write side stays open so in-flight responses still reach
// the client.
func (c *conn) closeRead() {
	//lint:allow hotalloc off the frame path: the writer calls it only once the connection is broken
	c.closeReadOnce.Do(func() {
		if tc, ok := c.c.(interface{ CloseRead() error }); ok {
			tc.CloseRead()
			return
		}
		c.c.Close()
	})
}

// deadlineWriter keeps the connection's write deadline ahead of every
// write the response buffer passes down, so no flush — the explicit
// one that ends a batch or the implicit one of a full buffer — can
// block past writeTimeout. The deadline is pushed out only once half
// of it has run down: a write has between writeTimeout/2 and
// writeTimeout to finish, and the steady-state flush (one per request
// at depth 1) does not touch the runtime's timer heap.
type deadlineWriter struct {
	c     net.Conn
	armed time.Time
}

func (w *deadlineWriter) Write(p []byte) (int, error) {
	if now := time.Now(); now.Sub(w.armed) > writeTimeout/2 { //lint:allow walltime socket write deadline at the real-TCP boundary
		w.armed = now
		w.c.SetWriteDeadline(now.Add(writeTimeout))
	}
	return w.c.Write(p)
}

// readLoop decodes frames and submits them. It exits on EOF, read
// error, or the first malformed frame (protocol errors are not
// recoverable mid-stream: framing may be lost).
//
//memsnap:hotpath
func (c *conn) readLoop() {
	defer c.srv.wg.Done()
	defer close(c.readerDone)
	fr := proto.NewFrameReader(c.c, c.srv.cfg.MaxFrame)
	var q proto.Request
	for {
		payload, err := fr.Next()
		if err != nil {
			if err != io.EOF && err != io.ErrUnexpectedEOF {
				// A frame-level violation (oversized or zero-length
				// prefix), as opposed to the peer just hanging up.
				c.srv.st.badFrames.Add(1)
			}
			return
		}
		c.srv.st.bytesIn.Add(int64(4 + len(payload)))
		if err := proto.DecodeRequest(payload, &q); err != nil {
			c.srv.st.badFrames.Add(1)
			return
		}
		// Bounded in-flight table: block here — not in the shard — when
		// the pipeline is full. Responses draining on the writer side
		// free slots and wake us.
		s := <-c.free
		c.idsMu.Lock()
		dup := c.ids[q.ID]
		if !dup {
			c.ids[q.ID] = true
		}
		c.idsMu.Unlock()
		if dup {
			// Two in-flight requests with one id make completions
			// ambiguous; treat it as a framing-level violation.
			c.free <- s
			c.srv.st.badFrames.Add(1)
			return
		}
		c.srv.st.requests.Add(1)
		si := slotInfo{id: q.ID, kind: q.Kind, start: wallNow()}
		if q.TraceID != 0 && c.srv.cfg.Recorder.Enabled() {
			// Sampled request: stamp the net-lane span start with the
			// service's virtual clock (the one cross-goroutine clock
			// access the ownership rule permits) so the span lands on
			// the same timeline as the shard lanes it flows into.
			si.traceID = q.TraceID
			si.vstart = c.srv.svc.EndTime()
			si.wire = uint32(4 + len(payload))
		}
		c.slot[s] = si
		c.inflight.Add(1)
		c.srv.st.inFlight.Add(1)

		if q.Kind == proto.KindPing {
			c.out <- shard.Response{Tag: uint64(s)}
			continue
		}
		op := shard.Op{
			Kind:      opKind(q.Kind),
			Tenant:    c.intern(q.Tenant),
			Key:       c.intern(q.Key),
			Key2:      c.intern(q.Key2),
			Value:     q.Value,
			TraceID:   q.TraceID,
			WireBytes: uint32(4 + len(payload)),
		}
		// Non-blocking admission: a full shard queue becomes a
		// RETRY_AFTER on the wire instead of a stalled read loop.
		if err := c.srv.svc.TryDoTagged(op, uint64(s), c.out); err != nil {
			c.out <- shard.Response{Tag: uint64(s), Err: err}
		}
	}
}

// writeLoop encodes completions, batching opportunistically: it blocks
// for one response, drains whatever else is ready, then flushes once.
// If the queue runs dry while requests are still in flight, their
// completions are on the way from the shard workers, so it yields the
// processor once and drains again before flushing; with nothing else
// in flight it flushes at once. After a write error or timeout it
// half-closes the read side, so the reader hits EOF and admits nothing
// new, and keeps draining (freeing slots and stats) but discards output,
// so shard workers and the reader never wedge on a broken peer. It exits
// when the reader is done and the in-flight table is empty, then
// closes the connection.
//
//memsnap:hotpath
func (c *conn) writeLoop() {
	defer c.srv.wg.Done()
	defer c.srv.untrack(c)
	defer c.c.Close()
	bw := bufio.NewWriterSize(&c.dw, 16<<10)
	//lint:allow hotalloc per-connection setup before the loop, not per frame
	buf := make([]byte, 0, 64)
	broken := false
	done := c.readerDone
	for done != nil || c.inflight.Load() > 0 {
		select {
		case r := <-c.out:
			buf = c.complete(r, bw, buf, &broken)
			buf = c.drain(bw, buf, &broken)
			if c.inflight.Load() > 0 {
				runtime.Gosched()
				buf = c.drain(bw, buf, &broken)
			}
			if !broken {
				if err := bw.Flush(); err != nil {
					broken = true
				}
			}
			if broken {
				// Nobody will read what this connection answers: stop
				// admitting its requests.
				c.closeRead()
			}
		case <-done:
			done = nil
		}
	}
	if !broken {
		bw.Flush()
	}
}

// drain completes every response already queued, without blocking.
func (c *conn) drain(bw *bufio.Writer, buf []byte, broken *bool) []byte {
	for {
		select {
		case r := <-c.out:
			buf = c.complete(r, bw, buf, broken)
		default:
			return buf
		}
	}
}

// complete turns one shard completion into a wire response, records
// stats, and frees the slot. buf is the caller's reusable encode
// buffer (returned possibly regrown).
func (c *conn) complete(r shard.Response, bw *bufio.Writer, buf []byte, broken *bool) []byte {
	s := uint32(r.Tag)
	si := c.slot[s] // copy before freeing: the reader may reuse the slot
	resp := proto.Response{
		ID:     si.id,
		Status: statusOf(r.Err),
		Found:  r.Found,
		Value:  r.Value,
		Epoch:  uint64(r.Epoch),
	}
	if resp.Status == proto.StatusRetryAfter {
		resp.RetryAfter = c.srv.cfg.RetryAfter
		c.srv.st.retryAfter.Add(1)
	}
	c.srv.opLatency.Record(wallNow() - si.start)
	if si.traceID != 0 {
		vnow := c.srv.svc.EndTime()
		c.srv.cfg.Recorder.SpanFlow(obs.CatNet, obs.NameNetRequest, obs.NetTrack(0),
			si.vstart, vnow-si.vstart, int64(si.wire), si.traceID)
	}
	c.idsMu.Lock()
	delete(c.ids, si.id)
	c.idsMu.Unlock()
	c.srv.st.responses.Add(1)
	c.srv.st.inFlight.Add(-1)
	c.inflight.Add(-1)
	c.free <- s
	if *broken {
		return buf
	}
	buf = proto.AppendResponse(buf[:0], &resp)
	if _, err := bw.Write(buf); err != nil {
		*broken = true
		return buf
	}
	c.srv.st.bytesOut.Add(int64(len(buf)))
	return buf
}

// intern converts a wire string (aliasing the frame buffer) into a
// stable Go string, reusing prior copies while the table has room.
func (c *conn) intern(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	if s, ok := c.strs[string(b)]; ok { // no-copy map lookup
		return s
	}
	//lint:allow hotalloc intern miss path; copies amortize to zero while the table has room
	s := string(b)
	if len(c.strs) < maxIntern {
		c.strs[s] = s
	}
	return s
}

// opKind maps a wire kind to the shard op kind. KindPing never reaches
// the shard.
func opKind(k proto.Kind) shard.OpKind {
	switch k {
	case proto.KindGet:
		return shard.OpGet
	case proto.KindPut:
		return shard.OpPut
	case proto.KindAdd:
		return shard.OpAdd
	case proto.KindDelete:
		return shard.OpDelete
	case proto.KindTransfer:
		return shard.OpTransfer
	}
	return shard.OpGet // unreachable: DecodeRequest rejects unknown kinds
}

// statusOf maps a shard error to its wire status.
func statusOf(err error) proto.Status {
	switch err {
	case nil:
		return proto.StatusOK
	case shard.ErrBackpressure:
		return proto.StatusRetryAfter
	case shard.ErrClosed:
		return proto.StatusClosed
	case shard.ErrKeyTooLong:
		return proto.StatusKeyTooLong
	case shard.ErrCrossShard:
		return proto.StatusCrossShard
	case shard.ErrShardFull:
		return proto.StatusShardFull
	case shard.ErrInsufficient:
		return proto.StatusInsufficient
	}
	return proto.StatusInternal
}
