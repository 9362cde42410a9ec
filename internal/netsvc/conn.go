package netsvc

import (
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

// maxIntern is the server-wide budget of interned tenant/key strings.
// Steady-state workloads reuse a bounded key set, so interning removes
// the per-op []byte→string copies; a hostile peer churning unique keys
// just falls back to plain copies once the budget is spent, and every
// connection returns its share when it closes, so memory is bounded by
// the budget rather than by connections × key churn.
const maxIntern = 1 << 16

// writeTimeout bounds one flush of responses to the socket. A peer
// that pipelines requests and stops reading fills its receive window;
// without a deadline the flush would block forever and a graceful
// drain would never finish. Past the deadline the connection is
// treated like any other broken peer.
const writeTimeout = 2 * time.Second

// slotInfo describes one request from decode to reply. For a queued
// request it is written by the reader when the slot is acquired and read
// (by value) by the writer when the response arrives; the slot index
// travels through the shard tag, so each slot has exactly one owner at a
// time. A lone request keeps it on the reader's stack.
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

// conn is one client connection: a reader goroutine that decodes frames
// and a writer goroutine that completes queued requests out of order as
// their responses arrive.
//
// A lone request — nothing else in flight on the connection and no byte
// of a further frame read — is answered where it was read: the reader
// runs it on its shard if the shard is idle (shard.Service.TryRun),
// encodes the reply and flushes it itself, with no slot, no shard queue
// and no wake-up of a worker or the writer. Everything else takes a slot
// and goes through TryDoTagged: a get that finds its shard idle runs on
// the reader inside that call and its response is on out before it
// returns; writes, and gets that find the shard busy, are left to the
// shard workers, and the writer turns their responses into replies.
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

	// strs interns tenant/key strings (reader-owned), within the
	// server-wide budget (Server.interned).
	strs map[string]string

	wbuf outBuf // reader's and writer's replies, written through a deadlineWriter

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
		wbuf:       outBuf{w: &deadlineWriter{c: nc}},
	}
	for i := 0; i < n; i++ {
		c.free <- uint32(i)
	}
	return c
}

// closeRead half-closes the connection, for graceful drain and once a
// write has failed: the reader sees EOF and admits nothing new, while
// the write side stays open so in-flight responses still reach the
// client.
func (c *conn) closeRead() {
	c.closeReadOnce.Do(func() {
		if tc, ok := c.c.(interface{ CloseRead() error }); ok {
			tc.CloseRead()
			return
		}
		c.c.Close()
	})
}

// deadlineWriter keeps the connection's write deadline ahead of every
// write the flusher passes down, so no flush can block past
// writeTimeout. The deadline is pushed out only once half of it has run
// down: a write has between writeTimeout/2 and writeTimeout to finish,
// and the steady-state flush (one per request at depth 1) does not touch
// the runtime's timer heap.
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

// readLoop decodes frames and runs or submits them. It exits on EOF,
// read error, or the first malformed frame (protocol errors are not
// recoverable mid-stream: framing may be lost).
func (c *conn) readLoop() {
	defer c.srv.wg.Done()
	defer close(c.readerDone)
	defer c.releaseInterned()
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
		wire := uint32(4 + len(payload))
		c.srv.st.bytesIn.Add(int64(wire))
		if err := proto.DecodeRequest(payload, &q); err != nil {
			c.srv.st.badFrames.Add(1)
			return
		}
		si := slotInfo{id: q.ID, kind: q.Kind, start: wallNow()}
		if q.TraceID != 0 && c.srv.cfg.Recorder.Enabled() {
			// Sampled request: stamp the net-lane span start with the
			// service's virtual clock (the one cross-goroutine clock
			// access the ownership rule permits) so the span lands on
			// the same timeline as the shard lanes it flows into.
			si.traceID = q.TraceID
			si.vstart = c.srv.svc.EndTime()
			si.wire = wire
		}
		var op shard.Op
		if q.Kind != proto.KindPing {
			op = shard.Op{
				Kind:      opKind(q.Kind),
				Tenant:    c.intern(q.Tenant),
				Key:       c.intern(q.Key),
				Key2:      c.intern(q.Key2),
				Value:     q.Value,
				TraceID:   q.TraceID,
				WireBytes: wire,
			}
		}
		if c.inflight.Load() == 0 && fr.Buffered() == 0 && c.runLone(&si, op) {
			continue
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
		c.srv.st.inFlight.Add(1)
		c.slot[s] = si
		c.inflight.Add(1)
		if q.Kind == proto.KindPing {
			c.out <- shard.Response{Tag: uint64(s)}
			continue
		}
		// Non-blocking admission: a full shard queue becomes a
		// RETRY_AFTER on the wire instead of a stalled read loop.
		if err := c.srv.svc.TryDoTagged(op, uint64(s), c.out); err != nil {
			c.out <- shard.Response{Tag: uint64(s), Err: err}
		}
	}
}

// runLone answers a lone request on the reader: a ping at once, an op
// through TryRun, then the reply is flushed from here. Nothing else is
// in flight, so the request needs no slot and no duplicate-id entry.
// It returns false, having counted and sent nothing, when the op's
// shard is busy (or TryRun refuses a write), and the reader queues the
// request instead.
func (c *conn) runLone(si *slotInfo, op shard.Op) bool {
	var r shard.Response
	if si.kind != proto.KindPing {
		var ran bool
		var err error
		if r, ran, err = c.srv.svc.TryRun(op); err != nil {
			r = shard.Response{Err: err}
		} else if !ran {
			return false
		}
	}
	c.srv.st.requests.Add(1)
	c.srv.st.inFlight.Add(1)
	c.answer(si, r)
	c.flush()
	return true
}

// writeLoop encodes completions of queued requests, batching
// opportunistically: it blocks for one response, drains whatever else is
// ready, then flushes once. If the queue runs dry while requests are
// still in flight, their completions are on the way from the shard
// workers, so it yields the processor once and drains again before
// flushing; with nothing else in flight it flushes at once. Once a
// write has failed it keeps draining (freeing slots and stats) while
// wbuf drops the replies, so shard workers and the reader never wedge
// on a broken peer. It exits when the reader is done and the in-flight
// table is empty, then closes the connection.
func (c *conn) writeLoop() {
	defer c.srv.wg.Done()
	defer c.srv.untrack(c)
	defer c.c.Close()
	done := c.readerDone
	for done != nil || c.inflight.Load() > 0 {
		select {
		case r := <-c.out:
			c.complete(r)
			c.drain()
			if c.inflight.Load() > 0 {
				runtime.Gosched()
				c.drain()
			}
			c.flush()
		case <-done:
			done = nil
		}
	}
}

// drain completes every response already queued, without blocking.
func (c *conn) drain() {
	for {
		select {
		case r := <-c.out:
			c.complete(r)
		default:
			return
		}
	}
}

// complete answers one queued request from its shard completion and
// frees its slot.
func (c *conn) complete(r shard.Response) {
	s := uint32(r.Tag)
	si := c.slot[s] // copy before freeing: the reader may reuse the slot
	c.answer(&si, r)
	c.idsMu.Lock()
	delete(c.ids, si.id)
	c.idsMu.Unlock()
	c.inflight.Add(-1)
	c.free <- s
}

// answer books one finished request — its latency, the traced net span
// and the response counters — and appends its reply for the next flush
// (dropped on a broken connection: nobody reads it).
func (c *conn) answer(si *slotInfo, r shard.Response) {
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
	c.srv.st.responses.Add(1)
	c.srv.st.inFlight.Add(-1)
	c.srv.st.bytesOut.Add(int64(c.wbuf.appendResponse(&resp)))
}

// flush writes the replies appended so far. A flusher whose write fails
// (or passes writeTimeout) half-closes the read side: the reader hits
// EOF and admits nothing new.
func (c *conn) flush() {
	if c.wbuf.flush() != nil {
		c.closeRead()
	}
}

// intern converts a wire string (aliasing the frame buffer) into a
// stable Go string, reusing prior copies. A miss stores its copy only
// while the server-wide budget has room.
func (c *conn) intern(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	if s, ok := c.strs[string(b)]; ok { // no-copy map lookup
		return s
	}
	s := string(b)
	for n := c.srv.interned.Load(); n < maxIntern; n = c.srv.interned.Load() {
		if c.srv.interned.CompareAndSwap(n, n+1) {
			c.strs[s] = s
			break
		}
	}
	return s
}

// releaseInterned returns the connection's interned strings to the
// server-wide budget when its reader exits.
func (c *conn) releaseInterned() {
	c.srv.interned.Add(-int64(len(c.strs)))
	clear(c.strs)
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
