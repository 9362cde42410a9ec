package netsvc

import (
	"errors"
	"net" //lint:allow sockio reference client for the real-TCP data plane
	"sync"
	"sync/atomic"
	"time"

	"memsnap/internal/obs"
	"memsnap/internal/proto"
)

// ErrClientClosed is returned by Do once the connection is gone.
var ErrClientClosed = errors.New("netsvc: client closed")

// Tracing configures client-side trace sampling: the Sampler decides
// which requests carry wire trace context, the Recorder receives the
// client round-trip span, and Now supplies the span timestamps (the
// client has no virtual clock, so the caller picks the timeline — a
// wall-epoch offset for standalone clients, or the service clock in
// single-process tests). Track is the client's trace lane, normally
// obs.ClientTrack(i).
type Tracing struct {
	Recorder *obs.Recorder
	Sampler  *obs.Sampler
	Now      func() time.Duration
	Track    int32
}

// clientSlot is one pipelined request slot. id is atomic because the
// reader goroutine checks it to route (and drop stale) responses; ch
// has capacity 1 so the reader never blocks. Once the read loop has
// exited it leaves closedWake in every empty ch, so a caller waits on
// its own channel alone.
type clientSlot struct {
	id atomic.Uint64
	ch chan proto.Response
}

// closedWake is the response the read loop leaves in a slot once the
// connection is gone. No real response routes to a slot with ID 0:
// every request id carries a generation of at least 1.
var closedWake = proto.Response{}

// Client is a pipelined protocol client: up to depth concurrent Do
// calls share one TCP connection, each owning a slot for the duration
// of its request. Request ids are slot|generation, so a late or stale
// response can never be delivered to the wrong caller. Do transparently
// retries RETRY_AFTER responses after the server's backoff hint —
// the client half of the wire backpressure contract.
type Client struct {
	c    net.Conn
	wbuf outBuf // combines the callers' writes (send)

	slots []clientSlot
	free  chan uint32
	done  chan struct{}

	retries  atomic.Int64
	closed   atomic.Bool
	readErr  error // set before done is closed
	closeOne sync.Once

	trace Tracing
}

// EnableTracing installs client-side trace sampling. Call it once,
// before the first request — it is not synchronized against in-flight
// Do calls. With a nil Sampler (the default) the client passes any
// caller-set trace context through unchanged.
func (c *Client) EnableTracing(t Tracing) { c.trace = t }

// Dial connects to a netsvc server with the given pipeline depth
// (minimum 1).
func Dial(addr string, depth int) (*Client, error) {
	if depth < 1 {
		depth = 1
	}
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return newClient(nc, depth), nil
}

// newClient runs the protocol over an established connection.
func newClient(nc net.Conn, depth int) *Client {
	c := &Client{
		c:     nc,
		wbuf:  outBuf{w: nc, yield: depth > 1},
		slots: make([]clientSlot, depth),
		free:  make(chan uint32, depth),
		done:  make(chan struct{}),
	}
	for i := range c.slots {
		c.slots[i].ch = make(chan proto.Response, 1)
		c.free <- uint32(i)
	}
	go c.readLoop()
	return c
}

// readLoop routes response frames to their slots by id. When the
// connection fails it closes done and then wakes every slot (wakeAll).
func (c *Client) readLoop() {
	defer c.wakeAll()
	fr := proto.NewFrameReader(c.c, 0)
	var p proto.Response
	for {
		payload, err := fr.Next()
		if err != nil {
			c.readErr = err
			close(c.done)
			return
		}
		if err := proto.DecodeResponse(payload, &p); err != nil {
			c.readErr = err
			close(c.done)
			return
		}
		slot := uint32(p.ID & 0xffffffff)
		if int(slot) >= len(c.slots) {
			continue // not ours; ignore
		}
		s := &c.slots[slot]
		if s.id.Load() != p.ID {
			continue // stale generation
		}
		s.ch <- p // capacity 1, slot exclusively owned: never blocks
	}
}

// wakeAll leaves closedWake in every slot channel that is empty, after
// done is closed: a caller waiting for a response that will never come
// receives it instead. A slot already holding a response keeps it —
// that response was routed before the connection went, and its caller
// takes it.
func (c *Client) wakeAll() {
	for i := range c.slots {
		select {
		case c.slots[i].ch <- closedWake:
		default:
		}
	}
}

// DoOnce sends one request and waits for its response without
// retrying, exposing RETRY_AFTER (and every other status) to the
// caller. q.ID is overwritten with the slot-generation id.
//
// The caller waits on its slot's channel alone, never on the shared
// done: a wake the read loop left in the slot (closedWake) is drained
// before done is checked, so one that lands after the check is the
// one this caller receives.
func (c *Client) DoOnce(q *proto.Request) (proto.Response, error) {
	slot := <-c.free
	s := &c.slots[slot]
	select {
	case <-s.ch: // a stale wake from a read loop that has exited
	default:
	}
	select {
	case <-c.done:
		c.free <- slot
		return proto.Response{}, c.closeErr()
	default:
	}
	gen := (s.id.Load() >> 32) + 1
	id := gen<<32 | uint64(slot)
	s.id.Store(id)
	q.ID = id
	var tid uint64
	var tstart time.Duration
	if c.trace.Sampler != nil {
		q.Traced, q.TraceID = false, 0
		if tid2, ok := c.trace.Sampler.Sample(); ok {
			q.Traced, q.TraceID = true, tid2
			tid = tid2
			if c.trace.Now != nil {
				tstart = c.trace.Now()
			}
		}
	}
	if err := c.send(q); err != nil {
		c.free <- slot
		return proto.Response{}, err
	}
	p := <-s.ch
	if p.ID == closedWake.ID {
		// Mark the slot stale before freeing so nothing lands in the
		// next generation.
		s.id.Store(0)
		c.free <- slot
		return proto.Response{}, c.closeErr()
	}
	c.free <- slot
	c.finishTrace(tid, tstart, q.Kind)
	return p, nil
}

// send encodes q into the output buffer and flushes it (at depth 1, one
// Write on the caller's goroutine). A flusher whose Write fails closes
// the connection, so every caller whose frame was dropped fails through
// c.done; a later send returns the write error without a syscall.
func (c *Client) send(q *proto.Request) error {
	if err := c.wbuf.appendRequest(q); err != nil {
		return err
	}
	err := c.wbuf.flush()
	if err != nil {
		c.shutdown()
	}
	return err
}

// shutdown closes the socket after a failed flush through the same
// once as Close, so a later Close does not close it again. closed stays
// unset: callers are failing on the write error, not on Close.
func (c *Client) shutdown() { c.closeOne.Do(func() { c.c.Close() }) }

// finishTrace records the client round-trip span of a sampled request
// once its response has arrived. A zero tid (untraced — the common
// case) returns immediately.
func (c *Client) finishTrace(tid uint64, tstart time.Duration, kind proto.Kind) {
	if tid == 0 || !c.trace.Recorder.Enabled() {
		return
	}
	end := tstart
	if c.trace.Now != nil {
		end = c.trace.Now()
	}
	c.trace.Recorder.SpanFlow(obs.CatNet, obs.NameClientRequest, c.trace.Track,
		tstart, end-tstart, int64(kind), tid)
}

// Do sends one request and waits for a terminal response, resending
// after the server's backoff hint for as long as it answers
// RETRY_AFTER (the server guarantees a RETRY_AFTER'd request was not
// applied, so the resend is safe for non-idempotent ops too).
func (c *Client) Do(q *proto.Request) (proto.Response, error) {
	for {
		p, err := c.DoOnce(q)
		if err != nil || !p.Status.Retryable() {
			return p, err
		}
		c.retries.Add(1)
		backoff := p.RetryAfter
		if backoff <= 0 {
			backoff = 100 * time.Microsecond
		}
		time.Sleep(backoff) //lint:allow walltime wire-level retry backoff against a real server
	}
}

// Retries returns the number of RETRY_AFTER-triggered resends.
func (c *Client) Retries() int64 { return c.retries.Load() }

func (c *Client) closeErr() error {
	if c.closed.Load() {
		return ErrClientClosed
	}
	if err := c.readErr; err != nil {
		return err
	}
	return ErrClientClosed
}

// Close tears the connection down; outstanding and future Do calls
// fail. Idempotent.
func (c *Client) Close() error {
	c.closed.Store(true)
	var err error
	c.closeOne.Do(func() { err = c.c.Close() })
	return err
}
