package netsvc

import (
	"io"
	"runtime"
	"sync"

	"memsnap/internal/proto"
)

// outBuf is the output side of one end of a connection: any goroutine
// appends frames, and one elected flusher writes them for everyone. Its
// two halves grow to the largest batch and are reused, so steady-state
// appends and flushes allocate nothing (TestSteadyStateAllocsPerOp,
// serial and pipelined).
type outBuf struct {
	mu       sync.Mutex
	pending  []byte // appended, not yet handed to Write
	spare    []byte // the other half of the double buffer
	flushing bool   // a flusher is writing, and will write pending too
	broken   error  // the failed Write's error; appends are dropped from then on
	w        io.Writer
	yield    bool // Gosched before each Write: a client deeper than 1 (DESIGN.md §10)
}

// appendRequest encodes q into pending. Once the buffer is broken it
// appends nothing and returns the write error.
func (b *outBuf) appendRequest(q *proto.Request) (err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.broken != nil {
		return b.broken
	}
	b.pending, err = proto.AppendRequest(b.pending, q)
	return err
}

// appendResponse encodes p into pending and returns its size; once the
// buffer is broken it appends nothing and returns 0.
func (b *outBuf) appendResponse(p *proto.Response) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.broken != nil {
		return 0
	}
	n := len(b.pending)
	b.pending = proto.AppendResponse(b.pending, p)
	return len(b.pending) - n
}

// flush writes everything appended so far. The caller that finds no
// flush in progress writes until pending is empty, swapping the halves
// so others can append meanwhile; any other caller returns nil at once.
// A failed Write breaks the buffer, drops what is left and returns the
// error to the flusher alone.
func (b *outBuf) flush() error {
	b.mu.Lock()
	if b.flushing {
		b.mu.Unlock()
		return nil
	}
	b.flushing = true
	var err error
	for b.broken == nil && len(b.pending) > 0 {
		if b.yield {
			b.mu.Unlock()
			runtime.Gosched()
			b.mu.Lock()
		}
		batch := b.pending
		b.pending = b.spare[:0]
		b.mu.Unlock()
		_, err = b.w.Write(batch)
		b.mu.Lock()
		b.spare = batch
		if err != nil {
			b.broken = err
			b.pending = b.pending[:0]
		}
	}
	b.flushing = false
	b.mu.Unlock()
	return err
}
