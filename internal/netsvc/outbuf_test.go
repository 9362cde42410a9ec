package netsvc

import (
	"bytes"
	"errors"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"memsnap/internal/proto"
)

// recordingWriter is a socket that keeps every byte written to it and
// fails the test if two Writes overlap. From its failAt-th call on
// (failAt > 0) every Write fails. during, if set, runs inside the
// first Write.
type recordingWriter struct {
	t      *testing.T
	busy   atomic.Bool
	failAt int
	during func()

	mu    sync.Mutex
	calls int
	got   []byte
}

func (w *recordingWriter) Write(p []byte) (int, error) {
	if !w.busy.CompareAndSwap(false, true) {
		w.t.Error("two Writes overlap")
		return 0, errInjected
	}
	defer w.busy.Store(false)
	// Stay in Write across a reschedule, so appenders run meanwhile.
	runtime.Gosched()
	w.mu.Lock()
	defer w.mu.Unlock()
	w.calls++
	if w.calls == 1 && w.during != nil {
		w.during()
	}
	if w.failAt > 0 && w.calls >= w.failAt {
		return 0, errInjected
	}
	w.got = append(w.got, p...)
	return len(p), nil
}

// record is appender g's i-th frame: a ping whose id carries both.
func record(g, i int) *proto.Request {
	return &proto.Request{ID: uint64(g)<<32 | uint64(i), Kind: proto.KindPing}
}

// appendAndFlush has appenders goroutines each append records records
// and flush after every one, and returns how many flush calls returned
// an error.
func appendAndFlush(t *testing.T, b *outBuf, appenders, records int) int {
	var wg sync.WaitGroup
	var failed atomic.Int64
	for g := 0; g < appenders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < records; i++ {
				if err := b.appendRequest(record(g, i)); err != nil && !errors.Is(err, errInjected) {
					t.Error(err)
				}
				if b.flush() != nil {
					failed.Add(1)
				}
			}
		}(g)
	}
	wg.Wait()
	return int(failed.Load())
}

// TestOutBufOneFlusher: appenders that flush concurrently elect one
// flusher at a time. Every record reaches the socket exactly once, in
// each appender's own order, and nothing is left behind once every
// caller has returned — with and without the yield before each Write.
func TestOutBufOneFlusher(t *testing.T) {
	const appenders, records = 8, 400
	for _, yield := range []bool{false, true} {
		w := &recordingWriter{t: t}
		b := &outBuf{w: w, yield: yield}
		if n := appendAndFlush(t, b, appenders, records); n != 0 {
			t.Fatalf("yield %v: %d flushes failed on a healthy socket", yield, n)
		}
		checkRecords(t, b, w, appenders, records)
		t.Logf("yield %v: %d records in %d writes", yield, appenders*records, w.calls)
	}

	// A caller that appends while the flusher is in Write returns at
	// once and leaves its record to the flusher, which must write it
	// before it returns.
	w := &recordingWriter{t: t}
	b := &outBuf{w: w}
	w.during = func() {
		done := make(chan error)
		go func() {
			if err := b.appendRequest(record(1, 0)); err != nil {
				done <- err
				return
			}
			done <- b.flush()
		}()
		if err := <-done; err != nil {
			t.Errorf("the caller behind the flusher: %v", err)
		}
	}
	if err := b.appendRequest(record(0, 0)); err != nil {
		t.Fatal(err)
	}
	if err := b.flush(); err != nil {
		t.Fatal(err)
	}
	checkRecords(t, b, w, 2, 1)
}

// checkRecords fails the test unless the socket received records
// records from each of appenders appenders, each exactly once and in
// its appender's order, with nothing left pending.
func checkRecords(t *testing.T, b *outBuf, w *recordingWriter, appenders, records int) {
	t.Helper()
	if len(b.pending) != 0 || b.flushing {
		t.Fatalf("%d bytes left pending (flushing %v) after every caller returned", len(b.pending), b.flushing)
	}
	next := make([]int, appenders)
	fr := proto.NewFrameReader(bytes.NewReader(w.got), 0)
	var q proto.Request
	n := 0
	for ; ; n++ {
		payload, err := fr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := proto.DecodeRequest(payload, &q); err != nil {
			t.Fatal(err)
		}
		g, i := int(q.ID>>32), int(q.ID&0xffffffff)
		if g >= appenders || i != next[g] {
			t.Fatalf("record %d of appender %d arrived where %d was next", i, g, next[g])
		}
		next[g]++
	}
	if n != appenders*records {
		t.Fatalf("socket got %d records, want %d", n, appenders*records)
	}
}

// TestOutBufFailedWrite: a Write that fails breaks the buffer. Exactly
// one caller — the flusher — sees the error, no Write follows it, and
// every later append is dropped and returns the error.
func TestOutBufFailedWrite(t *testing.T) {
	const appenders, records, failAt = 8, 100, 3
	w := &recordingWriter{t: t, failAt: failAt}
	b := &outBuf{w: w}
	if n := appendAndFlush(t, b, appenders, records); n != 1 {
		t.Fatalf("%d callers saw the write error, want exactly 1", n)
	}
	if w.calls != failAt {
		t.Fatalf("%d Writes after the one that failed", w.calls-failAt)
	}
	if err := b.appendRequest(record(0, records)); !errors.Is(err, errInjected) {
		t.Fatalf("append to a broken buffer returned %v, want the write error", err)
	}
	if n := b.appendResponse(&proto.Response{ID: 1}); n != 0 || len(b.pending) != 0 {
		t.Fatalf("append to a broken buffer kept %d bytes, %d pending", n, len(b.pending))
	}
	if err := b.flush(); err != nil || w.calls != failAt {
		t.Fatalf("flush of a broken buffer: %v, %d Writes", err, w.calls)
	}
}
