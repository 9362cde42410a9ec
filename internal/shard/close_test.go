package shard

import (
	"fmt"
	"testing"
	"time"

	"memsnap/internal/sim"
)

// TestCloseIdempotent: Close may be called any number of times; every
// call after the first is a nil-error no-op, and submissions racing or
// following Close fail with ErrClosed instead of being silently lost.
func TestCloseIdempotent(t *testing.T) {
	sys := newSystem(t, 2)
	svc, err := New(sys, Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Put("t", "a", 1); err != nil {
		t.Fatal(err)
	}
	if err := svc.Close(); err != nil {
		t.Fatalf("first Close = %v", err)
	}
	if err := svc.Close(); err != nil {
		t.Fatalf("second Close = %v; want nil", err)
	}
	if err := svc.Close(); err != nil {
		t.Fatalf("third Close = %v; want nil", err)
	}
	if err := svc.Put("t", "b", 1); err != ErrClosed {
		t.Fatalf("Put after Close = %v; want ErrClosed", err)
	}
	if err := svc.TryDoTagged(Op{Kind: OpPut, Tenant: "t", Key: "c", Value: 1}, 0, make(chan Response, 1)); err != ErrClosed {
		t.Fatalf("TryDoTagged after Close = %v; want ErrClosed", err)
	}
}

// TestCloseAfterCrash: cutting power on the backing array while the
// service is still up (the crash-injection pattern) must not make
// Close panic or hang — Close drains, stays idempotent, and later
// submissions get ErrClosed. The recommended crash-test order remains
// Close first, then CutPower bracketed by LastCommitSubmit /
// LastCommitDurable; this guards the reverse order staying safe.
func TestCloseAfterCrash(t *testing.T) {
	sys := newSystem(t, 2)
	svc, err := New(sys, Config{Shards: 2, BatchSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := svc.Put("t", fmt.Sprintf("k%02d", i), 1); err != nil {
			t.Fatal(err)
		}
	}
	// Leave unacknowledged work in flight, then crash the array.
	unread := make(chan Response, 8)
	for i := 0; i < 8; i++ {
		if err := svc.DoTagged(Op{Kind: OpAdd, Tenant: "t", Key: fmt.Sprintf("k%02d", i), Value: 1}, 0, unread); err != nil {
			t.Fatal(err)
		}
	}
	var cutAt time.Duration
	for _, st := range svc.Stats() {
		if st.LastCommitSubmit > cutAt {
			cutAt = st.LastCommitSubmit
		}
	}
	sys.Array().CutPower(cutAt+time.Nanosecond, sim.NewRNG(3))

	if err := svc.Close(); err != nil {
		t.Fatalf("Close after CutPower = %v", err)
	}
	if err := svc.Close(); err != nil {
		t.Fatalf("double Close after CutPower = %v; want nil", err)
	}
	if err := svc.Put("t", "late", 1); err != ErrClosed {
		t.Fatalf("Put after crash+Close = %v; want ErrClosed", err)
	}
}
