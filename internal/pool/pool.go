// Package pool provides sync.Pool-backed object pools for the persist
// hot path: fixed-size page buffers and generic scratch slices.
//
// Both pools hand out and take back pointer-shaped handles, never raw
// slice headers, so a steady-state Get/Put cycle performs no interface
// boxing and therefore no heap allocation. Counters track every
// Get/Put, giving tests a leak-check hook: after a balanced
// workload InUse must return to its pre-workload value.
//
// Releasing is always optional for correctness — an unreleased buffer
// is simply collected by the GC — but a *double* release corrupts the
// pool (two owners of one buffer), so ownership-transferring APIs in
// the layers above nil out their references when they hand a buffer
// on. A page that must outlive its first holder is shared, not copied:
// Retain adds a holder, every holder owes exactly one Release, and the
// page goes back to the pool with the last of them. A Release past the
// last holder panics rather than hand the page out twice; one that
// lands after the page was handed out again cannot be told apart, so
// the InUse audits in the layers above stay the leak check.
package pool

import (
	"reflect"
	"sync"
	"sync/atomic"
)

// Stats is a point-in-time snapshot of a pool's traffic.
type Stats struct {
	// Gets counts buffers handed out; Puts counts buffers returned.
	Gets, Puts int64
}

// InUse is the number of buffers currently held by callers.
func (s Stats) InUse() int64 { return s.Gets - s.Puts }

type counters struct {
	gets, puts atomic.Int64
}

func (c *counters) stats() Stats {
	return Stats{Gets: c.gets.Load(), Puts: c.puts.Load()}
}

// Page is a pooled fixed-size buffer. Callers use Data and return the
// handle with Release; the handle must not be used after Release. A
// page starts with one holder (the Get caller); while it has more than
// one, every holder treats Data as read-only.
type Page struct {
	Data    []byte
	owner   *PagePool
	holders atomic.Int32
}

// Retain adds a holder: the page returns to its pool only after one
// Release per holder. Holders may live on different goroutines.
func (pg *Page) Retain() { pg.holders.Add(1) }

// Release drops one holder; the last one returns the page to its pool.
// Safe on a nil handle. Releasing more times than the page was held
// panics.
func (pg *Page) Release() {
	if pg == nil || pg.owner == nil {
		return
	}
	switch n := pg.holders.Add(-1); {
	case n > 0:
		return
	case n < 0:
		panic("pool: page released more times than it was held")
	}
	pg.owner.put(pg)
}

// PagePool is a sync.Pool of fixed-size page buffers.
type PagePool struct {
	p sync.Pool
	c counters
}

// NewPagePool returns a pool of size-byte pages.
func NewPagePool(size int) *PagePool {
	pp := &PagePool{}
	pp.p.New = func() any {
		return &Page{Data: make([]byte, size), owner: pp}
	}
	return pp
}

// Get returns a page of the pool's size with the caller as its only
// holder. Contents are undefined — the caller overwrites them.
func (pp *PagePool) Get() *Page {
	pp.c.gets.Add(1)
	pg := pp.p.Get().(*Page)
	pg.holders.Store(1)
	return pg
}

func (pp *PagePool) put(pg *Page) {
	pp.c.puts.Add(1)
	pp.p.Put(pg)
}

// Stats snapshots the pool counters.
func (pp *PagePool) Stats() Stats { return pp.c.stats() }

// SlicePool recycles []T scratch buffers (length 0, capacity
// preserved). Internally slices travel inside pooled *item wrappers:
// a full wrapper carries a slice, an empty one waits to carry the
// next Put, so neither direction boxes a slice header.
type SlicePool[T any] struct {
	full  sync.Pool // *item[T] with s != nil
	empty sync.Pool // *item[T] with s == nil
	c     counters
	// clearOnPut is decided once from T: only element types that carry
	// pointers can pin other objects from a recycled backing array, so
	// only those are zeroed on Put.
	clearOnPut bool
}

type item[T any] struct{ s []T }

// NewSlicePool returns an empty slice pool.
func NewSlicePool[T any]() *SlicePool[T] {
	return &SlicePool[T]{clearOnPut: hasPointers(reflect.TypeOf((*T)(nil)).Elem())}
}

// hasPointers reports whether a value of type t can reference other
// heap objects.
func hasPointers(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Bool,
		reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return false
	case reflect.Array:
		return t.Len() > 0 && hasPointers(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if hasPointers(t.Field(i).Type) {
				return true
			}
		}
		return false
	}
	return true
}

// Get returns a zero-length slice, freshly allocated with capHint
// capacity when the pool is empty.
func (p *SlicePool[T]) Get(capHint int) []T {
	p.c.gets.Add(1)
	if it, _ := p.full.Get().(*item[T]); it != nil {
		s := it.s
		it.s = nil
		p.empty.Put(it)
		return s
	}
	if capHint < 1 {
		capHint = 1
	}
	return make([]T, 0, capHint)
}

// Put recycles s. Pointer-carrying elements are zeroed first so the
// backing array does not retain references; pointer-free ones (bytes,
// extents) have nothing to drop and are left as they are — Get hands
// out length zero either way. Zero-capacity slices are dropped.
func (p *SlicePool[T]) Put(s []T) {
	if cap(s) == 0 {
		return
	}
	p.c.puts.Add(1)
	if p.clearOnPut {
		clear(s[:cap(s)])
	}
	it, _ := p.empty.Get().(*item[T])
	if it == nil {
		it = &item[T]{}
	}
	it.s = s[:0]
	p.full.Put(it)
}

// Stats snapshots the pool counters.
func (p *SlicePool[T]) Stats() Stats { return p.c.stats() }
