package obs

import (
	"io"
	"sort"
	"sync"
	"time"
)

// TenantSketch is a space-saving top-K heavy-hitter sketch charging
// work to tenants on the shard commit path: operations, wire bytes and
// commit-latency sum per tenant, in O(K) memory regardless of how many
// tenants exist. The classic space-saving guarantee applies to the op
// counts: every tenant whose true op count exceeds total/K is present,
// and a reported count overestimates the truth by at most that entry's
// ErrFloor (the count it inherited when it evicted the previous
// minimum). Byte and latency sums restart at eviction, so for
// long-lived heavy hitters they converge on the truth and for churning
// small tenants they are best-effort — exactly the attribution
// question ("which tenant is burning the wire *now*") the sketch
// exists to answer.
//
// The update path is allocation-free at steady state (netsvc
// TestSteadyStateAllocsPerOpObserved runs it on every op): a map hit plus
// three adds under one mutex; an eviction rewrites one slot and two
// map entries of a pre-sized map. A nil *TenantSketch ignores updates,
// so the shard worker calls unconditionally.

// DefaultTenantTopK is the sketch width production binaries default to.
const DefaultTenantTopK = 64

// TenantStat is one sketch entry as reported by Top.
type TenantStat struct {
	Tenant string `json:"tenant"`
	// Ops is the (over)estimated operation count; the true count lies
	// in [Ops-ErrFloor, Ops].
	Ops uint64 `json:"ops"`
	// ErrFloor is the space-saving overestimation bound for Ops.
	ErrFloor uint64 `json:"ops_error_floor"`
	// WireBytes sums the request frame bytes since this tenant last
	// entered the sketch.
	WireBytes uint64 `json:"wire_bytes"`
	// CommitLatency sums commit (write) / completion (read) latency
	// since this tenant last entered the sketch.
	CommitLatency time.Duration `json:"commit_latency_nanos"`
}

type tenantSlot struct {
	tenant   string
	ops      uint64
	errFloor uint64
	bytes    uint64
	lat      time.Duration
}

// TenantSketch tracks the top-K tenants by operation count.
type TenantSketch struct {
	mu    sync.Mutex
	slots []tenantSlot
	index map[string]int
}

// NewTenantSketch returns a sketch of width k (k <= 0 uses
// DefaultTenantTopK).
func NewTenantSketch(k int) *TenantSketch {
	if k <= 0 {
		k = DefaultTenantTopK
	}
	return &TenantSketch{
		slots: make([]tenantSlot, 0, k),
		index: make(map[string]int, k),
	}
}

// Observe charges one completed operation to tenant: wireBytes of
// request frame and lat of commit (or completion) latency. Safe for
// concurrent use; no-op on a nil sketch or an empty tenant (internal
// probes carry no tenant).
func (s *TenantSketch) Observe(tenant string, wireBytes uint32, lat time.Duration) {
	if s == nil || tenant == "" {
		return
	}
	s.mu.Lock()
	if i, ok := s.index[tenant]; ok {
		s.slots[i].ops++
		s.slots[i].bytes += uint64(wireBytes)
		s.slots[i].lat += lat
		s.mu.Unlock()
		return
	}
	if len(s.slots) < cap(s.slots) {
		s.index[tenant] = len(s.slots)
		s.slots = append(s.slots, tenantSlot{tenant: tenant, ops: 1, bytes: uint64(wireBytes), lat: lat})
		s.mu.Unlock()
		return
	}
	// Space-saving eviction: the new tenant inherits the minimum count
	// plus one, with that minimum recorded as its error floor.
	min := 0
	for i := 1; i < len(s.slots); i++ {
		if s.slots[i].ops < s.slots[min].ops {
			min = i
		}
	}
	delete(s.index, s.slots[min].tenant)
	s.slots[min] = tenantSlot{
		tenant:   tenant,
		ops:      s.slots[min].ops + 1,
		errFloor: s.slots[min].ops,
		bytes:    uint64(wireBytes),
		lat:      lat,
	}
	s.index[tenant] = min
	s.mu.Unlock()
}

// Top returns the sketch entries ordered by descending op count
// (tenant name breaks ties), so the output is deterministic for a
// deterministic workload. Cold path; allocates the returned slice.
func (s *TenantSketch) Top() []TenantStat {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	out := make([]TenantStat, len(s.slots))
	for i, sl := range s.slots {
		out[i] = TenantStat{
			Tenant:        sl.tenant,
			Ops:           sl.ops,
			ErrFloor:      sl.errFloor,
			WireBytes:     sl.bytes,
			CommitLatency: sl.lat,
		}
	}
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Ops != out[j].Ops {
			return out[i].Ops > out[j].Ops
		}
		return out[i].Tenant < out[j].Tenant
	})
	return out
}

// tenantFamilies are the memsnap_tenant_* series, one sample per tracked
// tenant. Counts are exposed as gauges: space-saving entries can reset
// at eviction, which would violate counter monotonicity.
var tenantFamilies = []Family[TenantStat]{
	Gauge("memsnap_tenant_ops", "Estimated operations per top-K tenant (space-saving sketch; see _ops_error_floor).",
		func(t *TenantStat) uint64 { return t.Ops }),
	Gauge("memsnap_tenant_ops_error_floor", "Space-saving overestimation bound for memsnap_tenant_ops.",
		func(t *TenantStat) uint64 { return t.ErrFloor }),
	Gauge("memsnap_tenant_wire_bytes", "Request wire bytes per top-K tenant since sketch entry.",
		func(t *TenantStat) uint64 { return t.WireBytes }),
	Gauge("memsnap_tenant_commit_latency_seconds_sum", "Summed commit latency per top-K tenant since sketch entry.",
		func(t *TenantStat) time.Duration { return t.CommitLatency }),
}

// WriteProm writes the sketch's tenant gauges in the Prometheus text
// format, tenants in Top order.
func (s *TenantSketch) WriteProm(w io.Writer) error {
	if s == nil {
		return nil
	}
	return WriteFamilies(w, "tenant", func(t *TenantStat) string { return t.Tenant }, s.Top(), tenantFamilies)
}
