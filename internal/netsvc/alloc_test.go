package netsvc

import (
	"fmt"
	"runtime"
	"testing"

	"memsnap/internal/obs"
	"memsnap/internal/proto"
	"memsnap/internal/shard"
)

// maxAllocsPerOp is the CI-enforced ceiling on whole-process
// steady-state heap allocations per network op (server + lean client
// over loopback TCP). The serving path is designed to stay flat: the
// frame reader reuses one buffer, request structs are pooled, tenant
// and key strings are interned per connection, and the client reuses
// its pair of send buffers, and a shard reuses its batch, group-commit
// and key scratch — what remains is amortized growth. Measured ~0.03
// allocs/op; the ceiling leaves headroom for runtime noise, not for
// regressions.
const maxAllocsPerOp = 24

// measureAllocsPerOp runs a warmed-up put/get mix through a loopback
// server and returns the steady-state whole-process allocations per op.
func measureAllocsPerOp(t *testing.T, svcCfg shard.Config, srvCfg Config, tune func(*shard.Service, *Client)) float64 {
	t.Helper()
	svc := newService(t, svcCfg)
	defer svc.Close()
	srv := startServer(t, svc, srvCfg)
	defer srv.Close()

	c, err := Dial(srv.Addr(), 4)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if tune != nil {
		tune(svc, c)
	}

	const keys = 64
	tenants := [][]byte{[]byte("acme"), []byte("globex")}
	keyb := make([][]byte, keys)
	for i := range keyb {
		keyb[i] = []byte(fmt.Sprintf("key%03d", i))
	}
	op := func(i int) {
		q := proto.Request{Tenant: tenants[i%len(tenants)], Key: keyb[i%keys], Value: uint64(i)}
		if i%4 == 0 {
			q.Kind = proto.KindPut
		} else {
			q.Kind = proto.KindGet
		}
		p, err := c.Do(&q)
		if err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
		if p.Status != proto.StatusOK {
			t.Fatalf("op %d status: %v", i, p.Status)
		}
	}

	// Warmup: fill intern tables, request pools, map buckets, bufio.
	for i := 0; i < 2*keys; i++ {
		op(i)
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	const ops = 2000
	for i := 0; i < ops; i++ {
		op(i)
	}
	runtime.ReadMemStats(&m1)
	perOp := float64(m1.Mallocs-m0.Mallocs) / ops
	t.Logf("steady-state allocations: %.2f/op (%d ops)", perOp, ops)
	return perOp
}

// TestSteadyStateAllocsPerOp pins the per-op allocation budget of the
// whole serving path: a put/get mix over a real loopback connection,
// measured with runtime.MemStats after a warmup that populates the
// intern tables and pools.
func TestSteadyStateAllocsPerOp(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement")
	}
	perOp := measureAllocsPerOp(t, shard.Config{Shards: 4}, Config{}, nil)
	if perOp > maxAllocsPerOp {
		t.Fatalf("steady-state allocations %.2f/op exceed the ceiling %d/op", perOp, maxAllocsPerOp)
	}
}

// TestSteadyStateAllocsPerOpObserved pins that the observability added
// to the serving path rides under the same ceiling: trace sampling at
// the default rate (client and server recorders armed) and per-tenant
// attribution on every commit. The sketch's Observe runs on every op;
// the trace path triggers only ~ops/DefaultSampleRate times — neither
// may move the steady-state budget.
func TestSteadyStateAllocsPerOpObserved(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement")
	}
	rec := obs.NewRecorder(1 << 14)
	svcCfg := shard.Config{
		Shards:   4,
		Recorder: rec,
		Tenants:  obs.NewTenantSketch(obs.DefaultTenantTopK),
	}
	tune := func(svc *shard.Service, c *Client) {
		c.EnableTracing(Tracing{
			Recorder: rec,
			Sampler:  obs.NewSampler(1, obs.DefaultSampleRate),
			Now:      svc.EndTime,
			Track:    obs.ClientTrack(0),
		})
	}
	perOp := measureAllocsPerOp(t, svcCfg, Config{Recorder: rec}, tune)
	if perOp > maxAllocsPerOp {
		t.Fatalf("sampled steady-state allocations %.2f/op exceed the ceiling %d/op", perOp, maxAllocsPerOp)
	}
}
