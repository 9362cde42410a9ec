package netsvc

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"memsnap/internal/obs"
	"memsnap/internal/proto"
	"memsnap/internal/shard"
)

// maxAllocsPerOp is the ceiling on whole-process steady-state heap
// allocations per network op (server + lean client over loopback TCP).
// The serving path is designed to allocate nothing per op: the frame
// reader reuses one buffer, request structs are pooled, tenant and key
// strings are interned per connection, the client reuses its pair of
// send buffers, and a shard reuses its batch, group-commit and key
// scratch. What remains is runtime background work: measured 0.00-0.02
// allocs/op, serial or with four pipelined callers. One escaping
// allocation per request costs 1/op and one per writer batch about
// 0.3/op, so the ceiling sits well below both.
const maxAllocsPerOp = 0.08

// measureAllocsPerOp runs a warmed-up put/get mix through a loopback
// server from callers goroutines sharing one depth-4 client and returns
// the steady-state whole-process allocations per op. One caller takes
// the server's lone-request path (the reader answers); several keep
// requests in flight, so the connection's writer answers them.
func measureAllocsPerOp(t *testing.T, svcCfg shard.Config, srvCfg Config, callers int, tune func(*shard.Service, *Client)) float64 {
	t.Helper()
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	if testing.Short() {
		t.Skip("allocation measurement")
	}
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
	op := func(i int) bool {
		q := proto.Request{Tenant: tenants[i%len(tenants)], Key: keyb[i%keys], Value: uint64(i)}
		if i%4 == 0 {
			q.Kind = proto.KindPut
		} else {
			q.Kind = proto.KindGet
		}
		p, err := c.Do(&q)
		if err != nil {
			t.Errorf("op %d: %v", i, err)
			return false
		}
		if p.Status != proto.StatusOK {
			t.Errorf("op %d status: %v", i, p.Status)
			return false
		}
		return true
	}
	// run does ops operations split over the callers and returns the
	// allocations per op. The callers are started and parked before the
	// first count, so their own start-up is not counted.
	run := func(ops int) float64 {
		start := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < callers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				<-start
				for i := g; i < ops; i += callers {
					if !op(i) {
						return
					}
				}
			}(g)
		}
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		close(start)
		wg.Wait()
		runtime.ReadMemStats(&m1)
		return float64(m1.Mallocs-m0.Mallocs) / float64(ops)
	}

	// Warmup: fill intern tables, request pools, map buckets, bufio.
	run(2 * keys * callers)
	const ops = 2000
	perOp := run(ops)
	if t.Failed() {
		t.FailNow()
	}
	t.Logf("steady-state allocations: %.3f/op (%d ops, %d callers)", perOp, ops, callers)
	return perOp
}

// TestSteadyStateAllocsPerOp pins the per-op allocation budget of the
// whole serving path: a put/get mix over a real loopback connection,
// measured with runtime.MemStats after a warmup that populates the
// intern tables and pools.
func TestSteadyStateAllocsPerOp(t *testing.T) {
	perOp := measureAllocsPerOp(t, shard.Config{Shards: 4}, Config{}, 1, nil)
	if perOp > maxAllocsPerOp {
		t.Fatalf("steady-state allocations %.3f/op exceed the ceiling %v/op", perOp, maxAllocsPerOp)
	}
}

// TestSteadyStateAllocsPerOpObserved pins that the observability added
// to the serving path rides under the same ceiling: trace sampling at
// the default rate (client and server recorders armed) and per-tenant
// attribution on every commit. The sketch's Observe runs on every op;
// the trace path triggers only ~ops/DefaultSampleRate times — neither
// may move the steady-state budget.
func TestSteadyStateAllocsPerOpObserved(t *testing.T) {
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
	perOp := measureAllocsPerOp(t, svcCfg, Config{Recorder: rec}, 1, tune)
	if perOp > maxAllocsPerOp {
		t.Fatalf("sampled steady-state allocations %.3f/op exceed the ceiling %v/op", perOp, maxAllocsPerOp)
	}
}

// TestSteadyStateAllocsPerOpPipelined is the same mix from four
// concurrent callers on the depth-4 client: requests overlap, so the
// server's reader queues them to the shards and the connection's
// writer batches the replies, and the client's callers share its
// flusher.
func TestSteadyStateAllocsPerOpPipelined(t *testing.T) {
	perOp := measureAllocsPerOp(t, shard.Config{Shards: 4}, Config{}, 4, nil)
	if perOp > maxAllocsPerOp {
		t.Fatalf("pipelined steady-state allocations %.3f/op exceed the ceiling %v/op", perOp, maxAllocsPerOp)
	}
}
