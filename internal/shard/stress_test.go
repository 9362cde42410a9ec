package shard

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"memsnap/internal/sim"
)

// TestShardStress runs writers on all eight shards at once — each shard
// its own process — while a scraper reads Stats and ShardDigests. Four
// goroutines own a tenant each and mix blocking puts, adds and
// transfers with pipelined tagged adds, keeping an exact model of their
// keys. The shards must end at the model's sums, and every frame the
// allocator holds live must be mapped by some process. Meant for -race.
func TestShardStress(t *testing.T) {
	const (
		shards  = 8
		writers = 4
		keys    = 16
		rounds  = 600
		depth   = 8
	)
	sys := newSystem(t, shards)
	svc, err := New(sys, Config{Shards: shards, BatchSize: 8, RegionBytes: 512 << 10})
	if err != nil {
		t.Fatal(err)
	}
	name := func(k int) string { return fmt.Sprintf("k%02d", k) }

	stop := make(chan struct{})
	scraped := make(chan struct{})
	go func() {
		defer close(scraped)
		for {
			select {
			case <-stop:
				return
			default:
			}
			svc.Stats()
			if _, err := svc.ShardDigests(); err != nil {
				t.Errorf("ShardDigests: %v", err)
				return
			}
		}
	}()

	models := make([][]uint64, writers)
	var transfers atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		models[g] = make([]uint64, keys)
		wg.Add(1)
		go func(g int, model []uint64) {
			defer wg.Done()
			tenant := fmt.Sprintf("g%d", g)
			rng := sim.NewRNG(uint64(g) + 1)
			resp := make(chan Response, depth)
			for i := 0; i < rounds; i++ {
				k := rng.Intn(keys)
				v := 1 + rng.Uint64()%100
				switch i % 4 {
				case 0:
					if err := svc.Put(tenant, name(k), v); err != nil {
						t.Errorf("Put: %v", err)
						return
					}
					model[k] = v
				case 1:
					if _, err := svc.Add(tenant, name(k), v); err != nil {
						t.Errorf("Add: %v", err)
						return
					}
					model[k] += v
				case 2:
					to := -1
					for j := 1; j < keys && to < 0; j++ {
						if c := (k + j) % keys; svc.ShardOf(tenant, name(c)) == svc.ShardOf(tenant, name(k)) {
							to = c
						}
					}
					if to < 0 {
						continue
					}
					err := svc.Transfer(tenant, name(k), name(to), v)
					switch {
					case model[k] < v:
						if !errors.Is(err, ErrInsufficient) {
							t.Errorf("Transfer of %d from %d: %v, want ErrInsufficient", v, model[k], err)
							return
						}
					case err != nil:
						t.Errorf("Transfer: %v", err)
						return
					default:
						model[k] -= v
						model[to] += v
						transfers.Add(1)
					}
				case 3:
					for d := 0; d < depth; d++ {
						kd := (k + d) % keys
						if err := svc.DoTagged(Op{Kind: OpAdd, Tenant: tenant, Key: name(kd), Value: v}, uint64(d), resp); err != nil {
							t.Errorf("DoTagged: %v", err)
							return
						}
						model[kd] += v
					}
					for d := 0; d < depth; d++ {
						if r := <-resp; r.Err != nil {
							t.Errorf("tagged Add: %v", r.Err)
							return
						}
					}
				}
			}
		}(g, models[g])
	}
	wg.Wait()
	close(stop)
	<-scraped
	if t.Failed() {
		svc.Close()
		return
	}

	if transfers.Load() == 0 {
		t.Error("no transfer succeeded")
	}
	want := make([]uint64, shards)
	for g, model := range models {
		for k, v := range model {
			want[svc.ShardOf(fmt.Sprintf("g%d", g), name(k))] += v
		}
	}
	got, err := svc.ShardSums()
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("shard %d sums to %d, model %d", i, got[i], want[i])
		}
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	st := sys.Phys().Stats()
	if live, mapped := st.TotalFrames-st.FreeFrames, sys.MappedFrames(); live != mapped {
		t.Errorf("the allocator holds %d live frames, the shards' processes map %d", live, mapped)
	}
}
