package harness

import (
	"fmt"
	"sync"

	"memsnap/internal/core"
	"memsnap/internal/shard"
)

// ShardSvc evaluates the sharded KV serving layer (internal/shard):
// throughput and group-commit latency across a shard-count x
// batch-size grid. Each configuration runs 4 client goroutines per
// shard, each keeping a window of asynchronous requests outstanding so
// workers can coalesce writes into group commits.
func ShardSvc(opts Options) (*Result, error) {
	opts = opts.fill()
	res := &Result{
		ID:     "shardsvc",
		Title:  "Sharded KV service: throughput vs shards x group-commit batch",
		Header: []string{"Shards", "Batch", "Kops/s", "Occupancy", "Commit p50 (us)", "Commit p99 (us)", "Commits"},
		Notes: []string{
			"4 async clients per shard, window of 16 outstanding ops each, 75% Add / 25% Get",
			fmt.Sprintf("%d ops per client (scale %.2f); throughput over max virtual elapsed across shard workers", opts.scaled(300), opts.Scale),
			"occupancy is mean write ops coalesced per group commit",
		},
	}
	for _, shards := range []int{4, 8, 16} {
		for _, batch := range []int{1, 16, 64} {
			row, err := shardSvcRun(shards, batch, opts)
			if err != nil {
				return nil, err
			}
			res.Rows = append(res.Rows, row)
		}
	}
	return res, nil
}

// shardSvcRun serves one grid cell: a fresh system, a service with the
// given shard count and batch cap, and 4 clients per shard issuing a
// windowed async stream of operations.
func shardSvcRun(shards, batch int, opts Options) ([]string, error) {
	sys, err := core.NewSystem(core.Options{CPUs: shards, DiskBytesEach: 512 << 20})
	if err != nil {
		return nil, err
	}
	svc, err := shard.New(sys, shard.Config{Shards: shards, BatchSize: batch})
	if err != nil {
		return nil, err
	}

	if err := windowedClients(svc, 4*shards, 16, opts.scaled(300), 8, 512); err != nil {
		return nil, err
	}

	st := svc.TotalStats()
	if err := svc.Close(); err != nil {
		return nil, err
	}
	kops := 0.0
	if st.Elapsed > 0 {
		kops = float64(st.Ops) / st.Elapsed.Seconds() / 1000
	}
	return []string{
		fmt.Sprintf("%d", shards),
		fmt.Sprintf("%d", batch),
		fmt.Sprintf("%.1f", kops),
		fmt.Sprintf("%.1f", st.BatchOccupancy),
		us(st.CommitHist.P50()),
		us(st.CommitHist.P99()),
		fmt.Sprintf("%d", st.Commits),
	}, nil
}

// windowedClients drives clients goroutines against svc, each keeping a
// window of requests outstanding through DoTagged over opsPer ops: three
// Adds to every Get, on a deterministic key walk over keys keys per
// tenant (no RNG, so runs are reproducible bit-for-bit), the clients
// spread round-robin over tenants tenants. It returns the first error.
func windowedClients(svc *shard.Service, clients, window, opsPer, tenants, keys int) error {
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			tenant := fmt.Sprintf("t%02d", c%tenants)
			// Op i reuses op i-window's channel, after waiting on it:
			// window ops stay outstanding, collected oldest first.
			resps := make([]chan shard.Response, window)
			for k := range resps {
				resps[k] = make(chan shard.Response, 1)
			}
			for i := 0; i < opsPer+window; i++ {
				ch := resps[i%window]
				if i >= window {
					if resp := <-ch; resp.Err != nil {
						errs <- resp.Err
						return
					}
				}
				if i >= opsPer {
					continue
				}
				key := fmt.Sprintf("k-%04d", (c*7919+i*613)%keys)
				op := shard.Op{Kind: shard.OpAdd, Tenant: tenant, Key: key, Value: 1}
				if i%4 == 3 {
					op = shard.Op{Kind: shard.OpGet, Tenant: tenant, Key: key}
				}
				if err := svc.DoTagged(op, 0, ch); err != nil {
					errs <- err
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	return <-errs
}
