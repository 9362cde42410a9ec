package workload

import "memsnap/internal/sim"

// YCSBKind is one operation kind in the YCSB-style mixed workload.
type YCSBKind int

// YCSB operation kinds. The generator draws them from a configured
// ratio mix, so any of the standard YCSB core workloads (A: 50/50
// read/update, B: 95/5, C: read-only, F: read-modify-write) — and
// arbitrary custom mixes — come from one generator.
const (
	// YCSBRead reads an existing key.
	YCSBRead YCSBKind = iota
	// YCSBUpdate overwrites an existing key.
	YCSBUpdate
	// YCSBInsert writes a fresh key just past the loaded keyspace,
	// growing it (later reads/updates can then pick the new key).
	YCSBInsert
	// YCSBRMW reads an existing key and writes it back modified — the
	// workload-F read-modify-write transaction.
	YCSBRMW
)

// YCSBOp is one generated operation.
type YCSBOp struct {
	Kind YCSBKind
	// Key is the record id in [0, Records+inserts).
	Key int64
	// Value is the deterministic payload for writes (update, insert,
	// and the write half of RMW).
	Value uint64
}

// YCSBConfig parameterizes the mixed-ratio generator.
type YCSBConfig struct {
	// Records is the loaded keyspace size (default 4096).
	Records int64
	// ReadPct, UpdatePct, InsertPct, RMWPct are the operation mix in
	// percent; they must sum to 100 once filled (an all-zero mix
	// defaults to workload A: 50 read / 50 update).
	ReadPct, UpdatePct, InsertPct, RMWPct int
	// Theta is the zipfian skew exponent over the keyspace
	// (0 < Theta < 1; YCSB default 0.99 ~ hot-key heavy). Theta == 0
	// selects uniform key choice.
	Theta float64
}

func (c *YCSBConfig) fill() {
	if c.Records <= 0 {
		c.Records = 4096
	}
	if c.ReadPct == 0 && c.UpdatePct == 0 && c.InsertPct == 0 && c.RMWPct == 0 {
		c.ReadPct, c.UpdatePct = 50, 50
	}
}

// Standard YCSB core mixes (zipfian 0.99 unless noted).

// YCSBWorkloadA is the update-heavy mix: 50% read / 50% update.
func YCSBWorkloadA() YCSBConfig { return YCSBConfig{ReadPct: 50, UpdatePct: 50, Theta: 0.99} }

// YCSBWorkloadB is the read-mostly mix: 95% read / 5% update.
func YCSBWorkloadB() YCSBConfig { return YCSBConfig{ReadPct: 95, UpdatePct: 5, Theta: 0.99} }

// YCSBWorkloadF is read-modify-write: 50% read / 50% RMW.
func YCSBWorkloadF() YCSBConfig { return YCSBConfig{ReadPct: 50, RMWPct: 50, Theta: 0.99} }

// YCSB generates a YCSB-style mixed-ratio KV workload with optional
// zipfian hot-key skew, deterministic from its seed. Inserts grow the
// keyspace; the zipfian sampler maps its rank space onto the current
// keyspace size so hot ranks stay hot as the space grows.
type YCSB struct {
	cfg      YCSBConfig
	rng      *sim.RNG
	zipf     *sim.Zipf
	inserted int64
}

// NewYCSB returns a generator for cfg seeded with seed.
func NewYCSB(seed uint64, cfg YCSBConfig) *YCSB {
	cfg.fill()
	y := &YCSB{cfg: cfg, rng: sim.NewRNG(seed)}
	if cfg.Theta > 0 {
		y.zipf = sim.NewZipf(cfg.Records, cfg.Theta)
	}
	return y
}

// Keys returns the current keyspace size (loaded records + inserts).
func (y *YCSB) Keys() int64 { return y.cfg.Records + y.inserted }

// pick selects an existing key: zipfian rank scaled onto the current
// keyspace, or uniform when Theta == 0.
func (y *YCSB) pick() int64 {
	n := y.Keys()
	if y.zipf == nil {
		return y.rng.Int63n(n)
	}
	k := y.zipf.Next(y.rng)
	if n != y.cfg.Records {
		// Scale the sampler's rank space onto the grown keyspace so
		// insert-heavy mixes keep a stationary skew without rebuilding
		// the sampler per insert.
		k = k * n / y.cfg.Records
		if k >= n {
			k = n - 1
		}
	}
	return k
}

// Next returns the next operation.
func (y *YCSB) Next() YCSBOp {
	p := y.rng.Intn(100)
	switch {
	case p < y.cfg.ReadPct:
		return YCSBOp{Kind: YCSBRead, Key: y.pick()}
	case p < y.cfg.ReadPct+y.cfg.UpdatePct:
		k := y.pick()
		return YCSBOp{Kind: YCSBUpdate, Key: k, Value: y.rng.Uint64() % (1 << 32)}
	case p < y.cfg.ReadPct+y.cfg.UpdatePct+y.cfg.InsertPct:
		k := y.cfg.Records + y.inserted
		y.inserted++
		return YCSBOp{Kind: YCSBInsert, Key: k, Value: y.rng.Uint64() % (1 << 32)}
	default:
		return YCSBOp{Kind: YCSBRMW, Key: y.pick(), Value: 1 + y.rng.Uint64()%997}
	}
}
