package obs

import "sync/atomic"

// Sampler decides, allocation-free and deterministically, which
// requests get a trace id. Sampling is 1-in-N on an atomic admission
// counter: for a fixed seed and a fixed request order the same
// requests are sampled with the same trace ids on every run, so
// traced workloads stay reproducible end to end. The unsampled
// fast path is one atomic add and one modulo — no locks, no
// allocation — which keeps the wire hot path under its allocation
// ceiling with sampling enabled (netsvc
// TestSteadyStateAllocsPerOpObserved).
//
// A nil *Sampler never samples, so call sites hold an optional
// sampler without branching on configuration.
type Sampler struct {
	seed uint64
	rate uint64 // sample 1 of every rate offered requests; 0: never
	n    atomic.Uint64
}

// DefaultSampleRate is the 1-in-N trace sampling rate production
// binaries default to: sparse enough that the sampled-path work is
// invisible in the allocs/op gates, dense enough that a load run of a
// few thousand ops yields several stitched traces.
const DefaultSampleRate = 1024

// NewSampler returns a sampler tracing 1 of every rate requests.
// rate <= 0 disables sampling; rate 1 traces everything (test rigs).
func NewSampler(seed uint64, rate int) *Sampler {
	if rate <= 0 {
		return &Sampler{seed: seed}
	}
	return &Sampler{seed: seed, rate: uint64(rate)}
}

// Sample admits one request: it returns a nonzero trace id and true
// when this request is sampled, 0 and false otherwise.
func (s *Sampler) Sample() (uint64, bool) {
	if s == nil || s.rate == 0 {
		return 0, false
	}
	n := s.n.Add(1)
	if n%s.rate != 0 {
		return 0, false
	}
	id := splitmix64(s.seed + n)
	if id == 0 {
		id = 1 // 0 means "untraced" everywhere downstream
	}
	return id, true
}

// splitmix64 is the standard 64-bit finalizer-style mixer; its output
// over distinct inputs is a bijection, so sampled requests of one
// seeded sampler never collide on trace id.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
