package sim

import "math"

// RNG is a small, fast, deterministic random number generator
// (splitmix64 seeded xoshiro256**). Every workload generator in this
// repository takes an explicit *RNG so experiments are reproducible
// bit-for-bit from a seed.
type RNG struct {
	s [4]uint64
}

// NewRNG returns a generator seeded from seed via splitmix64.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	for i := range r.s {
		seed += 0x9e3779b97f4a7c15
		z := seed
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		r.s[i] = z ^ (z >> 31)
	}
	return r
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 {
	s := &r.s
	result := rotl(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = rotl(s[3], 45)
	return result
}

// Intn returns a uniform int in [0, n). n must be positive.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Int63n returns a uniform int64 in [0, n).
func (r *RNG) Int63n(n int64) int64 {
	if n <= 0 {
		panic("sim: Int63n with non-positive n")
	}
	return int64(r.Uint64() % uint64(n))
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Pareto returns a sample from a generalized Pareto distribution with
// the given scale and shape, truncated to [0, max). MixGraph uses a
// Pareto key-popularity distribution for writes.
func (r *RNG) Pareto(scale, shape float64, max int64) int64 {
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	var x float64
	if shape == 0 {
		x = -scale * math.Log(u)
	} else {
		x = scale * (math.Pow(u, -shape) - 1) / shape
	}
	v := int64(x)
	if v < 0 {
		v = 0
	}
	if max > 0 && v >= max {
		v = v % max
	}
	return v
}

// Zipf samples from a Zipf-like distribution over [0, n) with exponent
// theta (0 < theta < 1 typical for YCSB-style workloads). It uses the
// rejection-inversion-free approximation adequate for workload
// generation.
type Zipf struct {
	n     int64
	theta float64
	alpha float64
	zetan float64
	eta   float64
}

// NewZipf precomputes a Zipf sampler over [0, n).
func NewZipf(n int64, theta float64) *Zipf {
	if n <= 0 {
		panic("sim: NewZipf with non-positive n")
	}
	z := &Zipf{n: n, theta: theta}
	z.zetan = zeta(n, theta)
	z.alpha = 1 / (1 - theta)
	z.eta = (1 - math.Pow(2/float64(n), 1-theta)) / (1 - zeta(2, theta)/z.zetan)
	return z
}

func zeta(n int64, theta float64) float64 {
	// Cap the exact summation for huge n; the tail contributes little
	// and workload fidelity does not require more.
	const cap = 1 << 20
	m := n
	if m > cap {
		m = cap
	}
	var sum float64
	for i := int64(1); i <= m; i++ {
		sum += 1 / math.Pow(float64(i), theta)
	}
	if n > m {
		// Integral approximation of the remaining tail.
		sum += (math.Pow(float64(n), 1-theta) - math.Pow(float64(m), 1-theta)) / (1 - theta)
	}
	return sum
}

// Next returns the next Zipf sample in [0, z.n).
func (z *Zipf) Next(r *RNG) int64 {
	u := r.Float64()
	uz := u * z.zetan
	if uz < 1 {
		return 0
	}
	if uz < 1+math.Pow(0.5, z.theta) {
		return 1
	}
	v := int64(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
	if v >= z.n {
		v = z.n - 1
	}
	if v < 0 {
		v = 0
	}
	return v
}
