// Package sim provides the discrete-event simulation substrate used by the
// grid load-balancing experiments: a virtual clock, an event queue and a
// deterministic random number generator.
//
// The paper's case study runs in "test mode", where tasks are not actually
// executed and predicted execution times are assumed accurate (§3.2). Under
// test mode the whole ten-minute experiment is a deterministic function of
// the workload seed, so it can be replayed in virtual time.
package sim

import "math"

// RNG is a deterministic pseudo-random number generator based on
// xoshiro256** seeded via SplitMix64. It is self-contained so that
// experiment results do not depend on the Go runtime's math/rand
// implementation details and remain reproducible across Go releases.
//
// RNG is not safe for concurrent use; give each goroutine its own stream
// via Split.
type RNG struct {
	s [4]uint64
}

// NewRNG returns a generator seeded deterministically from seed.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	for i := range r.s {
		r.s[i] = SplitMix64(seed)
		seed += 0x9e3779b97f4a7c15
	}
	return r
}

// SplitMix64 is one step of the SplitMix64 generator from state x: it
// adds the golden-ratio increment and returns the mixed result, a
// well-spread 64-bit hash of x.
func SplitMix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// FNV1a hashes a string with 64-bit FNV-1a.
func FNV1a(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// Split derives an independent generator from the current stream. The
// derived stream is deterministic given the parent state.
func (r *RNG) Split() *RNG {
	return NewRNG(r.Uint64())
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next value in the stream.
func (r *RNG) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Float64 returns a uniformly distributed value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniformly distributed value in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn called with non-positive n")
	}
	// Lemire's multiply-shift rejection method for unbiased bounded values.
	bound := uint64(n)
	for {
		v := r.Uint64()
		hi, lo := mul64(v, bound)
		if lo >= bound || lo >= (-bound)%bound {
			return int(hi)
		}
	}
}

// mul64 returns the 128-bit product of a and b as (hi, lo).
func mul64(a, b uint64) (hi, lo uint64) {
	const mask = 1<<32 - 1
	a0, a1 := a&mask, a>>32
	b0, b1 := b&mask, b>>32
	w0 := a0 * b0
	t := a1*b0 + w0>>32
	w1 := t&mask + a0*b1
	hi = a1*b1 + t>>32 + w1>>32
	lo = a * b
	return hi, lo
}

// UniformIn returns a uniformly distributed value in [lo, hi]. When lo == hi
// the result is exactly lo. It panics if hi < lo.
func (r *RNG) UniformIn(lo, hi float64) float64 {
	if hi < lo {
		panic("sim: UniformIn called with hi < lo")
	}
	return lo + (hi-lo)*r.Float64()
}

// ExpFloat64 returns an exponentially distributed value with mean 1
// (rate 1), via inversion sampling. Scale by 1/λ for rate λ — the
// inter-arrival time of a Poisson process with rate λ is
// ExpFloat64()/λ. The result is strictly positive and finite:
// Float64 never returns 1, so the log argument stays in (0, 1].
func (r *RNG) ExpFloat64() float64 {
	return -math.Log(1 - r.Float64())
}

// IntIn returns a uniformly distributed integer in the inclusive range
// [lo, hi]. It panics if hi < lo.
func (r *RNG) IntIn(lo, hi int) int {
	if hi < lo {
		panic("sim: IntIn called with hi < lo")
	}
	return lo + r.Intn(hi-lo+1)
}

// Perm returns a pseudo-random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

// Shuffle pseudo-randomises the order of n elements using swap.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool {
	return r.Float64() < p
}
