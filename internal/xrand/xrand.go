// Package xrand provides a small, fast, deterministic random number
// generator used throughout the simulator and the bandit agent.
//
// Determinism across Go releases matters for this project: every experiment
// in EXPERIMENTS.md must regenerate the exact same rows given the same
// seeds. Rather than depend on the (frozen but large) math/rand generator,
// we use SplitMix64 for seeding and xoshiro256** for the stream, both of
// which are tiny, well-studied, and trivially portable. The generator is
// also a reasonable stand-in for the cheap LFSR-style entropy a hardware
// agent would use for its epsilon-greedy coin flips.
//
// Rand is deliberately not safe for concurrent use, and the parallel
// experiment engine (internal/par, internal/harness) leans on that: every
// worker-pool job constructs its own Rand from a stable per-run sub-seed,
// so results are byte-identical at any worker count. Do not "fix" this by
// adding locks or sharing a Rand across goroutines — a shared stream would
// make output depend on scheduling order.
package xrand

import (
	"math"
	"math/bits"
)

// Rand is a deterministic pseudo-random number generator (xoshiro256**).
// It is not safe for concurrent use; give each goroutine its own Rand.
// The zero value is not usable; construct with New.
type Rand struct {
	s [4]uint64
}

// New returns a generator seeded from seed via SplitMix64, as recommended
// by the xoshiro authors. Two generators with the same seed produce
// identical streams.
func New(seed uint64) *Rand {
	r := &Rand{}
	sm := seed
	for i := range r.s {
		sm = splitMix64(&sm)
		r.s[i] = sm
	}
	// xoshiro must not be seeded with all zeros; SplitMix64 cannot produce
	// four consecutive zeros, but guard anyway for safety.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
	return r
}

// splitMix64 advances the SplitMix64 state and returns the next output.
func splitMix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 random bits.
func (r *Rand) Uint64() uint64 {
	var out uint64
	out, r.s[0], r.s[1], r.s[2], r.s[3] = Step(r.s[0], r.s[1], r.s[2], r.s[3])
	return out
}

// Step is one xoshiro256** step over a state held in four words: it
// returns the output and the successor state. Uint64 is Step over the
// generator's own state. Step inlines, so a kernel that draws many
// numbers can keep the state in registers: load it with State, step the
// locals, and store it back with SetState before anything else uses the
// generator.
func Step(s0, s1, s2, s3 uint64) (out, n0, n1, n2, n3 uint64) {
	out = rotl(s1*5, 7) * 9
	t := s1 << 17
	s2 ^= s0
	s3 ^= s1
	s1 ^= s2
	s0 ^= s3
	s2 ^= t
	return out, s0, s1, s2, rotl(s3, 45)
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn called with non-positive n")
	}
	// Lemire's multiply-shift rejection method for unbiased bounded output.
	un := uint64(n)
	v := r.Uint64()
	hi, lo := mul64(v, un)
	if lo < un {
		thresh := -un % un
		for lo < thresh {
			v = r.Uint64()
			hi, lo = mul64(v, un)
		}
	}
	return int(hi)
}

// mul64 returns the 128-bit product of a and b as (hi, lo). bits.Mul64
// compiles to the single widening-multiply instruction on 64-bit
// targets, and its result is the exact product, so swapping it in for
// the old long-multiplication arithmetic cannot change any stream.
func mul64(a, b uint64) (hi, lo uint64) {
	return bits.Mul64(a, b)
}

// Float64 returns a uniform float64 in [0, 1) with 53 bits of precision.
// Multiplying by the exactly representable 2^-53 gives bit-identical
// results to dividing by 2^53 (both scale the exponent only), and
// avoids a hardware divide on a very hot path.
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) * (1.0 / (1 << 53))
}

// Bool returns true with probability p. p outside [0,1] saturates.
func (r *Rand) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Coin is Bool(p) for a fixed p with the float comparison precomputed
// into an integer threshold, for hot loops that flip the same coin many
// times. Bool(p) tests Float64() < p, that is (u>>11)·2^-53 < p for the
// drawn word u. Scaling by 2^53 is exact, so for p in (0,1) the test is
// u>>11 < ceil(p·2^53), which is u < ceil(p·2^53)<<11. The coin also
// keeps Bool's edge cases: p <= 0 and p >= 1 draw nothing, and NaN draws
// one word and never hits.
type Coin struct {
	thr  uint64 // a flip hits when its word is below thr
	draw bool   // whether a flip consumes a word
}

// NewCoin returns the coin that flips like Bool(p).
func NewCoin(p float64) Coin {
	switch {
	case p != p:
		// uint64(NaN) is platform-defined, so NaN needs its own case.
		return Coin{draw: true}
	case p <= 0:
		return Coin{}
	case p >= 1:
		return Coin{thr: 1}
	}
	return Coin{thr: uint64(math.Ceil(p*(1<<53))) << 11, draw: true}
}

// Draws reports whether a flip consumes a word from the stream.
func (c Coin) Draws() bool { return c.draw }

// Hit is the flip's outcome for the drawn word u. A coin that does not
// draw must be given u = 0, which makes its fixed outcome fall out of
// the same comparison.
func (c Coin) Hit(u uint64) bool { return u < c.thr }

// NormFloat64 returns a normally distributed float64 with mean 0 and
// standard deviation 1, using the polar (Marsaglia) method.
func (r *Rand) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s >= 1 || s == 0 {
			continue
		}
		return u * math.Sqrt(-2*math.Log(s)/s)
	}
}

// Geometric returns a sample from the geometric distribution with success
// probability p: the number of failures before the first success. For
// p >= 1 it returns 0; p <= 0 panics (the distribution is undefined).
func (r *Rand) Geometric(p float64) int {
	if p <= 0 {
		panic("xrand: Geometric called with p <= 0")
	}
	if p >= 1 {
		return 0
	}
	u := r.Float64()
	if u == 0 {
		return 0
	}
	return int(math.Floor(math.Log(1-u) / math.Log(1-p)))
}

// State returns the generator's full internal state, for checkpointing.
// A generator restored from it with SetState continues the exact stream.
func (r *Rand) State() [4]uint64 { return r.s }

// SetState overwrites the generator's internal state with a value obtained
// from State. An all-zero state (never produced by State on a generator
// built with New) is replaced by a fixed non-zero seed word, because
// xoshiro's zero state is an absorbing fixed point.
func (r *Rand) SetState(s [4]uint64) {
	if s[0]|s[1]|s[2]|s[3] == 0 {
		s[0] = 0x9e3779b97f4a7c15
	}
	r.s = s
}
