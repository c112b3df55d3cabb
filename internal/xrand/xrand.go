// Package xrand provides a small, fast, deterministic pseudo-random number
// generator used to sample fault locations and bit positions.
//
// Fault-injection campaigns must be exactly reproducible: a campaign is
// identified by (program, technique, configuration, N, seed), and every
// experiment derives its own independent stream from the campaign seed and
// the experiment index. xrand implements SplitMix64 for seeding and
// xoshiro256** for the stream, both with well-studied statistical quality
// and zero allocation.
package xrand

import "math/bits"

// SplitMix64 advances the given state and returns the next 64-bit output.
// It is used to derive independent seeds: successive calls on a shared
// state produce decorrelated values.
func SplitMix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Rand is a xoshiro256** generator. The zero value is not usable; construct
// one with New.
type Rand struct {
	s [4]uint64
}

// New returns a generator seeded from seed via SplitMix64, guaranteeing a
// non-degenerate internal state for every seed, including zero.
func New(seed uint64) *Rand {
	var r Rand
	r.Reseed(seed)
	return &r
}

// ForExperiment returns a generator for experiment index idx of a campaign
// with the given seed. Streams for distinct (seed, idx) pairs are
// decorrelated, so campaigns are reproducible independently of how
// experiments are scheduled across workers.
func ForExperiment(seed, idx uint64) *Rand {
	var r Rand
	r.SeedExperiment(seed, idx)
	return &r
}

// SeedExperiment resets r in place to the stream ForExperiment(seed, idx)
// returns, so a campaign worker reuses one generator for all of its
// experiments.
func (r *Rand) SeedExperiment(seed, idx uint64) {
	st := seed ^ 0x6a09e667f3bcc909
	_ = SplitMix64(&st)
	st ^= idx * 0x9e3779b97f4a7c15
	r.Reseed(SplitMix64(&st))
}

// Reseed resets the generator state from seed.
func (r *Rand) Reseed(seed uint64) {
	st := seed
	r.s[0] = SplitMix64(&st)
	r.s[1] = SplitMix64(&st)
	r.s[2] = SplitMix64(&st)
	r.s[3] = SplitMix64(&st)
}

func rotl(x uint64, k uint) uint64 { return x<<k | x>>(64-k) }

// Uint64 returns the next value in the stream.
func (r *Rand) Uint64() uint64 {
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

// Uint64n returns a uniformly distributed value in [0, n). It panics if
// n == 0. Lemire's multiply-shift rejection method avoids modulo bias.
func (r *Rand) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("xrand: Uint64n with n == 0")
	}
	// Fast path for powers of two.
	if n&(n-1) == 0 {
		return r.Uint64() & (n - 1)
	}
	threshold := -n % n
	for {
		v := r.Uint64()
		hi, lo := bits.Mul64(v, n)
		if lo >= threshold {
			return hi
		}
	}
}

// Intn returns a uniformly distributed int in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with n <= 0")
	}
	return int(r.Uint64n(uint64(n)))
}

// IntRange returns a uniformly distributed int in [lo, hi]. It panics if
// hi < lo.
func (r *Rand) IntRange(lo, hi int) int {
	if hi < lo {
		panic("xrand: IntRange with hi < lo")
	}
	return lo + r.Intn(hi-lo+1)
}

// Float64 returns a uniformly distributed float64 in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) * (1.0 / (1 << 53))
}

// DistinctBits returns a mask with k distinct bits set, each chosen
// uniformly from the low `width` bit positions. k is clamped to width.
func (r *Rand) DistinctBits(k, width int) uint64 {
	if width <= 0 || width > 64 {
		panic("xrand: DistinctBits width out of range")
	}
	if k > width {
		k = width
	}
	var mask uint64
	for set := 0; set < k; {
		bit := uint64(1) << uint(r.Intn(width))
		if mask&bit == 0 {
			mask |= bit
			set++
		}
	}
	return mask
}
