package dist

import (
	"math/rand"
)

// RNG is a deterministic pseudo-random stream. It wraps math/rand with an
// explicit source so that independent simulation components can own
// independent streams derived from a single experiment seed.
//
// The zero value is not usable; construct streams with NewRNG or Split.
type RNG struct {
	r *rand.Rand
}

// NewRNG returns a stream seeded with seed.
func NewRNG(seed int64) *RNG {
	return &RNG{r: rand.New(rand.NewSource(seed))}
}

// Split derives a new, statistically independent stream from this one.
// Each call advances the parent stream, so the sequence of Split calls is
// itself deterministic.
func (g *RNG) Split() *RNG {
	// splitmix-style decorrelation of the child seed so that nearby parent
	// states do not produce overlapping child sequences.
	s := uint64(g.r.Int63())
	s ^= 0x9e3779b97f4a7c15
	s *= 0xbf58476d1ce4e5b9
	return NewRNG(int64(s & (1<<63 - 1)))
}

// Float64 returns a uniform sample in [0, 1).
func (g *RNG) Float64() float64 { return g.r.Float64() }

// Intn returns a uniform sample in [0, n). It panics if n <= 0, matching
// math/rand semantics.
func (g *RNG) Intn(n int) int { return g.r.Intn(n) }

// Int63 returns a non-negative 63-bit random integer.
func (g *RNG) Int63() int64 { return g.r.Int63() }

// ExpFloat64 returns an exponential sample with rate 1.
func (g *RNG) ExpFloat64() float64 { return g.r.ExpFloat64() }

// NormFloat64 returns a standard normal sample.
func (g *RNG) NormFloat64() float64 { return g.r.NormFloat64() }
