package sim

import "math/rand/v2"

// RNG is the deterministic randomness source shared by simulated components.
// Every experiment builds exactly one RNG from an explicit seed, so two runs
// with the same seed produce identical packet traces. Components derive
// sub-streams with Fork to stay independent of each other's draw order.
type RNG struct {
	r *rand.Rand
}

// NewRNG returns a deterministic generator seeded with seed.
func NewRNG(seed uint64) *RNG {
	return &RNG{r: rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))}
}

// Fork derives an independent sub-stream. The child's sequence depends only
// on the parent's state at the moment of the fork, so adding draws to one
// component never perturbs another component forked earlier.
func (g *RNG) Fork() *RNG {
	return &RNG{r: rand.New(rand.NewPCG(g.r.Uint64(), g.r.Uint64()))}
}

// Uint64 returns a uniformly distributed 64-bit value.
func (g *RNG) Uint64() uint64 { return g.r.Uint64() }

// Float64 returns a uniform value in [0,1).
func (g *RNG) Float64() float64 { return g.r.Float64() }

// IntN returns a uniform value in [0,n).
func (g *RNG) IntN(n int) int { return g.r.IntN(n) }

// ExpFloat64 returns an exponentially distributed value with mean 1. The
// dynamics layer draws Poisson interarrival gaps from it (gap = Exp/rate).
func (g *RNG) ExpFloat64() float64 { return g.r.ExpFloat64() }

// Jitter returns a uniform virtual duration in [0,max).
func (g *RNG) Jitter(max Time) Time {
	if max <= 0 {
		return 0
	}
	return Time(g.r.Int64N(int64(max)))
}
