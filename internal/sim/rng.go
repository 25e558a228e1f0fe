package sim

import (
	"math"
	"math/rand"
)

// RNG is the deterministic random source used by every stochastic model in
// the simulator. It wraps math/rand with the distributions the workload and
// trace models need. A nil *RNG is never valid; construct with NewRNG.
type RNG struct {
	r *rand.Rand
}

// NewRNG returns a source seeded with seed. Equal seeds yield identical
// streams, which keeps every experiment reproducible.
func NewRNG(seed int64) *RNG {
	return &RNG{r: rand.New(rand.NewSource(seed))}
}

// Fork derives an independent child stream. The child's sequence depends
// only on the parent's state at the time of the call, so forking at fixed
// points in setup code keeps component streams decoupled: drawing more
// numbers in one component does not perturb another.
func (g *RNG) Fork() *RNG { return NewRNG(g.r.Int63()) }

// Float64 returns a uniform number in [0, 1).
func (g *RNG) Float64() float64 { return g.r.Float64() }

// Intn returns a uniform integer in [0, n).
func (g *RNG) Intn(n int) int { return g.r.Intn(n) }

// Int63n returns a uniform int64 in [0, n).
func (g *RNG) Int63n(n int64) int64 { return g.r.Int63n(n) }

// Uint64 returns a uniform 64-bit value.
func (g *RNG) Uint64() uint64 { return g.r.Uint64() }

// Bool returns true with probability p.
func (g *RNG) Bool(p float64) bool { return g.r.Float64() < p }

// Exp returns an exponentially distributed value with the given mean.
func (g *RNG) Exp(mean float64) float64 { return g.r.ExpFloat64() * mean }

// Pareto returns a Pareto-distributed value with minimum xm and shape alpha.
// Used for VM lifetimes, which are heavy-tailed in the Azure trace.
func (g *RNG) Pareto(xm, alpha float64) float64 {
	u := g.r.Float64()
	for u == 0 {
		u = g.r.Float64()
	}
	return xm / math.Pow(u, 1/alpha)
}

// Pick returns a uniformly chosen element of xs. It panics on an empty
// slice, matching the "impossible input" convention used across this repo.
func Pick[T any](g *RNG, xs []T) T {
	return xs[g.Intn(len(xs))]
}

// WeightedPick returns an index in [0, len(weights)) with probability
// proportional to weights[i]. Weights must be non-negative and not all zero.
func (g *RNG) WeightedPick(weights []float64) int {
	total := 0.0
	for _, w := range weights {
		total += w
	}
	u := g.Float64() * total
	acc := 0.0
	for i, w := range weights {
		acc += w
		if u < acc {
			return i
		}
	}
	return len(weights) - 1
}
