package stats

import (
	"math"
	"math/rand"
)

// NewRand returns a seeded *rand.Rand. Every stochastic component in this
// repository draws from an explicitly seeded source so that simulations,
// tests, and benchmarks are reproducible run to run.
func NewRand(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}

// Normal samples from a normal distribution with the given mean and
// standard deviation.
func Normal(rng *rand.Rand, mean, stddev float64) float64 {
	return float64(rng.NormFloat64()*stddev) + mean
}

// Uniform samples uniformly from [lo, hi).
func Uniform(rng *rand.Rand, lo, hi float64) float64 {
	return lo + float64(rng.Float64()*(hi-lo))
}

// Poisson samples from a Poisson distribution with rate lambda using
// Knuth's method for small lambda and a normal approximation for large
// lambda (where the approximation error is negligible for our workloads).
func Poisson(rng *rand.Rand, lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	if lambda > 30 {
		// Normal approximation with continuity correction.
		n := int(math.Round(Normal(rng, lambda, math.Sqrt(lambda))))
		if n < 0 {
			n = 0
		}
		return n
	}
	l := math.Exp(-lambda)
	k := 0
	p := 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// Exponential samples from an exponential distribution with the given rate
// (events per unit time). It panics if rate ≤ 0.
func Exponential(rng *rand.Rand, rate float64) float64 {
	if rate <= 0 {
		panic("stats: Exponential rate must be positive")
	}
	return rng.ExpFloat64() / rate
}

// LogNormal samples from a log-normal distribution where the underlying
// normal has the given mu and sigma. Viewer counts and chat rates across
// channels are heavy-tailed, which log-normal captures well (Figure 9).
func LogNormal(rng *rand.Rand, mu, sigma float64) float64 {
	return math.Exp(Normal(rng, mu, sigma))
}

// Bernoulli returns true with probability p.
func Bernoulli(rng *rand.Rand, p float64) bool {
	return rng.Float64() < p
}

// IntBetween samples an integer uniformly from [lo, hi]. It panics if
// hi < lo.
func IntBetween(rng *rand.Rand, lo, hi int) int {
	if hi < lo {
		panic("stats: IntBetween requires hi >= lo")
	}
	return lo + rng.Intn(hi-lo+1)
}

// Choice returns a uniformly random element of xs. It panics on an empty
// slice.
func Choice[T any](rng *rand.Rand, xs []T) T {
	if len(xs) == 0 {
		panic("stats: Choice of empty slice")
	}
	return xs[rng.Intn(len(xs))]
}
