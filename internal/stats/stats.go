// Package stats provides the small statistical helpers used by the
// experiment harness: summary statistics over float64 samples and
// deterministic spawning of independent sub-generators from a master
// seed, so that every experiment in the repository is reproducible
// from a single integer.
package stats

import (
	"math"
	"math/rand"
	"sort"
)

// Summary holds the usual summary statistics of a sample set.
type Summary struct {
	N      int
	Mean   float64
	Std    float64 // sample standard deviation (n-1 denominator)
	Min    float64
	Max    float64
	Median float64
}

// Summarize computes summary statistics over xs. An empty slice yields
// a zero Summary.
func Summarize(xs []float64) Summary {
	var s Summary
	s.N = len(xs)
	if s.N == 0 {
		return s
	}
	s.Min = math.Inf(1)
	s.Max = math.Inf(-1)
	sum := 0.0
	for _, x := range xs {
		sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = sum / float64(s.N)
	if s.N > 1 {
		ss := 0.0
		for _, x := range xs {
			d := x - s.Mean
			ss += d * d
		}
		s.Std = math.Sqrt(ss / float64(s.N-1))
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	mid := s.N / 2
	if s.N%2 == 1 {
		s.Median = sorted[mid]
	} else {
		s.Median = (sorted[mid-1] + sorted[mid]) / 2
	}
	return s
}

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Max returns the maximum of xs, or 0 for an empty slice.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Min returns the minimum of xs, or 0 for an empty slice.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Source spawns deterministic, independent rand.Rand generators from a
// master seed. Two Sources built from the same seed produce identical
// streams; distinct stream indices produce (practically) independent
// streams. It is not safe for concurrent use; spawn the sub-generators
// up front and hand them to goroutines.
type Source struct {
	seed int64
}

// NewSource returns a Source rooted at the given master seed.
func NewSource(seed int64) *Source {
	return &Source{seed: seed}
}

// splitmix64 is the standard SplitMix64 mixer; it decorrelates the
// per-stream seeds derived from (master seed, stream index).
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// StreamKeyed returns the generator for a composite key, folding each
// component through SplitMix64. Unlike packing a tuple into one index
// with a linear combination (d*1e6 + M*1000 + s collides for, e.g.,
// (4, 1024, s) and (5, 24, s)), composed mixing leaves no algebraic
// relation between tuples, so distinct keys get decorrelated streams
// whatever their ranges. Identical keys still produce identical
// streams — the reproducibility contract is unchanged.
func (s *Source) StreamKeyed(parts ...int64) *rand.Rand {
	return s.Reseed(nil, parts...)
}

// Reseed reseeds r in place to exactly the stream StreamKeyed(parts...)
// returns, and returns r: a worker that draws one stream per
// operation keeps one generator instead of allocating a ~5 KB source
// for each. r must be a generator StreamKeyed or Reseed returned (one
// over rand.NewSource); its read position is reset with its state. A
// nil r returns a new generator, as StreamKeyed does.
func (s *Source) Reseed(r *rand.Rand, parts ...int64) *rand.Rand {
	x := uint64(s.seed) * 0x9e3779b97f4a7c15
	for _, p := range parts {
		x = splitmix64(x ^ uint64(p))
	}
	if r == nil {
		return rand.New(rand.NewSource(int64(x)))
	}
	r.Seed(int64(x))
	return r
}

// Perm returns a random permutation of [0,n) using r.
func Perm(r *rand.Rand, n int) []int {
	return r.Perm(n)
}
