package comm

import (
	"fmt"
	"math/rand"
)

// Every pattern generator in this file comes in two forms: Xxx
// allocates a fresh matrix, and XxxInto regenerates the pattern into a
// caller-supplied matrix (zeroing it first), so campaign workers can
// reuse one n x n buffer across an arbitrary number of cells instead
// of allocating O(n^2) per sample. The Into form is the primitive; the
// allocating form is a thin wrapper. Both consume the identical RNG
// stream, so reuse can never change a generated pattern.

// UniformRandom returns the send-side uniform workload: each of the n
// processors sends messages of the given size to d distinct random
// destinations (never itself). Send degrees are exactly d; receive
// degrees are approximately d (binomially distributed), matching the
// paper's "all nodes send and receive an approximately equal number of
// messages" assumption.
func UniformRandom(n, d int, bytes int64, rng *rand.Rand) (*Matrix, error) {
	return intoFresh(n, func(m *Matrix) error { return UniformRandomInto(m, d, bytes, rng) })
}

// UniformRandomInto is UniformRandom regenerating into m (m.N()
// processors). Destinations are drawn by a sparse partial
// Fisher-Yates shuffle over the virtual candidate array [0,n-1)\{i}:
// only the d displaced positions are materialized (in a small map), so
// the cost is O(d) per node instead of the O(n) candidate-slice
// shuffle the original implementation paid. The draw consumes exactly
// d rng.Intn calls per node, a different stream consumption than the
// historical full shuffle — output for a given seed changed once when
// this landed and is pinned by TestUniformRandomPinned.
func UniformRandomInto(m *Matrix, d int, bytes int64, rng *rand.Rand) error {
	n := m.N()
	if err := checkPatternArgs(n, d, bytes); err != nil {
		return err
	}
	m.Zero()
	// disp holds the displaced entries of the virtual candidate array:
	// position p represents candidate p unless disp says otherwise.
	disp := make(map[int]int, 2*d)
	for i := 0; i < n; i++ {
		for t := 0; t < d; t++ {
			j := t + rng.Intn(n-1-t)
			vj, ok := disp[j]
			if !ok {
				vj = j
			}
			vt, ok := disp[t]
			if !ok {
				vt = t
			}
			disp[j] = vt
			disp[t] = vj
			// Candidate c stands for destination c, skipping i.
			dst := vj
			if dst >= i {
				dst++
			}
			m.Set(i, dst, bytes)
		}
		clear(disp)
	}
	return nil
}

// DRegular returns a pattern where every processor sends exactly d and
// receives exactly d messages of the given size: the superposition of
// d pairwise edge-disjoint fixed-point-free random permutations. This
// is the workload the paper's experiments use (assumption 2: every
// processor sends and receives d messages; "each node is sending d
// messages to random destinations").
//
// Each round draws a uniform random permutation and repairs conflicts
// (fixed points and edges already used by earlier rounds) with
// targeted swaps: a conflicted position is swapped with a partner
// chosen so both positions become conflict-free. If a round cannot be
// repaired within its budget it is redrawn; if the pattern is too
// dense for rejection to converge, the remaining rounds fall back to
// relabeled-circulant shifts, which are always feasible.
func DRegular(n, d int, bytes int64, rng *rand.Rand) (*Matrix, error) {
	return intoFresh(n, func(m *Matrix) error { return DRegularInto(m, d, bytes, rng) })
}

// DRegularInto is DRegular regenerating into m. It consumes the
// identical RNG stream as DRegular always has, so reused-matrix
// campaigns reproduce historical outputs bit for bit.
func DRegularInto(m *Matrix, d int, bytes int64, rng *rand.Rand) error {
	n := m.N()
	if err := checkPatternArgs(n, d, bytes); err != nil {
		return err
	}
	m.Zero()
	if len(m.perm) != n {
		m.perm = make([]int, n)
	}
	perm := m.perm
	round := 0
nextRound:
	for attempt := 0; round < d && attempt < 20*d; attempt++ {
		for i := range perm {
			perm[i] = i
		}
		rng.Shuffle(n, func(a, b int) { perm[a], perm[b] = perm[b], perm[a] })
		bad := func(i int) bool { return perm[i] == i || m.At(i, perm[i]) > 0 }
		for i := 0; i < n; i++ {
			if !bad(i) {
				continue
			}
			fixed := false
			for try := 0; try < 4*n; try++ {
				j := rng.Intn(n)
				if j == i {
					continue
				}
				perm[i], perm[j] = perm[j], perm[i]
				if !bad(i) && !bad(j) {
					fixed = true
					break
				}
				perm[i], perm[j] = perm[j], perm[i]
			}
			if !fixed {
				continue nextRound // redraw this round
			}
		}
		for i := 0; i < n; i++ {
			m.Set(i, perm[i], bytes)
		}
		round++
	}
	if round == d {
		return nil
	}
	// Fallback for densities where rejection stalls: rebuild from
	// scratch as a randomly relabeled circulant — σ(x) sends to
	// σ((x+k) mod n) for k = 1..d — which is d-regular, fixed-point
	// free, and duplicate free for every d < n.
	m.Zero()
	sigma := rng.Perm(n)
	for k := 1; k <= d; k++ {
		for x := 0; x < n; x++ {
			m.Set(sigma[x], sigma[(x+k)%n], bytes)
		}
	}
	return nil
}

// HotSpot returns a skewed pattern: each processor sends d messages,
// and with probability hotProb each message targets one of the first
// hotCount processors. It exercises the node-contention behaviour that
// AC suffers from and the randomized schedulers are designed to avoid.
func HotSpot(n, d int, bytes int64, hotCount int, hotProb float64, rng *rand.Rand) (*Matrix, error) {
	return intoFresh(n, func(m *Matrix) error { return HotSpotInto(m, d, bytes, hotCount, hotProb, rng) })
}

// HotSpotInto is HotSpot regenerating into m.
func HotSpotInto(m *Matrix, d int, bytes int64, hotCount int, hotProb float64, rng *rand.Rand) error {
	n := m.N()
	if err := checkPatternArgs(n, d, bytes); err != nil {
		return err
	}
	if hotCount <= 0 || hotCount > n {
		return fmt.Errorf("comm: hotCount %d out of range (0,%d]", hotCount, n)
	}
	if hotProb < 0 || hotProb > 1 {
		return fmt.Errorf("comm: hotProb %v out of [0,1]", hotProb)
	}
	m.Zero()
	for i := 0; i < n; i++ {
		for placed := 0; placed < d; {
			var dst int
			if rng.Float64() < hotProb {
				dst = rng.Intn(hotCount)
			} else {
				dst = rng.Intn(n)
			}
			if dst == i || m.At(i, dst) > 0 {
				continue
			}
			m.Set(i, dst, bytes)
			placed++
		}
	}
	return nil
}

// BitComplement returns the classic bit-complement permutation on a
// power-of-two machine: i sends to ^i & (n-1). It is one of the
// link-contention-free permutations the paper cites (§1, referencing
// hypercube algorithm texts). Density 1.
func BitComplement(n int, bytes int64) (*Matrix, error) {
	return intoFresh(n, func(m *Matrix) error { return BitComplementInto(m, bytes) })
}

// BitComplementInto is BitComplement regenerating into m.
func BitComplementInto(m *Matrix, bytes int64) error {
	n := m.N()
	if err := checkPatternArgs(n, 1, bytes); err != nil {
		return err
	}
	if n&(n-1) != 0 {
		return fmt.Errorf("comm: BitComplement needs power-of-two n, got %d", n)
	}
	m.Zero()
	for i := 0; i < n; i++ {
		m.Set(i, ^i&(n-1), bytes)
	}
	return nil
}

// Shift returns the cyclic-shift permutation i -> (i+k) mod n.
// Density 1 for k not a multiple of n.
func Shift(n, k int, bytes int64) (*Matrix, error) {
	return intoFresh(n, func(m *Matrix) error { return ShiftInto(m, k, bytes) })
}

// ShiftInto is Shift regenerating into m.
func ShiftInto(m *Matrix, k int, bytes int64) error {
	n := m.N()
	if err := checkPatternArgs(n, 1, bytes); err != nil {
		return err
	}
	k %= n
	if k < 0 {
		k += n
	}
	if k == 0 {
		return fmt.Errorf("comm: Shift by 0 produces self messages")
	}
	m.Zero()
	for i := 0; i < n; i++ {
		m.Set(i, (i+k)%n, bytes)
	}
	return nil
}

// AllToAll returns the complete exchange: every processor sends to
// every other processor. Density n-1; the worst case for every
// scheduler and the pattern LP was originally designed for.
func AllToAll(n int, bytes int64) (*Matrix, error) {
	return intoFresh(n, func(m *Matrix) error { return AllToAllInto(m, bytes) })
}

// AllToAllInto is AllToAll regenerating into m.
func AllToAllInto(m *Matrix, bytes int64) error {
	n := m.N()
	if err := checkPatternArgs(n, n-1, bytes); err != nil {
		return err
	}
	m.Zero()
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				m.Set(i, j, bytes)
			}
		}
	}
	return nil
}

// MixedSizes returns a d-regular pattern with non-uniform message
// sizes: each message's size is an independent power of two drawn
// log-uniformly from [minBytes, maxBytes]. This is the workload class
// the paper defers to [15] ("non-uniform message size problems") and
// the one the size-aware schedulers target.
func MixedSizes(n, d int, minBytes, maxBytes int64, rng *rand.Rand) (*Matrix, error) {
	return intoFresh(n, func(m *Matrix) error { return MixedSizesInto(m, d, minBytes, maxBytes, rng) })
}

// MixedSizesInto is MixedSizes regenerating into m.
func MixedSizesInto(m *Matrix, d int, minBytes, maxBytes int64, rng *rand.Rand) error {
	if minBytes <= 0 || maxBytes < minBytes {
		return fmt.Errorf("comm: bad size range [%d, %d]", minBytes, maxBytes)
	}
	if err := DRegularInto(m, d, minBytes, rng); err != nil {
		return err
	}
	steps := 0
	for b := minBytes; b*2 <= maxBytes; b *= 2 {
		steps++
	}
	n := m.N()
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if m.At(i, j) > 0 {
				m.Set(i, j, minBytes<<uint(rng.Intn(steps+1)))
			}
		}
	}
	return nil
}

// HaloFromPartition aggregates an element-level dependency graph into
// a processor-level communication matrix: for every directed element
// dependency u -> v with part[u] != part[v], COM(part[u], part[v])
// grows by bytesPerElem. This is how PARTI-style runtime systems (the
// paper's motivating use case, §1) derive COM from the data that local
// computations require. adj[u] lists the elements u's value is needed
// by. part values must lie in [0, n).
func HaloFromPartition(n int, part []int, adj [][]int, bytesPerElem int64) (*Matrix, error) {
	return intoFresh(n, func(m *Matrix) error { return HaloFromPartitionInto(m, part, adj, bytesPerElem) })
}

// HaloFromPartitionInto is HaloFromPartition regenerating into m.
func HaloFromPartitionInto(m *Matrix, part []int, adj [][]int, bytesPerElem int64) error {
	n := m.N()
	if bytesPerElem <= 0 {
		return fmt.Errorf("comm: bytesPerElem %d must be positive", bytesPerElem)
	}
	for u, owner := range part {
		if owner < 0 || owner >= n {
			return fmt.Errorf("comm: element %d assigned to processor %d outside [0,%d)", u, owner, n)
		}
	}
	m.Zero()
	for u, owner := range part {
		for _, v := range adj[u] {
			if v < 0 || v >= len(part) {
				return fmt.Errorf("comm: element %d has neighbor %d outside [0,%d)", u, v, len(part))
			}
			if other := part[v]; other != owner {
				m.Add(owner, other, bytesPerElem)
			}
		}
	}
	return nil
}

// intoFresh allocates an n x n matrix and fills it with gen, the shared
// shape of every allocating generator wrapper.
func intoFresh(n int, gen func(*Matrix) error) (*Matrix, error) {
	if n <= 0 {
		return nil, fmt.Errorf("comm: processor count %d must be positive", n)
	}
	m, err := New(n)
	if err != nil {
		return nil, err
	}
	if err := gen(m); err != nil {
		return nil, err
	}
	return m, nil
}

func checkPatternArgs(n, d int, bytes int64) error {
	if n <= 1 {
		return fmt.Errorf("comm: need at least 2 processors, got %d", n)
	}
	if d <= 0 || d >= n {
		return fmt.Errorf("comm: density %d out of range (0,%d)", d, n)
	}
	if bytes <= 0 {
		return fmt.Errorf("comm: message size %d must be positive", bytes)
	}
	return nil
}
