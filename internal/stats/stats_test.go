package stats

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.N != 0 || s.Mean != 0 {
		t.Errorf("empty Summarize = %+v", s)
	}
}

func TestSummarizeSingle(t *testing.T) {
	s := Summarize([]float64{5})
	if s.N != 1 || s.Mean != 5 || s.Min != 5 || s.Max != 5 || s.Median != 5 || s.Std != 0 {
		t.Errorf("single Summarize = %+v", s)
	}
}

func TestSummarizeKnownValues(t *testing.T) {
	s := Summarize([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if s.Mean != 5 {
		t.Errorf("Mean = %v, want 5", s.Mean)
	}
	if math.Abs(s.Std-2.138) > 0.001 {
		t.Errorf("Std = %v, want ~2.138", s.Std)
	}
	if s.Min != 2 || s.Max != 9 {
		t.Errorf("Min/Max = %v/%v", s.Min, s.Max)
	}
	if s.Median != 4.5 {
		t.Errorf("Median = %v, want 4.5", s.Median)
	}
}

func TestSummarizeOddMedian(t *testing.T) {
	s := Summarize([]float64{9, 1, 5})
	if s.Median != 5 {
		t.Errorf("Median = %v, want 5", s.Median)
	}
}

func TestMeanMaxMin(t *testing.T) {
	xs := []float64{3, 1, 4, 1, 5}
	if Mean(xs) != 2.8 {
		t.Errorf("Mean = %v", Mean(xs))
	}
	if Max(xs) != 5 {
		t.Errorf("Max = %v", Max(xs))
	}
	if Min(xs) != 1 {
		t.Errorf("Min = %v", Min(xs))
	}
	if Mean(nil) != 0 || Max(nil) != 0 || Min(nil) != 0 {
		t.Error("empty-slice helpers should return 0")
	}
}

func TestSourceDeterministic(t *testing.T) {
	a := NewSource(42).StreamKeyed(3)
	b := NewSource(42).StreamKeyed(3)
	for i := 0; i < 100; i++ {
		if a.Int63() != b.Int63() {
			t.Fatal("same (seed, stream) produced different values")
		}
	}
}

func TestStreamKeyedDeterministic(t *testing.T) {
	a := NewSource(42).StreamKeyed(1, 4, 1024, 7)
	b := NewSource(42).StreamKeyed(1, 4, 1024, 7)
	for i := 0; i < 100; i++ {
		if a.Int63() != b.Int63() {
			t.Fatal("same (seed, key) produced different values")
		}
	}
}

// TestStreamKeyedNoLinearCollisions pins the collision class that the
// old linear packing d*1e6 + M*1000 + sample suffered from: the cells
// (d=4, M=1024) and (d=5, M=24) packed to the same index, so two
// "independent" campaign cells drew identical randomness. Composite
// keys must keep such tuples apart.
func TestStreamKeyedNoLinearCollisions(t *testing.T) {
	src := NewSource(1994)
	pairs := [][2][]int64{
		{{0, 4, 1024, 0}, {0, 5, 24, 0}},         // the historical collision
		{{0, 17, 24, 0}, {1, 4, 256, 0, 0}},      // pattern vs sched cross-talk
		{{0, 4, 1024, 0}, {1, 4, 1024, 0}},       // tag separates stream kinds
		{{1, 4, 1024, 0, 0}, {1, 4, 1024, 0, 1}}, // algorithms differ
	}
	for _, p := range pairs {
		a := src.StreamKeyed(p[0]...)
		b := src.StreamKeyed(p[1]...)
		same := 0
		for i := 0; i < 100; i++ {
			if a.Int63() == b.Int63() {
				same++
			}
		}
		if same > 2 {
			t.Errorf("keys %v and %v collided %d/100 times", p[0], p[1], same)
		}
	}
}

func TestSourceStreamsIndependent(t *testing.T) {
	src := NewSource(42)
	a := src.StreamKeyed(0)
	b := src.StreamKeyed(1)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Int63() == b.Int63() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("streams 0 and 1 collided %d/100 times", same)
	}
}

// draws takes a fixed mix of draws from r: Int63, Intn, Shuffle,
// Float64 and Read, whose buffered read position is the one piece of
// generator state a reseed could leave behind.
func draws(r *rand.Rand) []int64 {
	var out []int64
	for i := 0; i < 5; i++ {
		out = append(out, r.Int63(), int64(r.Intn(1000+i)))
	}
	perm := []int64{0, 1, 2, 3, 4, 5, 6, 7}
	r.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
	out = append(out, perm...)
	for i := 0; i < 3; i++ {
		out = append(out, int64(math.Float64bits(r.Float64())))
	}
	buf := make([]byte, 5)
	r.Read(buf)
	for _, b := range buf {
		out = append(out, int64(b))
	}
	return out
}

// TestReseedMatchesStreamKeyed holds Reseed to StreamKeyed's stream:
// one generator, used and left mid-read, reseeded key after key, must
// draw exactly what a fresh StreamKeyed generator draws for each key.
func TestReseedMatchesStreamKeyed(t *testing.T) {
	src := NewSource(1994)
	keys := [][]int64{{1, 4, 1024, 0, 2}, {0, 48, 131072, 7}, {3}, {}, {1, 4, 1024, 0, 2}}
	r := src.StreamKeyed(99)
	r.Read(make([]byte, 3)) // leave a partly read Int63 behind
	for _, key := range keys {
		want := draws(src.StreamKeyed(key...))
		if got := draws(src.Reseed(r, key...)); !slices.Equal(got, want) {
			t.Errorf("key %v: Reseed draws %v, StreamKeyed %v", key, got, want)
		}
	}
	if got := src.Reseed(r, 5); got != r {
		t.Error("Reseed did not return the generator it reseeded")
	}
	fresh := src.Reseed(nil, 1, 2)
	if fresh == nil || fresh == r {
		t.Fatal("Reseed(nil, ...) did not return a new generator")
	}
	if got, want := draws(fresh), draws(src.StreamKeyed(1, 2)); !slices.Equal(got, want) {
		t.Errorf("Reseed(nil, 1, 2) draws %v, StreamKeyed %v", got, want)
	}
}

// Property: mean lies within [min, max] for nonempty samples.
func TestSummaryBoundsProperty(t *testing.T) {
	f := func(xs []float64) bool {
		clean := xs[:0]
		for _, x := range xs {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e12 {
				clean = append(clean, x)
			}
		}
		if len(clean) == 0 {
			return true
		}
		s := Summarize(clean)
		return s.Mean >= s.Min-1e-9 && s.Mean <= s.Max+1e-9 &&
			s.Median >= s.Min-1e-9 && s.Median <= s.Max+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPerm(t *testing.T) {
	r := NewSource(7).StreamKeyed(0)
	p := Perm(r, 10)
	seen := make([]bool, 10)
	for _, v := range p {
		if v < 0 || v >= 10 || seen[v] {
			t.Fatalf("not a permutation: %v", p)
		}
		seen[v] = true
	}
}
