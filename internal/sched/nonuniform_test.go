package sched

// Tests for the non-uniform message-size extension (the direction the
// paper defers to [15]) and the remaining ablation variants.

import (
	"math/rand"
	"testing"
	"testing/quick"

	"unsched/internal/comm"
	"unsched/internal/mesh"
)

func mixedMatrix(t *testing.T, seed int64) *comm.Matrix {
	t.Helper()
	m, err := comm.MixedSizes(64, 8, 64, 64*1024, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestAllSchedulersHandleNonUniformSizes(t *testing.T) {
	m := mixedMatrix(t, 80)
	if _, uniform := m.Uniform(); uniform {
		t.Fatal("MixedSizes produced a uniform matrix (astronomically unlikely)")
	}
	cube := cube64()
	rng := rand.New(rand.NewSource(81))
	builds := map[string]func() (*Schedule, error){
		"LP":        func() (*Schedule, error) { return LP(m) },
		"RS_N":      func() (*Schedule, error) { return RSN(m, rng) },
		"RS_NL":     func() (*Schedule, error) { return RSNL(m, cube, rng) },
		"GREEDY":    func() (*Schedule, error) { return Greedy(m) },
		"GREEDY_LF": func() (*Schedule, error) { return GreedyLargestFirst(m) },
		"GREEDY_LF_LINK": func() (*Schedule, error) {
			return GreedyLargestFirstLinkFree(m, cube)
		},
		"RS_N_UNC": func() (*Schedule, error) { return RSNUncompressed(m, rng) },
	}
	for name, build := range builds {
		s, err := build()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := s.Validate(m); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

// The point of largest-first: the sum over phases of the per-phase
// maximum (the paper's tau + M*phi cost proxy) must not exceed the
// plain greedy packing's.
func TestLargestFirstReducesPhaseMaxSum(t *testing.T) {
	worse := 0
	for seed := int64(0); seed < 10; seed++ {
		m := mixedMatrix(t, 90+seed)
		plain, err := Greedy(m)
		if err != nil {
			t.Fatal(err)
		}
		lf, err := GreedyLargestFirst(m)
		if err != nil {
			t.Fatal(err)
		}
		sum := func(s *Schedule) int64 {
			var total int64
			for _, p := range s.Phases {
				total += p.MaxBytes()
			}
			return total
		}
		if sum(lf) > sum(plain) {
			worse++
		}
	}
	if worse > 2 {
		t.Errorf("largest-first lost to plain greedy on %d/10 mixed-size samples", worse)
	}
}

func TestRSNLSizedValid(t *testing.T) {
	cube := cube64()
	m := mixedMatrix(t, 85)
	s, err := RSNLSized(m, cube, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(m); err != nil {
		t.Fatal(err)
	}
	if err := s.ValidateLinkFree(cube); err != nil {
		t.Fatal(err)
	}
}

func TestRSNLSizedRowsDescending(t *testing.T) {
	m := mixedMatrix(t, 86)
	ccom := comm.NewCompressed(m, rand.New(rand.NewSource(2)))
	NewCoreDirect(nil).sortRowsBySize(ccom, m)
	for i := 0; i < m.N(); i++ {
		var prev int64 = 1 << 62
		for z := 0; z < ccom.Remaining(i); z++ {
			if sz := ccom.SizeAt(i, z); sz > prev {
				t.Fatalf("row %d not descending at slot %d: %d after %d", i, z, sz, prev)
			} else {
				prev = sz
			}
		}
	}
}

func TestRSNLSizedBeatsPlainOnMixedSizes(t *testing.T) {
	// The cost proxy: sum over phases of the per-phase maximum. The
	// size-aware variant should win on mixed workloads most of the
	// time.
	cube := cube64()
	worse := 0
	for seed := int64(0); seed < 8; seed++ {
		m := mixedMatrix(t, 100+seed)
		plain, err := RSNL(m, cube, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		sized, err := RSNLSized(m, cube, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		sum := func(s *Schedule) int64 {
			var total int64
			for _, p := range s.Phases {
				total += p.MaxBytes()
			}
			return total
		}
		if sum(sized) > sum(plain) {
			worse++
		}
	}
	if worse > 2 {
		t.Errorf("size-aware RS_NL lost the phase-max sum on %d/8 samples", worse)
	}
}

func TestRSNUncompressedEquivalentQuality(t *testing.T) {
	// Same algorithm, different data structure: phase counts must be
	// statistically indistinguishable, op counts must not be.
	m := randomMatrix(t, 64, 8, 1024, 91)
	fast, err := RSN(m, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	slow, err := RSNUncompressed(m, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if err := slow.Validate(m); err != nil {
		t.Fatal(err)
	}
	diff := fast.NumPhases() - slow.NumPhases()
	if diff < -4 || diff > 4 {
		t.Errorf("phase counts diverge: %d vs %d", fast.NumPhases(), slow.NumPhases())
	}
	if slow.Ops < 5*fast.Ops {
		t.Errorf("uncompressed ops %d should dwarf compressed %d", slow.Ops, fast.Ops)
	}
}

func TestRSNLOnTorusProperty(t *testing.T) {
	// Link-freedom holds for RS_NL on a torus for arbitrary seeds.
	net := mesh.MustNew(8, 8, true)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, err := comm.UniformRandom(64, 6, 512, rng)
		if err != nil {
			return false
		}
		s, err := RSNL(m, net, rng)
		if err != nil {
			return false
		}
		return s.Validate(m) == nil && s.ValidateLinkFree(net) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Error(err)
	}
}

func TestHotSpotSchedulesBounded(t *testing.T) {
	// Hot-spot patterns have high receive density; phase counts track
	// the density, not the node count squared.
	rng := rand.New(rand.NewSource(92))
	m, err := comm.HotSpot(64, 8, 1024, 4, 0.9, rng)
	if err != nil {
		t.Fatal(err)
	}
	s, err := RSN(m, rng)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(m); err != nil {
		t.Fatal(err)
	}
	lower := LowerBoundPhases(m)
	if s.NumPhases() < lower {
		t.Fatalf("phases %d below density bound %d", s.NumPhases(), lower)
	}
	if s.NumPhases() > 2*lower+8 {
		t.Errorf("phases %d far above density bound %d", s.NumPhases(), lower)
	}
}

func TestSingleMessageSchedules(t *testing.T) {
	// Degenerate input: one message total.
	m := comm.MustNew(64)
	m.Set(5, 9, 4096)
	cube := cube64()
	rng := rand.New(rand.NewSource(93))
	for name, build := range map[string]func() (*Schedule, error){
		"LP":    func() (*Schedule, error) { return LP(m) },
		"RS_N":  func() (*Schedule, error) { return RSN(m, rng) },
		"RS_NL": func() (*Schedule, error) { return RSNL(m, cube, rng) },
	} {
		s, err := build()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := s.Validate(m); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if name != "LP" && s.NumPhases() != 1 {
			t.Errorf("%s: %d phases for one message", name, s.NumPhases())
		}
	}
}

func TestDensityOnePatternsScheduleInOnePhase(t *testing.T) {
	// A permutation (density 1) fits one phase under RS_N; under RS_NL
	// link constraints may split it on a sparse topology but never on
	// the cube for a contention-free permutation.
	m, err := comm.BitComplement(64, 2048)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(94))
	s, err := RSN(m, rng)
	if err != nil {
		t.Fatal(err)
	}
	if s.NumPhases() != 1 {
		t.Errorf("RS_N needs %d phases for a permutation", s.NumPhases())
	}
	snl, err := RSNL(m, cube64(), rng)
	if err != nil {
		t.Fatal(err)
	}
	if snl.NumPhases() != 1 {
		t.Errorf("RS_NL needs %d phases for bit complement (link-free on the cube)", snl.NumPhases())
	}
}
