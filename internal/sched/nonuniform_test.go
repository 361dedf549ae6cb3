package sched

// Tests for the non-uniform message-size extension (the direction the
// paper defers to [15]) and the remaining ablation variants.

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"unsched/internal/comm"
	"unsched/internal/hypercube"
	"unsched/internal/mesh"
	"unsched/internal/topo"
	"unsched/internal/workload"
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

// TestRSNLSizedRowsDescending checks that size-sorting leaves every
// CCOM row as a stable sort of its shuffled entries by descending
// size, on mixed sizes (which repeat) and with every size distinct.
func TestRSNLSizedRowsDescending(t *testing.T) {
	mixed := mixedMatrix(t, 86)
	distinct := mixed.Clone()
	sizes := rand.New(rand.NewSource(87)).Perm(distinct.MessageCount())
	for k, msg := range distinct.Messages() {
		distinct.Set(msg.Src, msg.Dst, int64(sizes[k]+1))
	}
	for _, m := range []*comm.Matrix{mixed, distinct} {
		ccom := comm.NewCompressed(m, rand.New(rand.NewSource(2)))
		want := make([][]comm.Message, m.N())
		for i := range want {
			for z := 0; z < ccom.Remaining(i); z++ {
				want[i] = append(want[i], comm.Message{Src: i, Dst: ccom.At(i, z), Bytes: ccom.SizeAt(i, z)})
			}
			slices.SortStableFunc(want[i], func(a, b comm.Message) int { return cmp.Compare(b.Bytes, a.Bytes) })
		}
		ccom.SortRowsBySize()
		for i, row := range want {
			for z, msg := range row {
				if ccom.At(i, z) != msg.Dst || ccom.SizeAt(i, z) != msg.Bytes {
					t.Fatalf("row %d slot %d: (%d, %d), want (%d, %d)",
						i, z, ccom.At(i, z), ccom.SizeAt(i, z), msg.Dst, msg.Bytes)
				}
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

// TestRSNLSizedSchedulesPinned pins RS_NL_SZ's output by hash — every
// phase's sends and sizes, and Ops — on uniform, hot-spot and
// mixed-size workloads and on matrices whose every message size is
// distinct, for three machines and three seeds each. How the CCOM rows
// get size-sorted is an implementation detail; any way of doing it
// must leave every row in the same order and so pass this unedited.
func TestRSNLSizedSchedulesPinned(t *testing.T) {
	specs := []string{
		"uniform:8:1024", "uniform:16:4096", "hotspot:8:4096:4", "hotspot:16:1024:8",
		"mixed:4:65536", "mixed:8:65536", "mixed:16:1024", "mixed:32:131072",
	}
	want := map[string]string{
		"hypercube-6": "7670ea35ac7d366b08feb590109fb466140ebbaceb2f07f6387574eed03686e3",
		"torus-8x8":   "63dd22dea2c51cd0965332b8508457189bebe349f54f806cb122e0fbd82aa80b",
		"hypercube-8": "1c23c78e77d054adc2505577c05ed7afa7baf0b9b1d43f86e1d6682cb3ea47c4",
	}
	for _, net := range []topo.Topology{hypercube.MustNew(6), mesh.MustNew(8, 8, true), hypercube.MustNew(8)} {
		n := net.Nodes()
		core := NewCore(net)
		d := comm.NewDigest()
		schedule := func(m *comm.Matrix, seed int64) {
			s, err := core.RSNLSized(m, rand.New(rand.NewSource(seed)))
			if err != nil {
				t.Fatalf("%s: %v", net.Name(), err)
			}
			d.Int64(s.Ops)
			d.Int64(int64(len(s.Phases)))
			for _, p := range s.Phases {
				for i, j := range p.Send {
					d.Int64(int64(j))
					d.Int64(p.Bytes[i])
				}
			}
		}
		for _, spec := range specs {
			for seed := int64(1); seed <= 3; seed++ {
				m, err := workload.MustParseSpec(spec).Build(n, rand.New(rand.NewSource(seed)))
				if err != nil {
					t.Fatalf("%s %s: %v", net.Name(), spec, err)
				}
				schedule(m, seed)
			}
		}
		for seed := int64(1); seed <= 3; seed++ {
			rng := rand.New(rand.NewSource(seed))
			m, err := comm.DRegular(n, 16, 1, rng)
			if err != nil {
				t.Fatal(err)
			}
			sizes := rng.Perm(m.MessageCount())
			for _, msg := range m.Messages() {
				m.Set(msg.Src, msg.Dst, int64(sizes[0]+1))
				sizes = sizes[1:]
			}
			schedule(m, seed)
		}
		if got := d.Hex(); got != want[net.Name()] {
			t.Errorf("%s: RS_NL_SZ schedules hash %s, pinned %s", net.Name(), got, want[net.Name()])
		}
	}
}
