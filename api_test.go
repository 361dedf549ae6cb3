package unsched

import (
	"context"
	"math/rand"
	"testing"

	"unsched/internal/ipsc"
	"unsched/internal/sched"
)

func TestQuickstartFlow(t *testing.T) {
	// The doc.go example, end to end.
	cube := NewCube(6)
	rng := rand.New(rand.NewSource(1))
	m, err := UniformRandom(64, 8, 4096, rng)
	if err != nil {
		t.Fatal(err)
	}
	s, err := RSNL(m, cube, rng)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(m); err != nil {
		t.Fatal(err)
	}
	if err := s.ValidateLinkFree(cube); err != nil {
		t.Fatal(err)
	}
	res, err := SimulateS1(cube, DefaultIPSC860(), s)
	if err != nil {
		t.Fatal(err)
	}
	if res.MakespanUS <= 0 {
		t.Error("no makespan")
	}
}

// TestSimulateDispatch: Simulate runs every phased table entry under
// the entry's own protocol, the pairing /v1/simulate applies under
// "auto". Before it read the table, Simulate ran RS_NL_SZ and
// GREEDY_LF_LINK under S2 while the daemon ran them under S1. AC and
// tags outside the table are errors, not a silent S2 run.
func TestSimulateDispatch(t *testing.T) {
	cube := NewCube(4)
	params := DefaultIPSC860()
	m, err := MixedSizes(16, 5, 64, 8192, rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	core := sched.NewCore(cube)
	mach, err := ipsc.NewMachine(cube, params)
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range sched.Algorithms {
		if alg.Build == nil {
			continue
		}
		s, err := alg.Build(core, m, rand.New(rand.NewSource(5)))
		if err != nil {
			t.Fatalf("%s: %v", alg.Tag, err)
		}
		got, err := Simulate(cube, params, s)
		if err != nil {
			t.Fatalf("%s: %v", alg.Tag, err)
		}
		want, err := mach.Run(alg.Protocol, s)
		if err != nil {
			t.Fatalf("%s under %s: %v", alg.Tag, alg.Protocol, err)
		}
		if got != want || got.MakespanUS <= 0 {
			t.Errorf("%s: Simulate = %+v, %s run = %+v", alg.Tag, got, alg.Protocol, want)
		}
	}
	for _, tag := range []string{"AC", "RS-NL", ""} {
		if _, err := Simulate(cube, params, &Schedule{Algorithm: tag, N: 16}); err == nil {
			t.Errorf("Simulate accepted a %q schedule", tag)
		}
	}
}

func TestScheduleForDispatch(t *testing.T) {
	cube := NewCube(6)
	rng := rand.New(rand.NewSource(3))

	tiny, err := UniformRandom(64, 4, 64, rng)
	if err != nil {
		t.Fatal(err)
	}
	s, err := ScheduleFor(tiny, cube, rng)
	if err != nil {
		t.Fatal(err)
	}
	if s != nil {
		t.Error("tiny messages should pick AC (nil schedule)")
	}

	dense, err := DRegular(64, 48, 128*1024, rng)
	if err != nil {
		t.Fatal(err)
	}
	s, err = ScheduleFor(dense, cube, rng)
	if err != nil {
		t.Fatal(err)
	}
	if s == nil || s.Algorithm != "LP" {
		t.Errorf("dense large messages should pick LP, got %v", s)
	}

	mid, err := UniformRandom(64, 8, 8192, rng)
	if err != nil {
		t.Fatal(err)
	}
	s, err = ScheduleFor(mid, cube, rng)
	if err != nil {
		t.Fatal(err)
	}
	if s == nil || s.Algorithm != "RS_NL" {
		t.Errorf("mid region should pick RS_NL, got %v", s)
	}
}

func TestFacadeGenerators(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	if _, err := BitComplement(64, 128); err != nil {
		t.Error(err)
	}
	if _, err := Shift(64, 3, 128); err != nil {
		t.Error(err)
	}
	if _, err := AllToAll(16, 128); err != nil {
		t.Error(err)
	}
	if _, err := HotSpot(64, 4, 128, 4, 0.5, rng); err != nil {
		t.Error(err)
	}
	mesh, err := NewIrregularMesh(8, 8, 0.3, rng)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mesh.HaloMatrix(4, mesh.StripPartition(4), 8); err != nil {
		t.Error(err)
	}
}

func TestMeshTopologyEndToEnd(t *testing.T) {
	// The §5 generalization: RS_NL schedules link-contention-free on a
	// mesh and a torus, and the simulator runs them.
	for _, wrap := range []bool{false, true} {
		net, err := NewMesh2D(8, 8, wrap)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(5))
		m, err := UniformRandom(64, 6, 4096, rng)
		if err != nil {
			t.Fatal(err)
		}
		s, err := RSNL(m, net, rng)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Validate(m); err != nil {
			t.Fatalf("wrap=%v: %v", wrap, err)
		}
		if err := s.ValidateLinkFree(net); err != nil {
			t.Fatalf("wrap=%v: %v", wrap, err)
		}
		res, err := SimulateS1(net, DefaultIPSC860(), s)
		if err != nil {
			t.Fatalf("wrap=%v: %v", wrap, err)
		}
		if res.MakespanUS <= 0 {
			t.Errorf("wrap=%v: no makespan", wrap)
		}
	}
}

func TestMeshNeedsMorePhasesThanCube(t *testing.T) {
	// A mesh has fewer channels and longer routes than a cube of the
	// same size, so link-free schedules need at least as many phases.
	cube := NewCube(6)
	flat, err := NewMesh2D(8, 8, false)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	m, err := DRegular(64, 8, 4096, rng)
	if err != nil {
		t.Fatal(err)
	}
	onCube, err := RSNL(m, cube, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	onMesh, err := RSNL(m, flat, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	if onMesh.NumPhases() < onCube.NumPhases() {
		t.Errorf("mesh schedule has %d phases, cube %d — mesh should need at least as many",
			onMesh.NumPhases(), onCube.NumPhases())
	}
}

func TestRSNLSizedFacade(t *testing.T) {
	cube := NewCube(6)
	rng := rand.New(rand.NewSource(8))
	m, err := MixedSizes(64, 6, 128, 32*1024, rng)
	if err != nil {
		t.Fatal(err)
	}
	s, err := RSNLSized(m, cube, rng)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(m); err != nil {
		t.Fatal(err)
	}
	if err := s.ValidateLinkFree(cube); err != nil {
		t.Fatal(err)
	}
	if _, err := SimulateS1(cube, DefaultIPSC860(), s); err != nil {
		t.Fatal(err)
	}
}

func TestIPSC2FacadePreset(t *testing.T) {
	p := DefaultIPSC2()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.TransferTime(1024, 3) <= DefaultIPSC860().TransferTime(1024, 3) {
		t.Error("iPSC/2 should be slower")
	}
}

func TestDefaultExperimentConfig(t *testing.T) {
	cfg := DefaultExperimentConfig()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if cfg.Topology.Nodes() != 64 {
		t.Errorf("default config should model the 64-node machine, got %d", cfg.Topology.Nodes())
	}
}

func TestExperimentRunnerFacade(t *testing.T) {
	cfg := DefaultExperimentConfig()
	cfg.Samples = 2
	seq := NewExperimentRunner(cfg, 1)
	par := NewExperimentRunner(cfg, 4)
	points := []ExperimentPoint{{Density: 4, MsgBytes: 1024}, {Density: 8, MsgBytes: 1024}}
	a, err := seq.MeasureCells(context.Background(), points)
	if err != nil {
		t.Fatal(err)
	}
	b, err := par.MeasureCells(context.Background(), points)
	if err != nil {
		t.Fatal(err)
	}
	for i := range points {
		for alg, cell := range a[i] {
			if b[i][alg] != cell {
				t.Errorf("point %d %s: parallel %+v != sequential %+v", i, alg, b[i][alg], cell)
			}
		}
	}
}

func TestSimMachineFacadeReuse(t *testing.T) {
	cube := NewCube(4)
	params := DefaultIPSC860()
	rng := rand.New(rand.NewSource(99))
	m, err := DRegular(16, 4, 2048, rng)
	if err != nil {
		t.Fatal(err)
	}
	s, err := RSNL(m, cube, rng)
	if err != nil {
		t.Fatal(err)
	}
	mach, err := NewSimMachine(cube, params)
	if err != nil {
		t.Fatal(err)
	}
	first, err := mach.RunS1(s)
	if err != nil {
		t.Fatal(err)
	}
	second, err := mach.RunS1(s)
	if err != nil {
		t.Fatal(err)
	}
	if first != second {
		t.Errorf("reused machine diverged: %+v vs %+v", first, second)
	}
}

// TestTopologySpecFacade drives the spec layer end to end through the
// public API: parse a ring spec, build it, schedule link-free on it,
// and simulate the schedule.
func TestTopologySpecFacade(t *testing.T) {
	sp, err := ParseTopologySpec("ring:8")
	if err != nil {
		t.Fatal(err)
	}
	if sp.String() != "ring:8" {
		t.Errorf("spec round trip: %q", sp.String())
	}
	net, err := sp.Build()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	m, err := DRegular(net.Nodes(), 3, 2048, rng)
	if err != nil {
		t.Fatal(err)
	}
	s, err := RSNL(m, net, rng)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(m); err != nil {
		t.Fatal(err)
	}
	if err := s.ValidateLinkFree(net); err != nil {
		t.Errorf("RSNL schedule contends on the ring: %v", err)
	}
	res, err := SimulateS1(net, DefaultIPSC860(), s)
	if err != nil {
		t.Fatal(err)
	}
	if res.MakespanUS <= 0 {
		t.Error("simulated run took no time")
	}

	// The graph constructor covers machines no spec string was written
	// for: a cube with one extra chord still schedules and simulates.
	g, err := NewGraph(4, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}, {0, 2}})
	if err != nil {
		t.Fatal(err)
	}
	m2, err := AllToAll(4, 512)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := RSNL(m2, g, rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.ValidateLinkFree(g); err != nil {
		t.Errorf("RSNL schedule contends on the graph: %v", err)
	}
}

// TestWorkloadSpecFacade: the public workload-spec surface — parse,
// build, and a workload-generic campaign through the exported runner
// on a torus, bit-identical across parallelism (the public-API leg of
// the halo-on-torus acceptance path).
func TestWorkloadSpecFacade(t *testing.T) {
	sp, err := ParseWorkloadSpec("halo:8x8:512")
	if err != nil {
		t.Fatal(err)
	}
	if sp.String() != "halo:8x8:512" {
		t.Errorf("canonical form %q", sp)
	}
	m, err := sp.Build(64, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := ParseWorkloadSpec("klein:4:64"); err == nil {
		t.Error("bad workload spec accepted")
	}

	torus, err := ParseTopologySpec("torus:8x8")
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultExperimentConfig()
	cfg.Topology = torus.MustBuild()
	cfg.Samples = 2
	measure := func(parallelism int) []map[ExperimentAlgorithm]ExperimentCell {
		cells, err := NewExperimentRunner(cfg, parallelism).MeasureWorkloads(
			context.Background(), []WorkloadSpec{sp, MustParseWorkload(t, "spmv:6:8")})
		if err != nil {
			t.Fatal(err)
		}
		return cells
	}
	seq := measure(1)
	par := measure(4)
	for i := range seq {
		for alg, cell := range seq[i] {
			if par[i][alg] != cell {
				t.Errorf("cell %d %s: parallel %+v != sequential %+v", i, alg, par[i][alg], cell)
			}
		}
	}
	if seq[0][RSNLAlg()].Workload != "halo:8x8:512" {
		t.Errorf("cell workload label %q", seq[0][RSNLAlg()].Workload)
	}

	// The new scenario generators are exported alongside the classic
	// ones.
	if _, err := Transpose(16, 1024); err != nil {
		t.Error(err)
	}
	if _, err := Stencil3D(8, 4, 4, 4, 8); err != nil {
		t.Error(err)
	}
	if _, err := Permutation(8, 64, rand.New(rand.NewSource(1))); err != nil {
		t.Error(err)
	}
	if _, err := SpMVPowerLaw(8, 4, 8, rand.New(rand.NewSource(1))); err != nil {
		t.Error(err)
	}
}

// MustParseWorkload is a test helper over the exported parser.
func MustParseWorkload(t *testing.T, s string) WorkloadSpec {
	t.Helper()
	sp, err := ParseWorkloadSpec(s)
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

// RSNLAlg returns the RS_NL algorithm label through the exported type.
func RSNLAlg() ExperimentAlgorithm { return ExperimentAlgorithm("RS_NL") }
