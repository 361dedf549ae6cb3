package unsched

// The benchmark harness regenerates every table and figure of the
// paper's evaluation as Go benchmarks, plus ablations of the
// schedulers' design choices. Benchmarks report the measured
// quantities through b.ReportMetric — comm_ms columns for the tables,
// fraction series for the overhead figures — so `go test -bench=.`
// output reads like the paper's tables. The cmd/experiments tool
// prints the same data in the paper's layout.

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"unsched/internal/comm"
	"unsched/internal/costmodel"
	"unsched/internal/expt"
	"unsched/internal/hypercube"
	"unsched/internal/ipsc"
	"unsched/internal/mesh"
	"unsched/internal/sched"
	"unsched/internal/topo"
	"unsched/internal/workload"
)

func benchConfig() expt.Config {
	cfg := expt.DefaultConfig()
	cfg.Samples = 2 // raise to 50 to match the paper's protocol exactly
	return cfg
}

// --- Table 1: one benchmark per density row -------------------------

func benchTable1Row(b *testing.B, d int) {
	cfg := benchConfig()
	var cells map[expt.Algorithm]expt.Cell
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		cells, err = cfg.MeasureCell(d, 128*1024)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(cells[expt.AC].CommMS, "AC_128K_ms")
	b.ReportMetric(cells[expt.LP].CommMS, "LP_128K_ms")
	b.ReportMetric(cells[expt.RSN].CommMS, "RSN_128K_ms")
	b.ReportMetric(cells[expt.RSNL].CommMS, "RSNL_128K_ms")
	b.ReportMetric(cells[expt.RSN].Iters, "RSN_iters")
	b.ReportMetric(cells[expt.RSNL].Iters, "RSNL_iters")
	b.ReportMetric(cells[expt.RSN].CompMS, "RSN_comp_ms")
	b.ReportMetric(cells[expt.RSNL].CompMS, "RSNL_comp_ms")
}

func BenchmarkTable1_D4(b *testing.B)  { benchTable1Row(b, 4) }
func BenchmarkTable1_D8(b *testing.B)  { benchTable1Row(b, 8) }
func BenchmarkTable1_D16(b *testing.B) { benchTable1Row(b, 16) }
func BenchmarkTable1_D32(b *testing.B) { benchTable1Row(b, 32) }
func BenchmarkTable1_D48(b *testing.B) { benchTable1Row(b, 48) }

// --- Figure 5: the (d, M) region map --------------------------------

func BenchmarkFig5Regions(b *testing.B) {
	cfg := benchConfig()
	sizes := []int64{64, 1024, 16 * 1024, 128 * 1024}
	densities := []int{4, 16, 48}
	var regions []expt.Region
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		regions, err = expt.NewRunner(cfg).RegionMap(context.Background(), densities, sizes)
		if err != nil {
			b.Fatal(err)
		}
	}
	// Report the corners the paper's Figure 5 pins down: AC wins the
	// small corner, LP the large corner (1 = holds, 0 = violated).
	acCorner, lpCorner := 0.0, 0.0
	for _, r := range regions {
		if r.Density == 4 && r.MsgBytes == 64 && r.Winner == expt.AC {
			acCorner = 1
		}
		if r.Density == 48 && r.MsgBytes == 128*1024 && r.Winner == expt.LP {
			lpCorner = 1
		}
	}
	b.ReportMetric(acCorner, "AC_corner_holds")
	b.ReportMetric(lpCorner, "LP_corner_holds")
}

// --- Figures 6-9: comm cost vs message size per density -------------

func benchCommVsSize(b *testing.B, d int) {
	cfg := benchConfig()
	sizes := []int64{16, 256, 4096, 65536, 131072}
	var series []struct{ ac, lp, rsn, rsnl float64 }
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		series = series[:0]
		for _, size := range sizes {
			cells, err := cfg.MeasureCell(d, size)
			if err != nil {
				b.Fatal(err)
			}
			series = append(series, struct{ ac, lp, rsn, rsnl float64 }{
				cells[expt.AC].CommMS, cells[expt.LP].CommMS,
				cells[expt.RSN].CommMS, cells[expt.RSNL].CommMS,
			})
		}
	}
	for i, size := range sizes {
		b.ReportMetric(series[i].ac, fmt.Sprintf("AC_%dB_ms", size))
		b.ReportMetric(series[i].rsnl, fmt.Sprintf("RSNL_%dB_ms", size))
	}
	last := series[len(series)-1]
	b.ReportMetric(last.lp, "LP_128K_ms")
	b.ReportMetric(last.rsn, "RSN_128K_ms")
}

func BenchmarkFig6_D4(b *testing.B)  { benchCommVsSize(b, 4) }
func BenchmarkFig7_D8(b *testing.B)  { benchCommVsSize(b, 8) }
func BenchmarkFig8_D16(b *testing.B) { benchCommVsSize(b, 16) }
func BenchmarkFig9_D32(b *testing.B) { benchCommVsSize(b, 32) }

// --- Figures 10-11: scheduling overhead fraction --------------------

func benchOverhead(b *testing.B, alg expt.Algorithm) {
	cfg := benchConfig()
	sizes := []int64{64, 128, 2048, 8192, 131072}
	var series [][]float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := expt.NewRunner(cfg).OverheadVsSize(context.Background(), alg, []int{4, 48}, sizes)
		if err != nil {
			b.Fatal(err)
		}
		series = [][]float64{s[0].Y, s[1].Y}
	}
	// The paper's claims: a sharp decline across the 64->128 B protocol
	// switch, and a negligible fraction for large messages.
	b.ReportMetric(series[0][0], "d4_64B_fraction")
	b.ReportMetric(series[0][1], "d4_128B_fraction")
	b.ReportMetric(series[0][len(sizes)-1], "d4_128K_fraction")
	b.ReportMetric(series[1][0], "d48_64B_fraction")
	b.ReportMetric(series[1][len(sizes)-1], "d48_128K_fraction")
}

func BenchmarkFig10_RSNOverhead(b *testing.B)  { benchOverhead(b, expt.RSN) }
func BenchmarkFig11_RSNLOverhead(b *testing.B) { benchOverhead(b, expt.RSNL) }

// --- Ablations -------------------------------------------------------

// newMachine returns a new simulator for net. The ablation and fresh-
// machine benchmarks build one per run, so each op also prices the
// machine's construction.
func newMachine(b *testing.B, net topo.Topology, params costmodel.Params) *ipsc.Machine {
	mach, err := ipsc.NewMachine(net, params)
	if err != nil {
		b.Fatal(err)
	}
	return mach
}

// Randomized row shuffle vs ascending order in CCOM compression: the
// paper warns the unshuffled form causes early-phase node contention.
func BenchmarkAblationShuffle(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	m, err := comm.DRegular(64, 16, 1024, rng)
	if err != nil {
		b.Fatal(err)
	}
	var shuffled, ordered float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s1, err := sched.RSN(m, rand.New(rand.NewSource(int64(i))))
		if err != nil {
			b.Fatal(err)
		}
		s2, err := sched.RSNOrdered(m, rand.New(rand.NewSource(int64(i))))
		if err != nil {
			b.Fatal(err)
		}
		shuffled = float64(s1.NumPhases())
		ordered = float64(s2.NumPhases())
	}
	b.ReportMetric(shuffled, "shuffled_phases")
	b.ReportMetric(ordered, "ordered_phases")
}

// Pairwise-exchange priority on vs off in RS_NL, on a symmetric
// pattern where pairing matters most.
func BenchmarkAblationPairwise(b *testing.B) {
	cube := hypercube.MustNew(6)
	params := costmodel.DefaultIPSC860()
	m := comm.MustNew(64)
	rng := rand.New(rand.NewSource(6))
	for count := 0; count < 256; count++ {
		i, j := rng.Intn(64), rng.Intn(64)
		if i != j {
			m.Set(i, j, 32*1024)
			m.Set(j, i, 32*1024)
		}
	}
	var with, without float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s1, err := sched.RSNL(m, cube, rand.New(rand.NewSource(int64(i))))
		if err != nil {
			b.Fatal(err)
		}
		r1, err := newMachine(b, cube, params).RunS1(s1)
		if err != nil {
			b.Fatal(err)
		}
		s2, err := sched.RSNLNoPairwise(m, cube, rand.New(rand.NewSource(int64(i))))
		if err != nil {
			b.Fatal(err)
		}
		r2, err := newMachine(b, cube, params).RunS1(s2)
		if err != nil {
			b.Fatal(err)
		}
		with = r1.MakespanUS / 1000
		without = r2.MakespanUS / 1000
	}
	b.ReportMetric(with, "pairwise_ms")
	b.ReportMetric(without, "no_pairwise_ms")
}

// S1 vs S2 execution of the same RS_NL schedule on a symmetric
// pattern (the paper: S1 wins when the algorithm exploits pairwise
// exchange; on asymmetric patterns with few exchange opportunities the
// ordering can flip, which is §6's "unless ... the algorithm does not
// exploit the pairwise bidirectional communication").
func BenchmarkAblationProtocol(b *testing.B) {
	cube := hypercube.MustNew(6)
	params := costmodel.DefaultIPSC860()
	rng := rand.New(rand.NewSource(7))
	m := comm.MustNew(64)
	for count := 0; count < 512; count++ {
		i, j := rng.Intn(64), rng.Intn(64)
		if i != j {
			m.Set(i, j, 64*1024)
			m.Set(j, i, 64*1024)
		}
	}
	s, err := sched.RSNL(m, cube, rng)
	if err != nil {
		b.Fatal(err)
	}
	var s1ms, s2ms float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r1, err := newMachine(b, cube, params).RunS1(s)
		if err != nil {
			b.Fatal(err)
		}
		r2, err := newMachine(b, cube, params).RunS2(s)
		if err != nil {
			b.Fatal(err)
		}
		s1ms = r1.MakespanUS / 1000
		s2ms = r2.MakespanUS / 1000
	}
	b.ReportMetric(s1ms, "S1_ms")
	b.ReportMetric(s2ms, "S2_ms")
}

// CCOM compression vs direct O(n^2) COM scanning in RS_N: schedule
// quality is the same, scheduling cost is not (§4.2).
func BenchmarkAblationCompression(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	m, err := comm.DRegular(64, 8, 1024, rng)
	if err != nil {
		b.Fatal(err)
	}
	params := costmodel.DefaultIPSC860()
	var compressed, uncompressed float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s1, err := sched.RSN(m, rand.New(rand.NewSource(int64(i))))
		if err != nil {
			b.Fatal(err)
		}
		s2, err := sched.RSNUncompressed(m, rand.New(rand.NewSource(int64(i))))
		if err != nil {
			b.Fatal(err)
		}
		compressed = params.CompTimeMS(s1.Ops)
		uncompressed = params.CompTimeMS(s2.Ops)
	}
	b.ReportMetric(compressed, "ccom_comp_ms")
	b.ReportMetric(uncompressed, "full_scan_comp_ms")
}

// Blocking csend vs idealized unbounded-async sends in AC: how much of
// AC's large-message collapse is head-of-line blocking.
func BenchmarkAblationAsyncAC(b *testing.B) {
	cube := hypercube.MustNew(6)
	params := costmodel.DefaultIPSC860()
	rng := rand.New(rand.NewSource(9))
	m, err := comm.DRegular(64, 16, 128*1024, rng)
	if err != nil {
		b.Fatal(err)
	}
	order, err := sched.AC(m)
	if err != nil {
		b.Fatal(err)
	}
	var blocking, async float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r1, err := newMachine(b, cube, params).RunAC(order, m)
		if err != nil {
			b.Fatal(err)
		}
		r2, err := newMachine(b, cube, params).RunACAsync(order, m)
		if err != nil {
			b.Fatal(err)
		}
		blocking = r1.MakespanUS / 1000
		async = r2.MakespanUS / 1000
	}
	b.ReportMetric(blocking, "blocking_ms")
	b.ReportMetric(async, "async_ms")
}

// Loose synchrony (S1 ready signals) vs global barrier per phase: the
// cost §6's modification avoids.
func BenchmarkAblationSynchrony(b *testing.B) {
	cube := hypercube.MustNew(6)
	params := costmodel.DefaultIPSC860()
	rng := rand.New(rand.NewSource(12))
	m, err := comm.DRegular(64, 8, 8192, rng)
	if err != nil {
		b.Fatal(err)
	}
	s, err := sched.RSNL(m, cube, rng)
	if err != nil {
		b.Fatal(err)
	}
	var loose, strict float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r1, err := newMachine(b, cube, params).RunS1(s)
		if err != nil {
			b.Fatal(err)
		}
		r2, err := newMachine(b, cube, params).RunS1Barrier(s)
		if err != nil {
			b.Fatal(err)
		}
		loose = r1.MakespanUS / 1000
		strict = r2.MakespanUS / 1000
	}
	b.ReportMetric(loose, "loose_sync_ms")
	b.ReportMetric(strict, "global_barrier_ms")
}

// Hypercube vs mesh vs torus for the same pattern and scheduler — the
// §5 topology generalization at work.
func BenchmarkAblationTopology(b *testing.B) {
	params := costmodel.DefaultIPSC860()
	rng := rand.New(rand.NewSource(13))
	m, err := comm.DRegular(64, 8, 16*1024, rng)
	if err != nil {
		b.Fatal(err)
	}
	nets := []topo.Topology{
		hypercube.MustNew(6),
		mesh.MustNew(8, 8, false),
		mesh.MustNew(8, 8, true),
	}
	results := make([]float64, len(nets))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for ni, net := range nets {
			s, err := sched.RSNL(m, net, rand.New(rand.NewSource(int64(i))))
			if err != nil {
				b.Fatal(err)
			}
			r, err := newMachine(b, net, params).RunS1(s)
			if err != nil {
				b.Fatal(err)
			}
			results[ni] = r.MakespanUS / 1000
		}
	}
	b.ReportMetric(results[0], "hypercube_ms")
	b.ReportMetric(results[1], "mesh_ms")
	b.ReportMetric(results[2], "torus_ms")
}

// Non-uniform message sizes: plain RS_NL vs the size-aware variant vs
// largest-first list scheduling — the [15] extension measured on
// simulated makespan, not just the phase-max proxy.
func BenchmarkExtensionNonUniform(b *testing.B) {
	cube := hypercube.MustNew(6)
	params := costmodel.DefaultIPSC860()
	m, err := comm.MixedSizes(64, 8, 64, 64*1024, rand.New(rand.NewSource(14)))
	if err != nil {
		b.Fatal(err)
	}
	var plain, sized, lf float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s1, err := sched.RSNL(m, cube, rand.New(rand.NewSource(int64(i))))
		if err != nil {
			b.Fatal(err)
		}
		r1, err := newMachine(b, cube, params).RunS1(s1)
		if err != nil {
			b.Fatal(err)
		}
		s2, err := sched.RSNLSized(m, cube, rand.New(rand.NewSource(int64(i))))
		if err != nil {
			b.Fatal(err)
		}
		r2, err := newMachine(b, cube, params).RunS1(s2)
		if err != nil {
			b.Fatal(err)
		}
		s3, err := sched.GreedyLargestFirstLinkFree(m, cube)
		if err != nil {
			b.Fatal(err)
		}
		r3, err := newMachine(b, cube, params).RunS1(s3)
		if err != nil {
			b.Fatal(err)
		}
		plain = r1.MakespanUS / 1000
		sized = r2.MakespanUS / 1000
		lf = r3.MakespanUS / 1000
	}
	b.ReportMetric(plain, "RSNL_ms")
	b.ReportMetric(sized, "RSNL_sized_ms")
	b.ReportMetric(lf, "greedy_LF_link_ms")
}

// The paper's phase-count claim: RS_N completes in about d + log d
// permutations for random d-regular workloads.
func BenchmarkPhaseCountScaling(b *testing.B) {
	rng := rand.New(rand.NewSource(15))
	densities := []int{4, 8, 16, 32, 48}
	means := make([]float64, len(densities))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for di, d := range densities {
			total := 0
			const samples = 5
			for s := 0; s < samples; s++ {
				m, err := comm.DRegular(64, d, 1024, rng)
				if err != nil {
					b.Fatal(err)
				}
				sc, err := sched.RSN(m, rng)
				if err != nil {
					b.Fatal(err)
				}
				total += sc.NumPhases()
			}
			means[di] = float64(total) / samples
		}
	}
	for di, d := range densities {
		b.ReportMetric(means[di], fmt.Sprintf("iters_d%d", d))
	}
}

// --- Campaign engine: parallel vs sequential fan-out ----------------

// benchCampaign measures a multi-cell campaign (a density sweep at two
// message sizes) on net — the paper's cube when nil — at a fixed
// worker count. The parallel and sequential variants produce
// bit-identical results; on a multi-core machine the parallel one
// finishes close to GOMAXPROCS times sooner. One campaign runs before
// the timer starts, so allocs/op does not move with the iteration
// count and the strict allocation gate can hold the sequential pair.
func benchCampaign(b *testing.B, net topo.Topology, parallelism int) {
	cfg := benchConfig()
	if net != nil {
		cfg.Topology = net
	}
	r := &expt.Runner{Config: cfg, Parallelism: parallelism}
	var points []expt.Point
	for _, d := range []int{4, 8, 16, 32} {
		for _, size := range []int64{1024, 16 * 1024} {
			points = append(points, expt.Point{Density: d, MsgBytes: size})
		}
	}
	run := func() {
		if _, err := r.MeasureCells(context.Background(), points); err != nil {
			b.Fatal(err)
		}
	}
	run()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
	b.ReportMetric(float64(parallelism), "workers")
}

func BenchmarkCampaignSequential(b *testing.B) { benchCampaign(b, nil, 1) }
func BenchmarkCampaignParallel(b *testing.B)   { benchCampaign(b, nil, runtime.GOMAXPROCS(0)) }

// The torus pair is the campaign on the 8x8 torus — the same node
// count and grid as the hypercube campaign above, so the pair prices
// the topology generalization: longer XY routes mean a bigger route
// table, more occupancy work per Check_Path, and more phases per
// schedule. Tracked by the CI benchgate alongside the cube runs.
func BenchmarkCampaignTorusSequential(b *testing.B) {
	benchCampaign(b, mesh.MustNew(8, 8, true), 1)
}

func BenchmarkCampaignTorusParallel(b *testing.B) {
	benchCampaign(b, mesh.MustNew(8, 8, true), runtime.GOMAXPROCS(0))
}

// --- Micro-benchmarks: raw scheduler and simulator throughput -------

func benchScheduler(b *testing.B, build func(*comm.Matrix, *rand.Rand) (*sched.Schedule, error)) {
	rng := rand.New(rand.NewSource(10))
	m, err := comm.DRegular(64, 16, 1024, rng)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := build(m, rng); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSchedulerLP(b *testing.B) {
	benchScheduler(b, func(m *comm.Matrix, _ *rand.Rand) (*sched.Schedule, error) {
		return sched.LP(m)
	})
}

func BenchmarkSchedulerRSN(b *testing.B) {
	benchScheduler(b, sched.RSN)
}

func BenchmarkSchedulerRSNL(b *testing.B) {
	cube := hypercube.MustNew(6)
	benchScheduler(b, func(m *comm.Matrix, rng *rand.Rand) (*sched.Schedule, error) {
		return sched.RSNL(m, cube, rng)
	})
}

func BenchmarkSchedulerGreedy(b *testing.B) {
	benchScheduler(b, func(m *comm.Matrix, _ *rand.Rand) (*sched.Schedule, error) {
		return sched.Greedy(m)
	})
}

func BenchmarkSimulatorRSNL(b *testing.B) {
	cube := hypercube.MustNew(6)
	params := costmodel.DefaultIPSC860()
	rng := rand.New(rand.NewSource(11))
	m, err := comm.DRegular(64, 16, 4096, rng)
	if err != nil {
		b.Fatal(err)
	}
	s, err := sched.RSNL(m, cube, rng)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := newMachine(b, cube, params).RunS1(s); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulatorRSNLReused is BenchmarkSimulatorRSNL on one
// reusable Machine over a dense route table — the configuration every
// campaign worker and daemon worker runs in: routes come from the
// table's CSR arrays and channel occupancy walks their stored channel
// ids through one bitset. Compare allocs/op against the fresh-machine
// benchmark above.
func BenchmarkSimulatorRSNLReused(b *testing.B) {
	cube := hypercube.MustNew(6)
	params := costmodel.DefaultIPSC860()
	rng := rand.New(rand.NewSource(11))
	m, err := comm.DRegular(64, 16, 4096, rng)
	if err != nil {
		b.Fatal(err)
	}
	s, err := sched.RSNL(m, cube, rng)
	if err != nil {
		b.Fatal(err)
	}
	mach, err := ipsc.NewMachine(topo.NewRouteTable(cube), params)
	if err != nil {
		b.Fatal(err)
	}
	warmMachine(b, mach, s)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mach.RunS1(s); err != nil {
			b.Fatal(err)
		}
	}
}

// warmMachine runs s once on mach, which brings a reused machine to
// steady state: its first run grows the arenas (6,564 allocations at
// 1024 nodes), and every later run allocates nothing. Timing from the
// second run keeps allocs/op independent of the iteration count, which
// the strict allocs gate on the BenchmarkSimulator family relies on.
func warmMachine(b *testing.B, mach *ipsc.Machine, s *sched.Schedule) {
	b.Helper()
	if _, err := mach.RunS1(s); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkSimulatorRSNL_1024 scales the reused-machine benchmark to
// the service's classic 1024-node cap (the dim-10 cube): ~16x the
// events of the 64-node run through the same flat-event engine, arena
// state, and bitset occupancy, so hot-path regressions that only bite
// at depth — queue scans over more distinct times, route walks over
// 5120 channels — show up here before they show up in a campaign.
func BenchmarkSimulatorRSNL_1024(b *testing.B) {
	cube := hypercube.MustNew(10)
	params := costmodel.DefaultIPSC860()
	rng := rand.New(rand.NewSource(11))
	m, err := comm.DRegular(1024, 4, 4096, rng)
	if err != nil {
		b.Fatal(err)
	}
	table := topo.NewRouteTable(cube)
	core := sched.NewCoreForTable(table)
	s, err := core.RSNL(m, rng)
	if err != nil {
		b.Fatal(err)
	}
	mach, err := ipsc.NewMachine(table, params)
	if err != nil {
		b.Fatal(err)
	}
	warmMachine(b, mach, s)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mach.RunS1(s); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulatorContendedReused runs the two protocols where all
// 64 nodes fire at once — AC's send vectors and RS_N's S2 — at the
// Table 1 row with the most contention (d=48, 128 KB) on one reused
// machine over the dense cube table. One op is one AC run plus one S2
// run. It tracks perfbench's ipsc.run_ac_us and ipsc.run_s2_us, the
// stages where blocked transfers wait for circuits.
func BenchmarkSimulatorContendedReused(b *testing.B) {
	cube := hypercube.MustNew(6)
	params := costmodel.DefaultIPSC860()
	rng := rand.New(rand.NewSource(11))
	m, err := comm.DRegular(64, 48, 131072, rng)
	if err != nil {
		b.Fatal(err)
	}
	order, err := sched.AC(m)
	if err != nil {
		b.Fatal(err)
	}
	s, err := sched.RSN(m, rng)
	if err != nil {
		b.Fatal(err)
	}
	mach := newMachine(b, topo.NewRouteTable(cube), params)
	run := func() {
		if _, err := mach.RunAC(order, m); err != nil {
			b.Fatal(err)
		}
		if _, err := mach.RunS2(s); err != nil {
			b.Fatal(err)
		}
	}
	run()
	run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}

// BenchmarkRouteTableBitset is the occupancy micro-benchmark under the
// schedulers and the simulator: claim-release of whole routes in a
// topo.Occupancy over the dense table, one bit per stored hop. One op
// is one claim, one blocked claim of the same route and one release
// over a route of the 64-node cube.
func BenchmarkRouteTableBitset(b *testing.B) {
	cube := hypercube.MustNew(6)
	rt := topo.NewRouteTable(cube)
	if rt.Lazy() {
		b.Fatal("cube table should be dense")
	}
	occ := topo.NewOccupancy(rt)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src := i & 63
		dst := (i * 31) & 63
		if occ.Claim(src, dst) < 0 {
			if src != dst && occ.Claim(src, dst) < 0 {
				b.Fatal("claimed route claimed again")
			}
			occ.Release(src, dst, nil)
		}
	}
}

// --- Scheduler cores: reused (precomputed routes) vs throwaway ------

// benchSchedMatrix is the shared workload of the BenchmarkSched*
// pair: the paper's machine at d=16, the densest Table 1 row below
// half machine size.
func benchSchedMatrix(b *testing.B) *comm.Matrix {
	b.Helper()
	m, err := comm.DRegular(64, 16, 4096, rand.New(rand.NewSource(10)))
	if err != nil {
		b.Fatal(err)
	}
	return m
}

// warmBuilds runs build, which schedules on a reused core and hands the
// schedule back, twice before a reused-core benchmark starts its
// timer: the first build sizes the core's scratch and fills its pool
// of recycled phases, the second reuses them. Every timed build is the
// same schedule (a randomized one reseeds its generator first, as
// campaign and daemon workers reseed theirs per operation), so it
// allocates nothing and allocs/op is 0 at any iteration count, which
// the strict allocs gate relies on.
func warmBuilds(build func()) {
	build()
	build()
}

// BenchmarkSchedCoreRSNLReused is the steady-state configuration of
// campaign and unschedd workers: one reusable core whose occupancy
// tables walk a precomputed route table, a generator reseeded per
// build, and every schedule handed back with Recycle once used.
// Compare allocs/op against the throwaway benchmark below — the gap is
// what core reuse and recycling save on every request.
func BenchmarkSchedCoreRSNLReused(b *testing.B) {
	m := benchSchedMatrix(b)
	core := sched.NewCore(hypercube.MustNew(6))
	rng := rand.New(rand.NewSource(1))
	build := func() {
		rng.Seed(1)
		s, err := core.RSNL(m, rng)
		if err != nil {
			b.Fatal(err)
		}
		core.Recycle(s)
	}
	warmBuilds(build)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		build()
	}
}

// BenchmarkSchedCoreRSNLThrowaway is the package-level path: every
// call rebuilds all scratch state and generates e-cube routes on the
// fly.
func BenchmarkSchedCoreRSNLThrowaway(b *testing.B) {
	m := benchSchedMatrix(b)
	cube := hypercube.MustNew(6)
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sched.RSNL(m, cube, rng); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSchedCoreGreedyLFLinkReused exercises the recycled
// per-phase occupancy pool and recycled schedules; the throwaway
// variant allocates a fresh O(channels) table for every phase it
// opens.
func BenchmarkSchedCoreGreedyLFLinkReused(b *testing.B) {
	m := benchSchedMatrix(b)
	core := sched.NewCore(hypercube.MustNew(6))
	build := func() {
		s, err := core.GreedyLargestFirstLinkFree(m)
		if err != nil {
			b.Fatal(err)
		}
		core.Recycle(s)
	}
	warmBuilds(build)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		build()
	}
}

func BenchmarkSchedCoreGreedyLFLinkThrowaway(b *testing.B) {
	m := benchSchedMatrix(b)
	cube := hypercube.MustNew(6)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sched.GreedyLargestFirstLinkFree(m, cube); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSchedCoreRoundTripReused measures the full steady-state
// pipeline of a worker goroutine: reseed, schedule on a reused core,
// simulate on a reused machine, hand the schedule back.
func BenchmarkSchedCoreRoundTripReused(b *testing.B) {
	m := benchSchedMatrix(b)
	cube := hypercube.MustNew(6)
	core := sched.NewCore(cube)
	mach, err := ipsc.NewMachine(cube, costmodel.DefaultIPSC860())
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	roundTrip := func() {
		rng.Seed(1)
		s, err := core.RSNL(m, rng)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := mach.RunS1(s); err != nil {
			b.Fatal(err)
		}
		core.Recycle(s)
	}
	warmBuilds(roundTrip)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		roundTrip()
	}
}

// BenchmarkRouteTableBuild prices the precomputation itself, so the
// "when does the table pay off" break-even in the README stays
// honest.
func BenchmarkRouteTableBuild(b *testing.B) {
	cube := hypercube.MustNew(6)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rt := topo.NewRouteTable(cube); rt.Nodes() != 64 {
			b.Fatal("bad table")
		}
	}
}

func BenchmarkEcubeRouting(b *testing.B) {
	cube := hypercube.MustNew(6)
	var buf []int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = cube.RouteIDs(i%64, (i*31)%64, buf[:0])
	}
	_ = buf
}

// --- Workload generators: spec builds into reused matrices ----------

// benchWorkloadGen measures one spec regenerating into a reused
// 64-node matrix — the exact configuration of a campaign worker's
// pattern stage. Tracked by the CI benchgate (the Workload regex), so
// a generator that silently reverts to per-cell O(n^2) allocation or
// super-linear drawing fails the gate.
func benchWorkloadGen(b *testing.B, spec string) {
	sp, err := workload.ParseSpec(spec)
	if err != nil {
		b.Fatal(err)
	}
	m := comm.MustNew(64)
	rng := rand.New(rand.NewSource(19))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sp.BuildInto(m, rng); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWorkloadGenUniform(b *testing.B)   { benchWorkloadGen(b, "uniform:16:1024") }
func BenchmarkWorkloadGenScatter(b *testing.B)   { benchWorkloadGen(b, "scatter:16:1024") }
func BenchmarkWorkloadGenHotspot(b *testing.B)   { benchWorkloadGen(b, "hotspot:16:1024:4") }
func BenchmarkWorkloadGenHalo(b *testing.B)      { benchWorkloadGen(b, "halo:32x32:512") }
func BenchmarkWorkloadGenSpMV(b *testing.B)      { benchWorkloadGen(b, "spmv:8:8") }
func BenchmarkWorkloadGenStencil3D(b *testing.B) { benchWorkloadGen(b, "stencil3d:8x8x8:64") }

// BenchmarkCampaignWorkloadMix prices a full non-uniform campaign —
// the workload axis end to end through the parallel runner on a torus.
func BenchmarkCampaignWorkloadMix(b *testing.B) {
	cfg := benchConfig()
	cfg.Topology = mesh.MustNew(8, 8, true)
	specs := []workload.Spec{
		workload.MustParseSpec("halo:32x32:512"),
		workload.MustParseSpec("hotspot:8:4096:4"),
		workload.MustParseSpec("stencil3d:8x8x8:256"),
		workload.MustParseSpec("spmv:8:8"),
	}
	r := &expt.Runner{Config: cfg, Parallelism: runtime.GOMAXPROCS(0)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.MeasureWorkloads(context.Background(), specs); err != nil {
			b.Fatal(err)
		}
	}
}
