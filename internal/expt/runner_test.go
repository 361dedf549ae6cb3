package expt

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"unsched/internal/hypercube"
	"unsched/internal/topo"
	"unsched/internal/workload"
)

// renderTable1 runs Table1 at the given parallelism and renders it to
// text, so determinism comparisons cover the full pipeline down to the
// formatted bytes.
func renderTable1(t *testing.T, cfg Config, parallelism int) string {
	t.Helper()
	r := &Runner{Config: cfg, Parallelism: parallelism}
	rows, err := r.Table1(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteTable1(&buf, rows); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func renderRegionMap(t *testing.T, cfg Config, parallelism int) string {
	t.Helper()
	r := &Runner{Config: cfg, Parallelism: parallelism}
	regions, err := r.RegionMap(context.Background(), []int{2, 8, 12}, []int64{64, 4096, 128 * 1024})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteRegionMap(&buf, regions); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestRunnerDeterministicAcrossParallelism is the tentpole invariant:
// the campaign output at any worker count is byte-identical to the
// sequential run, because every unit's RNG streams are keyed by its
// (d, M, sample, algorithm) tuple, never by execution order.
func TestRunnerDeterministicAcrossParallelism(t *testing.T) {
	// Table 1 needs the 64-node cube (its densities reach 48); the
	// region map runs on a 16-node cube to keep the grid cheap.
	cfg := DefaultConfig()
	cfg.Samples = 2

	seqTable := renderTable1(t, cfg, 1)
	for _, p := range []int{2, 8} {
		if got := renderTable1(t, cfg, p); got != seqTable {
			t.Errorf("Table1 at parallelism %d differs from sequential:\n--- p=1\n%s--- p=%d\n%s", p, seqTable, p, got)
		}
	}

	cfg.Topology = hypercube.MustNew(4)
	seqMap := renderRegionMap(t, cfg, 1)
	for _, p := range []int{3, 8} {
		if got := renderRegionMap(t, cfg, p); got != seqMap {
			t.Errorf("RegionMap at parallelism %d differs from sequential:\n--- p=1\n%s--- p=%d\n%s", p, seqMap, p, got)
		}
	}
}

// TestRunnerDeterministicOnAnyTopology extends the tentpole invariant
// across the topology-generic engine: on a torus, a ring, and an
// arbitrary graph, the campaign output at any worker count is
// byte-identical to the sequential run — unit RNG streams are keyed
// by coordinates, never by worker scheduling or topology internals.
func TestRunnerDeterministicOnAnyTopology(t *testing.T) {
	// Node counts are powers of two because the contender set includes
	// LP, whose XOR pairing needs one.
	graph16 := "graph:16:0-1,1-2,2-3,3-4,4-5,5-6,6-7,7-8,8-9,9-10,10-11,11-12,12-13,13-14,14-15,15-0,0-8,4-12,2-10"
	for _, spec := range []string{"torus:4x4", "ring:16", graph16} {
		cfg := DefaultConfig()
		cfg.Topology = topo.MustParseSpec(spec).MustBuild()
		cfg.Samples = 2
		seq := renderRegionMap(t, cfg, 1)
		for _, p := range []int{3, 8} {
			if got := renderRegionMap(t, cfg, p); got != seq {
				t.Errorf("%s: RegionMap at parallelism %d differs from sequential:\n--- p=1\n%s--- p=%d\n%s",
					spec, p, seq, p, got)
			}
		}
	}
}

// TestRunnerSharedRouteTable: a caller-supplied Config.Routes (the
// daemon sharing path) must change nothing about the measured
// numbers, and a table for the wrong topology must be rejected.
func TestRunnerSharedRouteTable(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Topology = topo.MustParseSpec("torus:4x4").MustBuild()
	cfg.Samples = 2
	own, err := (&Runner{Config: cfg, Parallelism: 4}).MeasureCell(context.Background(), 4, 1024)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Routes = topo.NewRouteTable(cfg.Topology)
	shared, err := (&Runner{Config: cfg, Parallelism: 4}).MeasureCell(context.Background(), 4, 1024)
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range Algorithms {
		if own[alg] != shared[alg] {
			t.Errorf("%s: per-campaign table %+v != shared table %+v", alg, own[alg], shared[alg])
		}
	}
	cfg.Routes = topo.NewRouteTable(hypercube.MustNew(4))
	if err := cfg.Validate(); err == nil {
		t.Error("route table for the wrong topology accepted")
	}
}

// TestRunnerMatchesMeasureCell checks the pooled single-cell path and
// the convenience Config.MeasureCell agree exactly.
func TestRunnerMatchesMeasureCell(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Samples = 2
	direct, err := cfg.MeasureCell(8, 1024)
	if err != nil {
		t.Fatal(err)
	}
	pooled, err := (&Runner{Config: cfg, Parallelism: 4}).MeasureCell(context.Background(), 8, 1024)
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range Algorithms {
		if direct[alg] != pooled[alg] {
			t.Errorf("%s: direct %+v != pooled %+v", alg, direct[alg], pooled[alg])
		}
	}
}

func TestRunnerCancellation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Samples = 50
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r := &Runner{Config: cfg, Parallelism: 2}
	if _, err := r.Table1(ctx); err == nil {
		t.Error("cancelled campaign returned no error")
	}
}

func TestRunnerCancelMidway(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Topology = hypercube.MustNew(4)
	cfg.Samples = 4
	ctx, cancel := context.WithCancel(context.Background())
	stopAt := 3
	r := &Runner{Config: cfg, Parallelism: 2}
	r.Progress = func(done, total int) {
		if done == stopAt {
			cancel()
		}
	}
	if _, err := r.MeasureCells(ctx, []Point{UniformPoint(4, 1024), UniformPoint(8, 1024), UniformPoint(12, 1024)}); err != context.Canceled {
		t.Errorf("mid-campaign cancel returned %v, want context.Canceled", err)
	}
}

func TestRunnerProgress(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Topology = hypercube.MustNew(3)
	cfg.Samples = 2
	var dones []int
	var totals []int
	r := &Runner{Config: cfg, Parallelism: 4}
	r.Progress = func(done, total int) {
		dones = append(dones, done)
		totals = append(totals, total)
	}
	points := []Point{UniformPoint(2, 256), UniformPoint(4, 256)}
	if _, err := r.MeasureCells(context.Background(), points); err != nil {
		t.Fatal(err)
	}
	want := len(points) * cfg.Samples * len(Algorithms)
	if len(dones) != want {
		t.Fatalf("progress called %d times, want %d", len(dones), want)
	}
	for i, d := range dones {
		if d != i+1 {
			t.Errorf("progress done[%d] = %d, want %d", i, d, i+1)
		}
		if totals[i] != want {
			t.Errorf("progress total[%d] = %d, want %d", i, totals[i], want)
		}
	}
}

func TestRunnerRejectsInvalidConfig(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Samples = 0
	r := NewRunner(cfg)
	if _, err := r.MeasureCells(context.Background(), []Point{UniformPoint(4, 64)}); err == nil {
		t.Error("invalid config accepted")
	}
}

// TestRunnerFineGrainedDeterministic pins a narrow campaign: a
// single-cell grid with more workers than (workload, sample) units
// leaves the extra workers idle, and must still measure
// byte-identically to the sequential run. Progress accounting must
// also be unchanged: one tick per (unit, algorithm).
func TestRunnerFineGrainedDeterministic(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Topology = topo.MustParseSpec("torus:4x4").MustBuild()
	cfg.Samples = 2 // 1 point x 2 samples = 2 units: parallelism >2 outnumbers them
	seq, err := (&Runner{Config: cfg, Parallelism: 1}).MeasureCell(context.Background(), 4, 1024)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{2, 3, 8} {
		var dones []int
		r := &Runner{Config: cfg, Parallelism: p}
		r.Progress = func(done, total int) {
			if total != 2*len(Algorithms) {
				t.Errorf("p=%d: progress total %d, want %d", p, total, 2*len(Algorithms))
			}
			dones = append(dones, done)
		}
		got, err := r.MeasureCell(context.Background(), 4, 1024)
		if err != nil {
			t.Fatal(err)
		}
		if len(dones) != 2*len(Algorithms) || dones[len(dones)-1] != 2*len(Algorithms) {
			t.Errorf("p=%d: progress ticks %v, want %d monotone ticks", p, dones, 2*len(Algorithms))
		}
		for _, alg := range Algorithms {
			if got[alg] != seq[alg] {
				t.Errorf("%s at parallelism %d: %+v != sequential %+v", alg, p, got[alg], seq[alg])
			}
		}
	}
}

// TestRunnerWorkloadDeterministicAcrossParallelism extends the
// tentpole invariant across the workload axis: a mixed grid of
// non-uniform workloads (halo, hot-spot, stencil, spmv, permutation
// traffic) on a torus measures bit-identically at every worker count.
func TestRunnerWorkloadDeterministicAcrossParallelism(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Topology = topo.MustParseSpec("torus:4x4").MustBuild()
	cfg.Samples = 2
	specs := []workload.Spec{
		workload.MustParseSpec("halo:8x8:512"),
		workload.MustParseSpec("hotspot:4:1024:2"),
		workload.MustParseSpec("stencil3d:4x4x4:64"),
		workload.MustParseSpec("spmv:6:8"),
		workload.MustParseSpec("perm:2048"),
		workload.MustParseSpec("scatter:4:1024"),
	}
	render := func(parallelism int) string {
		r := &Runner{Config: cfg, Parallelism: parallelism}
		cells, err := r.MeasureWorkloads(context.Background(), specs)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := WriteWorkloadTable(&buf, cells); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	seq := render(1)
	for _, p := range []int{3, 8} {
		if got := render(p); got != seq {
			t.Errorf("workload grid at parallelism %d differs from sequential:\n--- p=1\n%s--- p=%d\n%s", p, seq, p, got)
		}
	}
	for _, sp := range specs {
		if !strings.Contains(seq, sp.String()) {
			t.Errorf("workload table missing row for %s:\n%s", sp, seq)
		}
	}
}

// TestRunnerUniformSpecMatchesClassicGrid: the uniform:* re-expression
// of the density sweep is not merely equivalent — it is the same
// cells, stream for stream. A classic (Density, MsgBytes) point and
// its workload.UniformSpec form must measure identically.
func TestRunnerUniformSpecMatchesClassicGrid(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Topology = hypercube.MustNew(4)
	cfg.Samples = 2
	r := &Runner{Config: cfg, Parallelism: 4}
	classic, err := r.MeasureCells(context.Background(), []Point{{Density: 4, MsgBytes: 1024}})
	if err != nil {
		t.Fatal(err)
	}
	viaSpec, err := r.MeasureWorkloads(context.Background(), []workload.Spec{workload.UniformSpec(4, 1024)})
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range Algorithms {
		if classic[0][alg] != viaSpec[0][alg] {
			t.Errorf("%s: classic %+v != spec form %+v", alg, classic[0][alg], viaSpec[0][alg])
		}
	}
}

// TestRunnerScatterDistinctFromUniform: the scatter workload (the
// O(d) send-side generator) must draw from its own stream key — a
// scatter cell and a uniform cell with identical (d, bytes) must not
// measure as the same numbers.
func TestRunnerScatterDistinctFromUniform(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Topology = hypercube.MustNew(4)
	cfg.Samples = 2
	r := &Runner{Config: cfg, Parallelism: 2}
	cells, err := r.MeasureWorkloads(context.Background(), []workload.Spec{
		workload.UniformSpec(4, 1024),
		workload.MustParseSpec("scatter:4:1024"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if cells[0][RSNL].CommMS == cells[1][RSNL].CommMS {
		t.Error("scatter cell measured identically to the uniform cell; stream keys must differ")
	}
}

// TestRunnerRejectsUnbuildableWorkload: a spec that cannot build on
// the campaign machine fails fast with an error naming it.
func TestRunnerRejectsUnbuildableWorkload(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Topology = hypercube.MustNew(3) // 8 nodes: not square
	cfg.Samples = 1
	r := &Runner{Config: cfg}
	_, err := r.MeasureWorkloads(context.Background(), []workload.Spec{workload.MustParseSpec("transpose:64")})
	if err == nil || !strings.Contains(err.Error(), "transpose") {
		t.Errorf("unbuildable workload error = %v, want one naming transpose", err)
	}
	_, err = r.MeasureCells(context.Background(), []Point{{Density: 4, MsgBytes: 64, Workload: workload.MustParseSpec("perm:64")}})
	if err == nil {
		t.Error("ambiguous point (both shorthand and Workload) accepted")
	}
}
