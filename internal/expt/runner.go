package expt

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"

	"unsched/internal/comm"
	"unsched/internal/ipsc"
	"unsched/internal/plot"
	"unsched/internal/sched"
	"unsched/internal/stats"
	"unsched/internal/topo"
	"unsched/internal/workload"
)

// Point is one cell of a campaign grid: a workload measured on the
// campaign's machine. The canonical form carries a workload.Spec; the
// historical (Density, MsgBytes) pair remains as shorthand for the
// paper's uniform workload — a Point with a zero Workload resolves to
// workload.UniformSpec(Density, MsgBytes). Setting both forms is
// ambiguous and rejected.
type Point struct {
	// Density and MsgBytes are the classic uniform-workload shorthand.
	Density  int
	MsgBytes int64
	// Workload, when set (Kind != ""), names the cell's workload
	// directly; Density and MsgBytes must then be zero.
	Workload workload.Spec
}

// UniformPoint is the classic density-sweep cell.
func UniformPoint(d int, msgBytes int64) Point {
	return Point{Workload: workload.UniformSpec(d, msgBytes)}
}

// WorkloadPoint wraps a workload spec as a grid cell.
func WorkloadPoint(sp workload.Spec) Point { return Point{Workload: sp} }

// WorkloadPoints wraps a spec list as a campaign grid.
func WorkloadPoints(specs []workload.Spec) []Point {
	points := make([]Point, len(specs))
	for i, sp := range specs {
		points[i] = Point{Workload: sp}
	}
	return points
}

// spec resolves the point to its workload spec.
func (p Point) spec() (workload.Spec, error) {
	if p.Workload.Kind != "" {
		if p.Density != 0 || p.MsgBytes != 0 {
			return workload.Spec{}, fmt.Errorf("expt: point sets both Workload %q and the (Density, MsgBytes) shorthand", p.Workload)
		}
		return p.Workload, nil
	}
	return workload.UniformSpec(p.Density, p.MsgBytes), nil
}

// Runner executes measurement campaigns over a bounded worker pool.
// Every (workload, sample) combination is one independent work unit;
// units fan out across workers, and within a unit the four algorithms
// are measured back to back on the one matrix the unit generates —
// regenerated into the worker's reused buffer, never allocated per
// cell. A grid with fewer units than the pool has workers leaves the
// extra workers idle. Every RNG stream is derived from the master
// seed keyed by the (workload key, sample, algorithm) tuple it serves
// — never by execution order — so the measured numbers are
// bit-identical at any parallelism, including 1, which reproduces the
// sequential harness. The classic uniform workload's key is its
// historical (density, msgBytes) pair, so density-sweep campaigns
// reproduce pre-workload outputs exactly.
//
// The zero value of Parallelism and Progress is valid: the runner then
// uses GOMAXPROCS workers and reports no progress. A Runner is safe
// for concurrent use; each campaign call builds its own pool.
type Runner struct {
	Config Config
	// Parallelism is the number of worker goroutines; values <= 0 mean
	// runtime.GOMAXPROCS(0). Each worker owns one reusable simulator
	// machine, one scheduler core, and one workload matrix, so memory
	// scales with Parallelism, not with campaign size.
	Parallelism int
	// Progress, when non-nil, is called after each completed algorithm
	// run with the running count of completed runs and the campaign
	// total. Calls are serialized and strictly increasing in done.
	Progress func(done, total int)
}

// NewRunner returns a Runner over cfg with default parallelism.
func NewRunner(cfg Config) *Runner { return &Runner{Config: cfg} }

func (r *Runner) workers() int {
	if r.Parallelism > 0 {
		return r.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

// unitResult carries one unit's measurements into the aggregation
// buffer. Units stream their results into a preallocated slot indexed
// by (cell, sample, algorithm), so aggregation order — and therefore
// floating-point summation order — never depends on completion order.
type unitResult struct {
	commMS float64
	compMS float64
	iters  float64
	// feat holds the sample matrix's measured features, populated only
	// when the campaign carries an Outcomes sink (one O(n^2) pass per
	// unit, skipped otherwise).
	feat sched.Features
}

// unitScratch is the per-worker reusable state of runSample beyond the
// machine and core: the workload matrix every cell regenerates into,
// and the stream-key buffer.
type unitScratch struct {
	m   *comm.Matrix
	key []int64
}

// MeasureCells measures every point of the grid and returns one
// map[Algorithm]Cell per point, in point order. It is the campaign
// primitive every table and figure builds on: all units of all points
// share one worker pool, so wide grids saturate the machine even when
// individual cells are small. The context cancels the campaign between
// units; the first error (or ctx.Err) is returned.
func (r *Runner) MeasureCells(ctx context.Context, points []Point) ([]map[Algorithm]Cell, error) {
	cfg := r.Config
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	nodes := cfg.Topology.Nodes()
	// Resolve and validate every cell's workload up front: a spec that
	// cannot build on this machine fails the campaign before any work
	// is scheduled, with an error naming the spec instead of a
	// mid-campaign worker abort.
	specs := make([]workload.Spec, len(points))
	for i, pt := range points {
		sp, err := pt.spec()
		if err != nil {
			return nil, err
		}
		if err := sp.Validate(); err != nil {
			return nil, err
		}
		if err := sp.ValidateFor(nodes); err != nil {
			return nil, fmt.Errorf("%w (campaign topology %s)", err, cfg.Topology.Name())
		}
		specs[i] = sp
	}
	samples := cfg.Samples
	nAlg := len(Algorithms)
	units := len(points) * samples
	total := units * nAlg
	results := make([]unitResult, total)

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	// All routes on the campaign's machine are a pure function of
	// (src, dst), so precompute them once and share the read-only
	// table: every worker's scheduler core walks it instead of
	// regenerating routes on each Check_Path/Mark_Path. A caller-
	// supplied table (Config.Routes) skips even that one build.
	routes := cfg.Routes
	if routes == nil {
		routes = topo.NewRouteTable(cfg.Topology)
	}

	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
		done     int
	)
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
		cancel()
	}
	var tick func()
	if r.Progress != nil {
		tick = func() {
			mu.Lock()
			done++
			r.Progress(done, total)
			mu.Unlock()
		}
	}
	unitCh := make(chan int)
	for w := 0; w < min(r.workers(), units); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Each worker owns one reusable simulator machine, one
			// reusable scheduler core over the shared route table, one
			// reused workload matrix, and one stream source; all are
			// confined to this goroutine, so the steady-state
			// generate→schedule→simulate pipeline allocates (near)
			// nothing per unit. The machine runs over the shared route
			// table too: transfers then claim and release whole routes
			// through its word-mask bitset spans.
			mach, err := ipsc.NewMachine(routes, cfg.Params)
			if err != nil {
				fail(err)
				return
			}
			core := sched.NewCoreForTable(routes)
			src := stats.NewSource(cfg.Seed)
			scratch := &unitScratch{m: comm.MustNew(nodes)}
			for idx := range unitCh {
				sp := specs[idx/samples]
				sample := idx % samples
				if err := cfg.runSample(mach, core, src, scratch, sp, sample, results[idx*nAlg:(idx+1)*nAlg], tick); err != nil {
					fail(err)
					return
				}
			}
		}()
	}
feed:
	for idx := 0; idx < units; idx++ {
		select {
		case unitCh <- idx:
		case <-ctx.Done():
			break feed
		}
	}
	close(unitCh)
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	out := make([]map[Algorithm]Cell, len(points))
	comms := make([]float64, samples)
	comps := make([]float64, samples)
	iters := make([]float64, samples)
	for ci, sp := range specs {
		cells := map[Algorithm]Cell{}
		for ai, alg := range Algorithms {
			for sample := 0; sample < samples; sample++ {
				u := results[(ci*samples+sample)*nAlg+ai]
				comms[sample] = u.commMS
				comps[sample] = u.compMS
				iters[sample] = u.iters
			}
			s := stats.Summarize(comms)
			cells[alg] = Cell{
				Algorithm: alg,
				Workload:  sp.String(),
				Density:   sp.DensityHint(nodes),
				MsgBytes:  sp.MsgBytes(),
				CommMS:    s.Mean,
				CommStd:   s.Std,
				CompMS:    stats.Mean(comps),
				Iters:     stats.Mean(iters),
			}
		}
		if cfg.Outcomes != nil {
			r.emitOutcomes(sp, cells, results[ci*samples*nAlg:(ci+1)*samples*nAlg])
		}
		out[ci] = cells
	}
	return out, nil
}

// emitOutcomes feeds one measured point's aggregated artifacts to the
// campaign's Outcomes sink: the sample-mean features (constant for
// the deterministic workload kinds) paired with each algorithm's
// aggregated cell. Runs on the aggregation goroutine, in point order.
func (r *Runner) emitOutcomes(sp workload.Spec, cells map[Algorithm]Cell, results []unitResult) {
	cfg := r.Config
	samples := cfg.Samples
	nAlg := len(Algorithms)
	var density, sizeCV float64
	for sample := 0; sample < samples; sample++ {
		f := results[sample*nAlg].feat
		density += float64(f.Density)
		sizeCV += f.SizeCV
	}
	feat := sched.Features{
		Nodes:   cfg.Topology.Nodes(),
		Density: int(density/float64(samples) + 0.5),
		SizeCV:  sizeCV / float64(samples),
	}
	for _, alg := range Algorithms {
		cell := cells[alg]
		cfg.Outcomes(sp.String(), samples, sched.Outcome{
			Algorithm:   string(alg),
			Phases:      int(cell.Iters + 0.5),
			EstCommUS:   cell.CommMS * 1000,
			SchedCostNS: int64(cell.CompMS*1e6 + 0.5),
			Features:    feat,
			TopoName:    cfg.Topology.Name(),
		})
	}
}

// MeasureCell measures one (d, M) point through the pool.
func (r *Runner) MeasureCell(ctx context.Context, d int, msgBytes int64) (map[Algorithm]Cell, error) {
	cells, err := r.MeasureCells(ctx, []Point{UniformPoint(d, msgBytes)})
	if err != nil {
		return nil, err
	}
	return cells[0], nil
}

// MeasureWorkloads measures every workload spec as one grid cell, in
// spec order — the workload-generic campaign primitive behind the
// service's workloads field and the CLI's -workload flag.
func (r *Runner) MeasureWorkloads(ctx context.Context, specs []workload.Spec) ([]map[Algorithm]Cell, error) {
	return r.MeasureCells(ctx, WorkloadPoints(specs))
}

// runSample executes one (workload, sample) unit: regenerate the
// sample's communication matrix from its pattern stream into the
// worker's reused buffer, then schedule and simulate all four
// algorithms on it, each under its own scheduling stream keyed by
// (workload key, sample, algorithm). Results land in out (one slot per
// algorithm); tick, when non-nil, is called after each algorithm
// completes.
func (c Config) runSample(mach *ipsc.Machine, core *sched.Core, src *stats.Source, scratch *unitScratch, sp workload.Spec, sample int, out []unitResult, tick func()) error {
	key, err := c.buildSample(src, scratch, sp, sample)
	if err != nil {
		return err
	}
	var feat sched.Features
	if c.Outcomes != nil {
		feat = sched.MeasureFeatures(scratch.m)
	}
	schedKey := append(key, int64(sample), 0)
	for algIdx, alg := range Algorithms {
		schedKey[len(schedKey)-1] = int64(algIdx)
		schedRNG := src.StreamKeyed(schedKey...)
		o, err := c.runOne(mach, core, alg, scratch.m, schedRNG)
		if err != nil {
			return fmt.Errorf("expt: %s %s sample %d: %w", alg, sp, sample, err)
		}
		out[algIdx] = unitResult{
			commMS: o.EstCommUS / 1000,
			compMS: float64(o.SchedCostNS) / 1e6,
			iters:  float64(o.Phases),
			feat:   feat,
		}
		if tick != nil {
			tick()
		}
	}
	scratch.key = schedKey[:0]
	return nil
}

// buildSample regenerates the (workload, sample) communication matrix
// into the worker's reused buffer and returns the stream-key prefix,
// tagged for scheduling streams.
//
// Streams are keyed by the full coordinate tuple (tagged 0 for the
// pattern stream, 1 for scheduling streams) through composed
// SplitMix64 mixing — a linear packing is not injective over
// user-chosen grids, which would hand "independent" cells identical
// generators. The workload key of the classic uniform spec is its
// historical (d, msgBytes) pair, so pattern stream (0, d, M, sample)
// and scheduling streams (1, d, M, sample, alg) — and therefore all
// density-sweep campaign outputs — are unchanged from the
// pre-workload harness.
func (c Config) buildSample(src *stats.Source, scratch *unitScratch, sp workload.Spec, sample int) ([]int64, error) {
	key := sp.AppendKey(append(scratch.key[:0], 0))
	patRNG := src.StreamKeyed(append(key, int64(sample))...)
	key[0] = 1 // same workload coordinates, scheduling tag
	if err := sp.BuildInto(scratch.m, patRNG); err != nil {
		return nil, err
	}
	return key, nil
}

// grid returns the densities x sizes point grid re-expressed as
// uniform:* workload specs, sizes varying fastest — the one ordering
// every classic campaign method shares, so cell results always align
// with their (density, size) labels.
func grid(densities []int, sizes []int64) []Point {
	return WorkloadPoints(UniformSpecs(densities, sizes))
}

// UniformSpecs re-expresses the paper's (density x size) sweep as the
// equivalent list of uniform:* workload specs, sizes varying fastest.
func UniformSpecs(densities []int, sizes []int64) []workload.Spec {
	specs := make([]workload.Spec, 0, len(densities)*len(sizes))
	for _, d := range densities {
		for _, size := range sizes {
			specs = append(specs, workload.UniformSpec(d, size))
		}
	}
	return specs
}

// Table1 measures the Table 1 grid through the pool. On machines
// smaller than the paper's (cube dimension < 6) the grid keeps only
// the densities that exist there (d < nodes).
func (r *Runner) Table1(ctx context.Context) ([]Table1Row, error) {
	densities := DensitiesFor(Table1Densities, r.Config.Topology.Nodes())
	cells, err := r.MeasureCells(ctx, grid(densities, Table1Sizes))
	if err != nil {
		return nil, err
	}
	var rows []Table1Row
	i := 0
	for _, d := range densities {
		row := Table1Row{
			Density: d,
			Comm:    map[int64]map[Algorithm]Cell{},
			Iters:   map[Algorithm]float64{},
			Comp:    map[Algorithm]float64{},
		}
		for _, size := range Table1Sizes {
			row.Comm[size] = cells[i]
			// The paper reports one iters/comp per density; use the
			// 1 KB column (phase counts are size-independent, comp
			// nearly so).
			if size == 1024 {
				for _, alg := range Algorithms {
					row.Iters[alg] = cells[i][alg].Iters
					row.Comp[alg] = cells[i][alg].CompMS
				}
			}
			i++
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// CommVsSize measures communication cost versus message size at fixed
// density through the pool — one of Figures 6-9.
func (r *Runner) CommVsSize(ctx context.Context, d int, sizes []int64) ([]plot.Series, error) {
	cells, err := r.MeasureCells(ctx, grid([]int{d}, sizes))
	if err != nil {
		return nil, err
	}
	series := make([]plot.Series, len(Algorithms))
	for i, alg := range Algorithms {
		series[i].Label = string(alg)
		for pi, size := range sizes {
			series[i].X = append(series[i].X, float64(size))
			series[i].Y = append(series[i].Y, cells[pi][alg].CommMS)
		}
	}
	return series, nil
}

// OverheadVsSize measures the scheduling-overhead fraction comp/comm
// through the pool — Figures 10-11.
func (r *Runner) OverheadVsSize(ctx context.Context, alg Algorithm, densities []int, sizes []int64) ([]plot.Series, error) {
	if alg != RSN && alg != RSNL {
		return nil, fmt.Errorf("expt: overhead figures exist for RS_N and RS_NL, not %s", alg)
	}
	cells, err := r.MeasureCells(ctx, grid(densities, sizes))
	if err != nil {
		return nil, err
	}
	var series []plot.Series
	i := 0
	for _, d := range densities {
		s := plot.Series{Label: fmt.Sprintf("d = %d", d)}
		for _, size := range sizes {
			cell := cells[i][alg]
			if cell.CommMS > 0 {
				s.X = append(s.X, float64(size))
				s.Y = append(s.Y, cell.CompMS/cell.CommMS)
			}
			i++
		}
		series = append(series, s)
	}
	return series, nil
}

// RegionMap computes the winner grid of Figure 5 through the pool.
func (r *Runner) RegionMap(ctx context.Context, densities []int, sizes []int64) ([]Region, error) {
	points := grid(densities, sizes)
	cellMaps, err := r.MeasureCells(ctx, points)
	if err != nil {
		return nil, err
	}
	var regions []Region
	for i := range points {
		cells := cellMaps[i]
		type cand struct {
			alg Algorithm
			ms  float64
		}
		var cands []cand
		for _, alg := range Algorithms {
			cands = append(cands, cand{alg, cells[alg].CommMS})
		}
		sort.Slice(cands, func(a, b int) bool { return cands[a].ms < cands[b].ms })
		margin := 0.0
		if cands[1].ms > 0 {
			margin = (cands[1].ms - cands[0].ms) / cands[1].ms
		}
		regions = append(regions, Region{
			Density:  cells[Algorithms[0]].Density,
			MsgBytes: cells[Algorithms[0]].MsgBytes,
			Winner:   cands[0].alg,
			Margin:   margin,
		})
	}
	return regions, nil
}
