// Package expt is the experiment harness that regenerates every table
// and figure of the paper's evaluation (§6): Table 1 (communication
// cost, phase counts, scheduling cost), Figures 6-9 (communication
// cost versus message size per density), Figures 10-11 (scheduling
// overhead fraction), and Figure 5 (the (d, M) region map of winning
// algorithms).
//
// The measurement protocol follows the paper: a test set of random
// samples per density (the paper uses 50; configurable here), each
// sample's communication cost is the maximum time spent by any
// processor, and cells report the average over samples. All
// randomness is derived from a single master seed.
//
// The engine is generic along both campaign axes:
//
// Topology: Config carries any topo.Topology — the paper's hypercube
// (the default), a mesh or torus, a ring, an arbitrary graph — because
// the §6 protocol needs nothing from the machine beyond deterministic
// routing (§5's observation). All scheduling and simulation inside a
// campaign runs over one shared precomputed route table, built per
// campaign or supplied via Config.Routes by callers that run many
// campaigns on one machine.
//
// Workload: every grid cell is a workload.Spec — the paper's uniform
// d-regular sweep ("uniform:D:BYTES", the default every table and
// figure uses), or any other spec the workload grammar speaks
// (hot-spot, halo exchange, sparse mat-vec, permutations, 3D
// stencils, ...). The classic density x size grids are just lists of
// uniform:* specs (UniformSpecs); MeasureWorkloads sweeps arbitrary
// spec lists. The campaign grid is therefore (topology x workload x
// sample).
//
// Campaigns execute on the Runner, a worker pool that fans every
// (workload, sample, algorithm) unit out concurrently. Workers
// regenerate each cell's matrix into a per-worker reused buffer
// (workload.Spec.BuildInto) instead of allocating n^2 storage per
// cell. Each unit's RNG streams are keyed by the master seed and the
// unit's own coordinates (the workload's stream key, the sample, the
// algorithm) — never by worker scheduling or topology internals — so
// results are bit-identical at any parallelism on every topology; see
// runner.go.
package expt

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"strings"
	"text/tabwriter"

	"unsched/internal/comm"
	"unsched/internal/costmodel"
	"unsched/internal/hypercube"
	"unsched/internal/ipsc"
	"unsched/internal/sched"
	"unsched/internal/topo"
)

// Algorithm names the paper's four contenders.
type Algorithm string

const (
	AC   Algorithm = "AC"
	LP   Algorithm = "LP"
	RSN  Algorithm = "RS_N"
	RSNL Algorithm = "RS_NL"
)

// Algorithms lists the contenders in the paper's column order.
var Algorithms = []Algorithm{AC, LP, RSN, RSNL}

// FitError explains why the campaign grids cannot run on an n-node
// machine: every cell measures all the contenders, so each must fit
// (sched.Algorithm.Fits). It is nil when they all do.
func FitError(n int) error {
	for _, alg := range Algorithms {
		// Every contender is a table entry; runSample fails otherwise.
		entry, _ := sched.Lookup(string(alg))
		if err := entry.FitError(n); err != nil {
			return err
		}
	}
	return nil
}

// Config parameterizes a measurement campaign.
type Config struct {
	// Topology is the machine the campaign measures. Any deterministic-
	// routing topo.Topology works — the paper's hypercube, a mesh or
	// torus, a ring, an arbitrary graph — because the §6 protocol needs
	// nothing beyond deterministic routes (§5's observation).
	Topology topo.Topology
	// Routes optionally supplies a prebuilt route table for Topology.
	// When nil, the Runner precomputes one per campaign; supply a
	// shared table (topo.NewRouteTable) to amortize the O(n^2*diameter)
	// build across many campaigns on the same machine — the unschedd
	// daemon does exactly that.
	Routes  *topo.RouteTable
	Params  costmodel.Params
	Samples int   // random samples per (d, M) cell; the paper uses 50
	Seed    int64 // master seed; everything derives from it
	// Outcomes, when non-nil, receives the aggregated evaluation
	// artifact of every measured (workload, algorithm) cell: the
	// sample-mean sched.Outcome (simulated communication, modeled
	// scheduling cost, measured features) plus the sample count it
	// aggregates. The campaign is then a calibration training loop:
	// the unschedd service appends these to its quality store to
	// calibrate algorithm "auto". Calls are made from the campaign's
	// deterministic aggregation pass — point order, one goroutine —
	// never from workers, so the sink needs no locking and sees
	// identical calls at any parallelism.
	Outcomes func(workload string, samples int, o sched.Outcome)
}

// DefaultConfig returns the paper's machine (64-node cube) with the
// calibrated cost model and a modest sample count suitable for quick
// runs; raise Samples to 50 to match the paper's protocol exactly.
func DefaultConfig() Config {
	return Config{
		Topology: hypercube.MustNew(6),
		Params:   costmodel.DefaultIPSC860(),
		Samples:  10,
		Seed:     1994,
	}
}

// Validate rejects unusable configurations.
func (c Config) Validate() error {
	if c.Topology == nil {
		return fmt.Errorf("expt: nil topology")
	}
	if c.Routes != nil && c.Routes.Topology().Name() != c.Topology.Name() {
		return fmt.Errorf("expt: route table is for %s, config topology is %s",
			c.Routes.Topology().Name(), c.Topology.Name())
	}
	if c.Samples <= 0 {
		return fmt.Errorf("expt: Samples must be positive, got %d", c.Samples)
	}
	return c.Params.Validate()
}

// Cell is one measured table cell: an algorithm at one workload point.
type Cell struct {
	Algorithm Algorithm
	// Workload is the canonical spec of the cell's workload
	// ("uniform:8:1024", "halo:64x64:512", ...).
	Workload string
	// Density is the workload's nominal density
	// (workload.Spec.DensityHint): 0 for patterns whose density
	// emerges from the partition.
	Density  int
	MsgBytes int64
	CommMS   float64 // mean over samples of per-run makespan, ms
	CompMS   float64 // mean modeled scheduling cost, ms (0 for AC)
	Iters    float64 // mean phase count (0 for AC)
	CommStd  float64 // std-dev of makespan across samples, ms
}

// MeasureCell runs the full sample set for one (d, M) point and
// returns a Cell per algorithm, measured on the same samples so
// algorithms are compared pattern-for-pattern. It runs through the
// parallel Runner at default parallelism; build a Runner directly to
// control worker count, cancellation, or progress reporting.
func (c Config) MeasureCell(d int, msgBytes int64) (map[Algorithm]Cell, error) {
	return NewRunner(c).MeasureCell(context.Background(), d, msgBytes)
}

// runOne schedules and simulates one sample under one algorithm table
// entry on the given reusable machine and scheduler core, returning
// the run's evaluation artifact: the core's Outcome with the simulated
// makespan filled in. The entry names the core method and the protocol
// it runs under; rng may be nil when the entry is not Randomized. Core
// methods consume the identical RNG stream as the package-level
// functions, so results are bit-identical to the pre-core harness.
// The schedule or send order goes back to the core once simulated.
func (c Config) runOne(mach *ipsc.Machine, core *sched.Core, entry sched.Algorithm, m *comm.Matrix, rng *rand.Rand) (sched.Outcome, error) {
	var (
		res ipsc.Result
		err error
	)
	if entry.Build == nil {
		var order *sched.ACOrder
		if order, err = core.AC(m); err != nil {
			return sched.Outcome{}, err
		}
		res, err = mach.RunAC(order, m)
		core.RecycleOrder(order)
	} else {
		var s *sched.Schedule
		if s, err = entry.Build(core, m, rng); err != nil {
			return sched.Outcome{}, err
		}
		res, err = mach.Run(entry.Protocol, s)
		core.Recycle(s)
	}
	if err != nil {
		return sched.Outcome{}, err
	}
	o := core.LastOutcome(sched.Features{}, c.Params)
	o.EstCommUS = res.MakespanUS
	return o, nil
}

// Table1Row holds the paper's Table 1 block for one density.
type Table1Row struct {
	Density int
	// Comm[msgBytes][alg] in ms, for msgBytes in Table1Sizes.
	Comm map[int64]map[Algorithm]Cell
	// Iters and Comp are reported per algorithm (AC has none).
	Iters map[Algorithm]float64
	Comp  map[Algorithm]float64
}

// Table1Sizes are the paper's three reported message sizes.
var Table1Sizes = []int64{256, 1024, 128 * 1024}

// Table1Densities are the paper's five densities.
var Table1Densities = []int{4, 8, 16, 32, 48}

// DensitiesFor returns the subset of densities measurable on an
// n-node machine: a processor cannot send to more than n-1 peers, so
// d >= n cells do not exist. The paper's grids assume the 64-node
// machine; scaled-down runs (small -dim) keep the rows that remain
// meaningful.
func DensitiesFor(densities []int, nodes int) []int {
	out := make([]int, 0, len(densities))
	for _, d := range densities {
		if d < nodes {
			out = append(out, d)
		}
	}
	return out
}

// WriteTable1 renders rows in the layout of the paper's Table 1.
func WriteTable1(w io.Writer, rows []Table1Row) error {
	tw := tabwriter.NewWriter(w, 2, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "d\tmsg size\tAC\tLP\tRS_N\tRS_NL")
	for _, row := range rows {
		for i, size := range Table1Sizes {
			label := fmt.Sprintf("%d", row.Density)
			if i > 0 {
				label = ""
			}
			cells := row.Comm[size]
			fmt.Fprintf(tw, "%s\tcomm %s\t%.2f\t%.2f\t%.2f\t%.2f\n",
				label, sizeLabel(size),
				cells[AC].CommMS, cells[LP].CommMS, cells[RSN].CommMS, cells[RSNL].CommMS)
		}
		fmt.Fprintf(tw, "\t# iters\t-\t%.2f\t%.2f\t%.2f\n",
			row.Iters[LP], row.Iters[RSN], row.Iters[RSNL])
		fmt.Fprintf(tw, "\tcomp\t-\t%.2f\t%.2f\t%.2f\n",
			row.Comp[LP], row.Comp[RSN], row.Comp[RSNL])
	}
	return tw.Flush()
}

// WriteWorkloadTable renders one row per measured workload cell in
// the layout of Table 1's comm block: the four contenders'
// communication cost, plus the phase count and scheduling cost of the
// randomized schedulers. cells is what MeasureWorkloads returned.
func WriteWorkloadTable(w io.Writer, cells []map[Algorithm]Cell) error {
	tw := tabwriter.NewWriter(w, 2, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tAC\tLP\tRS_N\tRS_NL\titers(RS_NL)\tcomp(RS_NL)")
	for _, cm := range cells {
		fmt.Fprintf(tw, "%s\t%.2f\t%.2f\t%.2f\t%.2f\t%.2f\t%.2f\n",
			cm[AC].Workload,
			cm[AC].CommMS, cm[LP].CommMS, cm[RSN].CommMS, cm[RSNL].CommMS,
			cm[RSNL].Iters, cm[RSNL].CompMS)
	}
	return tw.Flush()
}

func sizeLabel(bytes int64) string {
	switch {
	case bytes >= 1024 && bytes%1024 == 0:
		return fmt.Sprintf("%dK", bytes/1024)
	default:
		return fmt.Sprintf("%d", bytes)
	}
}

// FigureSizes returns the message-size sweep of Figures 6-9: 16 B to
// 128 KB in powers of two.
func FigureSizes() []int64 {
	var sizes []int64
	for b := int64(16); b <= 128*1024; b *= 2 {
		sizes = append(sizes, b)
	}
	return sizes
}

// Region is one cell of the Figure 5 map: the algorithm with the
// lowest mean communication cost at (d, M), ignoring scheduling cost
// exactly as the paper's Figure 5 does.
type Region struct {
	Density  int
	MsgBytes int64
	Winner   Algorithm
	Margin   float64 // winner's advantage over the runner-up, fraction
}

// WriteRegionMap renders the Figure 5 grid: rows are densities,
// columns message sizes, cells the winning algorithm.
func WriteRegionMap(w io.Writer, regions []Region) error {
	densities := []int{}
	sizes := []int64{}
	seenD := map[int]bool{}
	seenS := map[int64]bool{}
	for _, r := range regions {
		if !seenD[r.Density] {
			seenD[r.Density] = true
			densities = append(densities, r.Density)
		}
		if !seenS[r.MsgBytes] {
			seenS[r.MsgBytes] = true
			sizes = append(sizes, r.MsgBytes)
		}
	}
	sort.Ints(densities)
	sort.Slice(sizes, func(a, b int) bool { return sizes[a] < sizes[b] })

	lookup := map[[2]int64]Region{}
	for _, r := range regions {
		lookup[[2]int64{int64(r.Density), r.MsgBytes}] = r
	}
	tw := tabwriter.NewWriter(w, 2, 0, 2, ' ', 0)
	header := []string{"d \\ M"}
	for _, s := range sizes {
		header = append(header, sizeLabel(s))
	}
	fmt.Fprintln(tw, strings.Join(header, "\t"))
	for _, d := range densities {
		row := []string{fmt.Sprintf("%d", d)}
		for _, s := range sizes {
			r := lookup[[2]int64{int64(d), s}]
			row = append(row, string(r.Winner))
		}
		fmt.Fprintln(tw, strings.Join(row, "\t"))
	}
	return tw.Flush()
}
