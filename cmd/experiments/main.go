// Command experiments regenerates the paper's evaluation: Table 1 and
// Figures 5-11 of Wang & Ranka, "Scheduling of Unstructured
// Communication on the Intel iPSC/860" (SC 1994), measured on the
// repository's machine simulator.
//
// Usage:
//
//	experiments [flags] <table1|fig5|fig6|fig7|fig8|fig9|fig10|fig11|workloads|autoeval|autofallback|all>
//
// Flags:
//
//	-samples N      random samples per grid cell (default 10; paper: 50)
//	-seed S         master seed (default 1994)
//	-csv            emit figures as CSV instead of ASCII charts
//	-dim D          hypercube dimension (default 6, the 64-node machine)
//	-topo SPEC      run on any topology instead: cube:D, mesh:WxH,
//	                torus:WxH, ring:N, or graph:N:a-b,c-d,... (exclusive
//	                with -dim)
//	-workload SPECS comma-separated workload specs for the workloads
//	                target (uniform:D:BYTES, scatter:D:BYTES,
//	                hotspot:D:BYTES:HOT, halo:WxH:BYTES, spmv:NNZ:BYTES,
//	                perm:BYTES, transpose:BYTES, shift:K:BYTES,
//	                stencil3d:XxYxZ:BYTES, bitcomp:BYTES, alltoall:BYTES,
//	                mixed:D:BYTES)
//	-algorithm A    policy autoeval evaluates: auto (default) or a
//	                fixed tag (AC, LP, RS_N, RS_NL)
//	-quality-db F   append the auto targets' calibration records to
//	                the quality store file F
//	-parallel P     worker goroutines (default 0 = GOMAXPROCS)
//	-progress       report campaign progress on stderr
//	-cpuprofile F   write a pprof CPU profile of the run to F
//	-memprofile F   write a pprof heap profile (after the run) to F
//
// The classic targets sweep the paper's uniform workload; the
// `workloads` target measures each -workload spec as one cell of a
// workload-generic campaign on the same machine. The `autoeval`
// target measures the calibration grid, trains the algorithm-"auto"
// quality model on it, and compares auto's pick against every fixed
// algorithm; `autofallback` prints the calibrated bin rankings as the
// Go literal committed in internal/quality/fallback.go.
//
// Output is bit-identical at every -parallel value on every topology:
// each simulated run derives its randomness from (seed, density,
// size, sample, algorithm) alone, never from worker scheduling or
// topology internals. On machines smaller than the paper's 64-node
// cube, density rows that cannot exist there (d >= nodes) are dropped
// from the grids, and figures pinned to such a density fail cleanly.
//
// The `all` target runs every table and figure in order and stops at
// the first failure with a non-zero exit.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"

	"unsched/internal/expt"
	"unsched/internal/hypercube"
	"unsched/internal/plot"
	"unsched/internal/quality"
	"unsched/internal/sched"
	"unsched/internal/topo"
	"unsched/internal/workload"
)

type target struct {
	name  string
	paper bool // a table or figure of the paper, which `all` runs
	run   func(r *expt.Runner, stdout io.Writer, csv bool) error
}

// targets is the one target table, in usage order: the paper's tables
// and figures lead, in the paper's order, which `all` keeps.
func targets(workloads, algorithm string, qstore *quality.Store) []target {
	return []target{
		{"table1", true, runTable1},
		{"fig5", true, runFig5},
		{"fig6", true, figComm(4)},
		{"fig7", true, figComm(8)},
		{"fig8", true, figComm(16)},
		{"fig9", true, figComm(32)},
		{"fig10", true, figOverhead(expt.RSN, "Figure 10: computation overhead of RS_N (comp/comm)")},
		{"fig11", true, figOverhead(expt.RSNL, "Figure 11: computation overhead of RS_NL (comp/comm)")},
		{"workloads", false, func(r *expt.Runner, w io.Writer, _ bool) error { return runWorkloads(r, w, workloads) }},
		{"autoeval", false, func(r *expt.Runner, w io.Writer, _ bool) error { return runAutoEval(r, w, algorithm, qstore) }},
		{"autofallback", false, func(r *expt.Runner, w io.Writer, _ bool) error { return runAutoFallback(r, w, qstore) }},
	}
}

func main() {
	err := run(os.Args[1:], os.Stdout, os.Stderr)
	code := exitCode(err)
	if code == 1 {
		fmt.Fprintln(os.Stderr, "experiments:", err)
	}
	os.Exit(code)
}

// errFlags is run's error for flags that do not parse; the FlagSet has
// already reported the problem, with the usage, on stderr.
var errFlags = errors.New("bad flags")

// exitCode maps run's error to the process exit status, as
// flag.ExitOnError does for the flags: 0 after -h or -help printed the
// usage, 2 for flags that do not parse, 1 for any other failure.
func exitCode(err error) int {
	switch {
	case err == nil, errors.Is(err, flag.ErrHelp):
		return 0
	case errors.Is(err, errFlags):
		return 2
	default:
		return 1
	}
}

// run is the whole command behind a testable seam: parse args, build
// the runner, execute the requested targets against stdout. Any error
// becomes a non-zero exit in main.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	samples := fs.Int("samples", 10, "random samples per (d, M) cell; the paper uses 50")
	seed := fs.Int64("seed", 1994, "master seed")
	csv := fs.Bool("csv", false, "emit figure data as CSV instead of ASCII charts")
	dim := fs.Int("dim", 6, "hypercube dimension (6 = the paper's 64-node machine)")
	topoSpec := fs.String("topo", "", "topology spec (cube:D, mesh:WxH, torus:WxH, ring:N, graph:N:a-b,...); exclusive with -dim")
	workloads := fs.String("workload", "", "comma-separated workload specs for the workloads target ("+strings.Join(workload.Grammars(), ", ")+")")
	// autoeval's policies: auto, or one of the campaign contenders.
	policies := []string{"auto"}
	for _, a := range expt.Algorithms {
		policies = append(policies, string(a))
	}
	algorithm := fs.String("algorithm", "auto", "policy the autoeval target evaluates: auto (the calibrated pick) or a fixed tag ("+sched.WantList(policies[1:]...)+")")
	qualityDB := fs.String("quality-db", "", "append the auto targets' calibration records to this quality store file")
	parallel := fs.Int("parallel", 0, "worker goroutines; 0 means GOMAXPROCS")
	progress := fs.Bool("progress", false, "report campaign progress on stderr")
	cpuprofile := fs.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
	memprofile := fs.String("memprofile", "", "write a pprof heap profile (after the run) to this file")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return errFlags
	}

	if fs.NArg() != 1 {
		var names []string
		for _, t := range targets("", "", nil) {
			names = append(names, t.name)
		}
		fmt.Fprintf(stderr, "usage: experiments [flags] <%s|all>\n", strings.Join(names, "|"))
		fs.PrintDefaults()
		return fmt.Errorf("expected exactly one target, got %d", fs.NArg())
	}
	if *workloads != "" && fs.Arg(0) != "workloads" {
		return fmt.Errorf("-workload applies only to the workloads target (the classic grids sweep the paper's uniform workload)")
	}
	autoTarget := fs.Arg(0) == "autoeval" || fs.Arg(0) == "autofallback"
	if *qualityDB != "" && !autoTarget {
		return fmt.Errorf("-quality-db applies only to the autoeval and autofallback targets")
	}
	if !slices.Contains(policies, *algorithm) {
		return fmt.Errorf("unknown -algorithm %q (want %s)", *algorithm, sched.WantList(policies...))
	}

	// Profiling brackets everything the command measures — topology
	// build, campaign, rendering — which is exactly the production
	// shape the simulator hot path is tuned against.
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return fmt.Errorf("-cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("-cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(stderr, "experiments: -memprofile:", err)
				return
			}
			defer f.Close()
			// The heap profile reports live objects as of the last GC;
			// collect first so the snapshot reflects the run's retained
			// state, not transient garbage.
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(stderr, "experiments: -memprofile:", err)
			}
		}()
	}

	net, err := resolveNet(fs, *topoSpec, *dim)
	if err != nil {
		return err
	}
	if err := expt.FitError(net.Nodes()); err != nil {
		// Every target compares the paper's four contenders.
		return fmt.Errorf("the experiment grids cannot run on %s: %w", net.Name(), err)
	}
	cfg := expt.DefaultConfig()
	cfg.Topology = net
	cfg.Samples = *samples
	cfg.Seed = *seed

	runner := &expt.Runner{Config: cfg, Parallelism: *parallel}
	if *progress {
		runner.Progress = progressPrinter(stderr)
	}

	var qstore *quality.Store
	if *qualityDB != "" {
		qstore, err = quality.Open(*qualityDB)
		if err != nil {
			return fmt.Errorf("-quality-db: %w", err)
		}
		defer qstore.Close()
	}

	table := targets(*workloads, *algorithm, qstore)
	name := fs.Arg(0)
	if name == "all" {
		for _, t := range table {
			if t.paper {
				fmt.Fprintf(stdout, "==== %s ====\n", t.name)
				if err := t.run(runner, stdout, *csv); err != nil {
					return fmt.Errorf("target %s: %w", t.name, err)
				}
				fmt.Fprintln(stdout)
			}
		}
		return nil
	}
	i := slices.IndexFunc(table, func(t target) bool { return t.name == name })
	if i < 0 {
		return fmt.Errorf("unknown target %q", name)
	}
	if err := table[i].run(runner, stdout, *csv); err != nil {
		return fmt.Errorf("target %s: %w", name, err)
	}
	return nil
}

// resolveNet builds the campaign's machine from -topo (any spec the
// topo package parses) or -dim (a hypercube, the historical flag).
// Setting both explicitly is ambiguous and rejected.
func resolveNet(fs *flag.FlagSet, topoSpec string, dim int) (topo.Topology, error) {
	dimSet := false
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "dim" {
			dimSet = true
		}
	})
	if topoSpec != "" {
		if dimSet {
			return nil, fmt.Errorf("-topo and -dim are mutually exclusive; say -topo cube:%d", dim)
		}
		sp, err := topo.ParseSpec(topoSpec)
		if err != nil {
			return nil, err
		}
		return sp.Build()
	}
	return hypercube.New(dim)
}

// progressPrinter adapts campaign progress to the writer: a terminal
// gets the carriage-return ticker, anything else (a CI log, a pipe, a
// file) gets clean newline-terminated lines at ~10% steps so the log
// is neither control-character soup nor one line per unit.
func progressPrinter(w io.Writer) func(done, total int) {
	if isTerminal(w) {
		return func(done, total int) {
			fmt.Fprintf(w, "\r%d/%d units", done, total)
			if done == total {
				fmt.Fprintln(w)
			}
		}
	}
	lastDecile := -1
	return func(done, total int) {
		decile := 10
		if total > 0 {
			decile = done * 10 / total
		}
		// Progress calls are serialized by the runner, so plain closure
		// state is safe.
		if decile == lastDecile && done != total {
			return
		}
		lastDecile = decile
		fmt.Fprintf(w, "progress %d/%d units (%d%%)\n", done, total, decile*10)
	}
}

// isTerminal reports whether w is a character device — the only case
// where carriage-return animation renders as intended.
func isTerminal(w io.Writer) bool {
	f, ok := w.(*os.File)
	if !ok {
		return false
	}
	info, err := f.Stat()
	return err == nil && info.Mode()&os.ModeCharDevice != 0
}

// runWorkloads measures each comma-separated workload spec as one
// cell of a workload-generic campaign and renders the comparison
// table. Every spec is parsed and checked against the machine before
// any measurement starts.
func runWorkloads(r *expt.Runner, stdout io.Writer, specList string) error {
	if specList == "" {
		return fmt.Errorf("the workloads target needs -workload SPEC[,SPEC...] (e.g. -workload halo:8x8:512,hotspot:8:4096:4)")
	}
	var specs []workload.Spec
	for _, s := range strings.Split(specList, ",") {
		sp, err := workload.ParseSpec(strings.TrimSpace(s))
		if err != nil {
			return err
		}
		if err := sp.ValidateFor(r.Config.Topology.Nodes()); err != nil {
			return err
		}
		specs = append(specs, sp)
	}
	cfg := r.Config
	fmt.Fprintf(stdout, "Workload campaign: %d-node machine (%s), %d samples per cell, seed %d (timings in ms)\n",
		cfg.Topology.Nodes(), cfg.Topology.Name(), cfg.Samples, cfg.Seed)
	cells, err := r.MeasureWorkloads(context.Background(), specs)
	if err != nil {
		return err
	}
	return expt.WriteWorkloadTable(stdout, cells)
}

func runTable1(r *expt.Runner, stdout io.Writer, _ bool) error {
	cfg := r.Config
	fmt.Fprintf(stdout, "Table 1: %d-node machine, %d samples per cell, seed %d (timings in ms)\n",
		cfg.Topology.Nodes(), cfg.Samples, cfg.Seed)
	rows, err := r.Table1(context.Background())
	if err != nil {
		return err
	}
	return expt.WriteTable1(stdout, rows)
}

func runFig5(r *expt.Runner, stdout io.Writer, _ bool) error {
	fmt.Fprintln(stdout, "Figure 5: winning algorithm per (density, message size), comm cost only")
	var sizes []int64
	for b := int64(64); b <= 64*1024; b *= 4 {
		sizes = append(sizes, b)
	}
	densities := expt.DensitiesFor(expt.Table1Densities, r.Config.Topology.Nodes())
	regions, err := r.RegionMap(context.Background(), densities, sizes)
	if err != nil {
		return err
	}
	return expt.WriteRegionMap(stdout, regions)
}

func figComm(d int) func(*expt.Runner, io.Writer, bool) error {
	return func(r *expt.Runner, stdout io.Writer, csv bool) error {
		if nodes := r.Config.Topology.Nodes(); d >= nodes {
			return fmt.Errorf("density %d does not exist on a %d-node machine; raise -dim", d, nodes)
		}
		series, err := r.CommVsSize(context.Background(), d, expt.FigureSizes())
		if err != nil {
			return err
		}
		if csv {
			return plot.WriteCSV(stdout, series)
		}
		fmt.Fprint(stdout, plot.ASCII(series, plot.Options{
			Title:  fmt.Sprintf("Communication cost, uniform messages, d = %d, %d nodes", d, r.Config.Topology.Nodes()),
			LogX:   true,
			XLabel: "message bytes",
			YLabel: "time (ms)",
		}))
		return nil
	}
}

func figOverhead(alg expt.Algorithm, title string) func(*expt.Runner, io.Writer, bool) error {
	return func(r *expt.Runner, stdout io.Writer, csv bool) error {
		densities := expt.DensitiesFor(expt.Table1Densities, r.Config.Topology.Nodes())
		series, err := r.OverheadVsSize(context.Background(), alg, densities, expt.FigureSizes())
		if err != nil {
			return err
		}
		if csv {
			return plot.WriteCSV(stdout, series)
		}
		fmt.Fprint(stdout, plot.ASCII(series, plot.Options{
			Title:  title,
			LogX:   true,
			XLabel: "message bytes",
			YLabel: "comp/comm fraction",
		}))
		return nil
	}
}
