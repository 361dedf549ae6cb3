package main

// The auto targets: calibration and evaluation of the portfolio
// meta-scheduler behind algorithm "auto".
//
//   - autoeval measures the standard calibration grid, trains a quality
//     model on the measurements, and prints a table comparing auto's
//     per-cell pick against every fixed algorithm — the CLI face of the
//     acceptance criterion (auto's mean completion time must not lose
//     to the best fixed algorithm, at a scheduling cost no worse than
//     RS_NL's).
//   - autofallback runs the same grid and prints the calibrated bin
//     rankings as a Go map literal, the source of the committed
//     fallback table in internal/quality/fallback.go.
//
// Both are deterministic and parallel-invariant: records arrive from
// the runner's single-goroutine aggregation pass in point order, and
// every ranking sorts ties lexicographically.

import (
	"context"
	"fmt"
	"io"
	"sort"
	"strings"

	"unsched/internal/expt"
	"unsched/internal/quality"
	"unsched/internal/sched"
	"unsched/internal/workload"
)

// calibrationGrid is the standard grid both auto targets measure: the
// Table 1 densities that exist on the machine crossed with the Table 1
// sizes, as uniform workload specs.
func calibrationGrid(r *expt.Runner) []workload.Spec {
	densities := expt.DensitiesFor(expt.Table1Densities, r.Config.Topology.Nodes())
	return expt.UniformSpecs(densities, expt.Table1Sizes)
}

// measureCalibration runs the grid with the Outcomes sink attached,
// returning the per-point cells and the calibration records. When a
// -quality-db store is open, every record is appended there too. The
// runner is copied so the caller's sink configuration is untouched.
func measureCalibration(r *expt.Runner, store *quality.Store) ([]workload.Spec, []map[expt.Algorithm]expt.Cell, []quality.Record, error) {
	specs := calibrationGrid(r)
	var recs []quality.Record
	run := *r
	run.Config.Outcomes = func(w string, samples int, o sched.Outcome) {
		rec := quality.FromOutcome(w, samples, o)
		recs = append(recs, rec)
		if store != nil {
			_ = store.Append(rec)
		}
	}
	cells, err := run.MeasureWorkloads(context.Background(), specs)
	if err != nil {
		return nil, nil, nil, err
	}
	return specs, cells, recs, nil
}

// runAutoEval trains a model on the grid it just measured and prints
// auto's per-cell choice and cost against every fixed algorithm.
// baseline "auto" evaluates the model's pick; a concrete tag instead
// evaluates the always-that-tag policy (a sanity baseline).
func runAutoEval(r *expt.Runner, stdout io.Writer, baseline string, store *quality.Store) error {
	cfg := r.Config
	fmt.Fprintf(stdout, "Auto evaluation: %d-node machine (%s), %d samples per cell, seed %d (totals comm+sched, ms)\n",
		cfg.Topology.Nodes(), cfg.Topology.Name(), cfg.Samples, cfg.Seed)
	specs, cells, recs, err := measureCalibration(r, store)
	if err != nil {
		return err
	}
	model := quality.NewModel(recs)
	featFor := make(map[string]sched.Features, len(specs))
	for _, rec := range recs {
		featFor[rec.Workload] = sched.Features{Nodes: rec.Nodes, Density: rec.Density, SizeCV: rec.SizeCV}
	}

	total := func(c expt.Cell) float64 { return c.CommMS + c.CompMS }
	fmt.Fprintf(stdout, "%-18s %9s %9s %9s %9s  | %9s  %s\n",
		"workload", "AC", "LP", "RS_N", "RS_NL", "auto", "chosen")
	sums := map[expt.Algorithm]float64{}
	commSums := map[expt.Algorithm]float64{}
	scheds := map[expt.Algorithm][]float64{}
	var autoSum, autoCommSum float64
	var autoScheds []float64
	for i, sp := range specs {
		byAlg := cells[i]
		chosen := baseline
		if chosen == "auto" {
			chosen = model.Pick(cfg.Topology.Name(), featFor[sp.String()])[0]
		}
		pick := byAlg[expt.Algorithm(chosen)]
		fmt.Fprintf(stdout, "%-18s %9.3f %9.3f %9.3f %9.3f  | %9.3f  %s\n",
			sp.String(),
			total(byAlg[expt.AC]), total(byAlg[expt.LP]),
			total(byAlg[expt.RSN]), total(byAlg[expt.RSNL]),
			total(pick), chosen)
		for _, alg := range expt.Algorithms {
			sums[alg] += total(byAlg[alg])
			commSums[alg] += byAlg[alg].CommMS
			scheds[alg] = append(scheds[alg], byAlg[alg].CompMS)
		}
		autoSum += total(pick)
		autoCommSum += pick.CommMS
		autoScheds = append(autoScheds, pick.CompMS)
	}

	n := float64(len(specs))
	fmt.Fprintf(stdout, "%-18s %9.3f %9.3f %9.3f %9.3f  | %9.3f\n", "mean total",
		sums[expt.AC]/n, sums[expt.LP]/n, sums[expt.RSN]/n, sums[expt.RSNL]/n, autoSum/n)
	fmt.Fprintf(stdout, "%-18s %9.3f %9.3f %9.3f %9.3f  | %9.3f\n", "mean comm",
		commSums[expt.AC]/n, commSums[expt.LP]/n, commSums[expt.RSN]/n, commSums[expt.RSNL]/n, autoCommSum/n)
	fmt.Fprintf(stdout, "%-18s %9.3f %9.3f %9.3f %9.3f  | %9.3f\n", "p50 sched",
		median(scheds[expt.AC]), median(scheds[expt.LP]), median(scheds[expt.RSN]), median(scheds[expt.RSNL]),
		median(autoScheds))

	bestAlg, bestMean := expt.Algorithms[0], commSums[expt.Algorithms[0]]/n
	for _, alg := range expt.Algorithms[1:] {
		if mean := commSums[alg] / n; mean < bestMean {
			bestAlg, bestMean = alg, mean
		}
	}
	fmt.Fprintf(stdout, "auto mean comm %.3f ms vs best fixed (%s %.3f ms): %.2fx\n",
		autoCommSum/n, bestAlg, bestMean, (autoCommSum/n)/bestMean)
	fmt.Fprintf(stdout, "auto p50 sched %.3f ms vs RS_NL %.3f ms\n",
		median(autoScheds), median(scheds[expt.RSNL]))
	return nil
}

// median returns the lower median — deterministic for even counts —
// without mutating its argument.
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	sorted := append([]float64(nil), vals...)
	sort.Float64s(sorted)
	return sorted[(len(sorted)-1)/2]
}

// runAutoFallback prints the calibrated bin rankings as the Go map
// literal committed in internal/quality/fallback.go.
func runAutoFallback(r *expt.Runner, stdout io.Writer, store *quality.Store) error {
	cfg := r.Config
	_, _, recs, err := measureCalibration(r, store)
	if err != nil {
		return err
	}
	bins := quality.NewModel(recs).BinRankings()
	keys := make([]string, 0, len(bins))
	for k := range bins {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprintf(stdout, "// Calibrated on %s: %d samples per cell, seed %d.\n",
		cfg.Topology.Name(), cfg.Samples, cfg.Seed)
	fmt.Fprintln(stdout, "var fallbackTable = map[string][]string{")
	for _, k := range keys {
		fmt.Fprintf(stdout, "\t%q: {%s},\n", k, `"`+strings.Join(bins[k], `", "`)+`"`)
	}
	fmt.Fprintln(stdout, "}")
	return nil
}
