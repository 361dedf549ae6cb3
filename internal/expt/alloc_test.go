// Allocation-regression test for a campaign worker's steady state.
// Excluded under the race detector: its instrumentation changes
// allocation counts.
//
//go:build !race

package expt

import (
	"testing"

	"unsched/internal/comm"
	"unsched/internal/ipsc"
	"unsched/internal/sched"
	"unsched/internal/stats"
	"unsched/internal/topo"
	"unsched/internal/workload"
)

// TestRunSampleAllocs holds a warmed worker's unit — generate the
// matrix, then schedule and simulate all four contenders — at 0
// allocations on Table 1 cells: the worker reseeds its generators in
// place, regenerates into its own matrix, and hands every schedule and
// send order back to its core once simulated.
func TestRunSampleAllocs(t *testing.T) {
	cfg := DefaultConfig()
	routes := topo.NewRouteTable(cfg.Topology)
	mach, err := ipsc.NewMachine(routes, cfg.Params)
	if err != nil {
		t.Fatal(err)
	}
	core := sched.NewCoreForTable(routes)
	src := stats.NewSource(cfg.Seed)
	scratch := &unitScratch{m: comm.MustNew(cfg.Topology.Nodes())}
	out := make([]unitResult, len(Algorithms))
	for _, sp := range []workload.Spec{workload.UniformSpec(4, 256), workload.UniformSpec(16, 1024), workload.UniformSpec(48, 128*1024)} {
		unit := func() {
			if err := cfg.runSample(mach, core, src, scratch, sp, 3, out, nil); err != nil {
				t.Fatal(err)
			}
		}
		unit() // warm the worker: machine arenas, core scratch, recycled storage
		unit()
		if got := testing.AllocsPerRun(5, unit); got != 0 {
			t.Errorf("%s: a warmed worker's unit allocates %.1f times, want 0", sp, got)
		}
	}
}
