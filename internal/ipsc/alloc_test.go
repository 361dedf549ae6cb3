// Allocation-regression tests for the Reset-reuse simulation path.
// Excluded under the race detector: its instrumentation changes
// allocation counts.
//
//go:build !race

package ipsc

import (
	"math/rand"
	"runtime"
	"testing"

	"unsched/internal/comm"
	"unsched/internal/costmodel"
	"unsched/internal/hypercube"
	"unsched/internal/sched"
	"unsched/internal/topo"
)

// allocBudgetReusedRun bounds one RunS1 on a warmed 64-node machine.
// The flat-event engine and the arena-recycled op/attempt state make
// the event loop itself allocation-free; what remains is the per-run
// program header slice plus a handful of escaping result values —
// measured 22 allocs/run. The budget leaves ~2x headroom; a closure
// or per-message allocation reappearing in the hot path costs
// thousands and fails unmistakably.
const allocBudgetReusedRun = 60

func TestReusedRunAllocs(t *testing.T) {
	cube := hypercube.MustNew(6)
	table := topo.NewRouteTable(cube)
	params := costmodel.DefaultIPSC860()
	mat, err := comm.DRegular(64, 16, 4096, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	s, err := sched.RSNL(mat, cube, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	mach, err := NewMachine(table, params)
	if err != nil {
		t.Fatal(err)
	}
	run := func() {
		if _, err := mach.RunS1(s); err != nil {
			t.Fatal(err)
		}
	}
	// mallocs counts one run's allocations. testing.AllocsPerRun would
	// not do: it runs its function once unmeasured first.
	mallocs := func() uint64 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		run()
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	run() // warm the arenas
	// The first run leaves every queue FIFO as large as it will need,
	// so the second allocates no more than the third: a reset that
	// hands the FIFOs to other times than the first run did grows the
	// short ones again.
	if second, third := mallocs(), mallocs(); second > third {
		t.Errorf("reused RunS1: run 2 allocates %d times, run 3 %d", second, third)
	}
	if got := testing.AllocsPerRun(20, run); got > allocBudgetReusedRun {
		t.Errorf("reused RunS1: %.1f allocs/run, budget %d", got, allocBudgetReusedRun)
	}
}

// machineBudget1024 bounds the bytes NewMachine allocates for a
// 1024-node cube. The machine's O(n^2) state is one ready flag and one
// arrival count (int32) per node pair, 5 MiB at this size; the rest —
// node records, occupancy bitset, lazy route table — adds ~0.15 MiB.
// A second n^2 vector of int32 counters would cost 4 MiB more.
const machineBudget1024 = 6 << 20

func TestMachineFootprint(t *testing.T) {
	cube := hypercube.MustNew(10)
	params := costmodel.DefaultIPSC860()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	mach, err := NewMachine(cube, params)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	runtime.KeepAlive(mach)
	if got := after.TotalAlloc - before.TotalAlloc; got > machineBudget1024 {
		t.Errorf("NewMachine on a 1024-node cube allocated %.2f MiB, budget %d MiB",
			float64(got)/(1<<20), machineBudget1024>>20)
	}
}
