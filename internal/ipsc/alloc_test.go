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

// allocBudgetReusedRun bounds one run on a warmed 64-node machine,
// under every protocol. The flat-event engine, the arena-recycled
// op/attempt state and the flat parked lists make the event loop
// allocation-free, and compiling S1 derives each phase's receive side
// into the machine's scratch, so a reused run allocates nothing: one
// allocation per phase, per run or per blocked transfer fails here.
const allocBudgetReusedRun = 0

func TestReusedRunAllocs(t *testing.T) {
	cube := hypercube.MustNew(6)
	table := topo.NewRouteTable(cube)
	params := costmodel.DefaultIPSC860()
	matrix := func(d int, bytes int64) *comm.Matrix {
		mat, err := comm.DRegular(64, d, bytes, rand.New(rand.NewSource(7)))
		if err != nil {
			t.Fatal(err)
		}
		return mat
	}
	// RS_NL's S1 at a mid-density cell, and every other protocol at the
	// contended corner where all 64 nodes keep blocking on each other:
	// d=48 with 128 KB messages.
	mid, hot := matrix(16, 4096), matrix(48, 131072)
	schedule := func(s *sched.Schedule, err error) *sched.Schedule {
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	rsnlMid := schedule(sched.RSNL(mid, cube, rand.New(rand.NewSource(1))))
	rsnlHot := schedule(sched.RSNL(hot, cube, rand.New(rand.NewSource(1))))
	rsnHot := schedule(sched.RSN(hot, rand.New(rand.NewSource(1))))
	lpHot := schedule(sched.LP(hot))
	order, err := sched.AC(hot)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		run  func(m *Machine) (Result, error)
	}{
		{"RS_NL/S1", func(m *Machine) (Result, error) { return m.RunS1(rsnlMid) }},
		{"RS_NL/S1Barrier", func(m *Machine) (Result, error) { return m.RunS1Barrier(rsnlHot) }},
		{"AC", func(m *Machine) (Result, error) { return m.RunAC(order, hot) }},
		{"ACAsync", func(m *Machine) (Result, error) { return m.RunACAsync(order, hot) }},
		{"RS_N/S2", func(m *Machine) (Result, error) { return m.RunS2(rsnHot) }},
		{"LP", func(m *Machine) (Result, error) { return m.RunLP(lpHot) }},
	} {
		mach, err := NewMachine(table, params)
		if err != nil {
			t.Fatal(err)
		}
		run := func() {
			if _, err := c.run(mach); err != nil {
				t.Fatal(err)
			}
		}
		// mallocs counts one run's allocations. testing.AllocsPerRun
		// would not do: it runs its function once unmeasured first.
		mallocs := func() uint64 {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			run()
			runtime.ReadMemStats(&after)
			return after.Mallocs - before.Mallocs
		}
		run() // warm the arenas
		// The first run leaves every queue FIFO as large as it will
		// need, so the second allocates no more than the third: a reset
		// that hands the FIFOs to other times than the first run did
		// grows the short ones again.
		if second, third := mallocs(), mallocs(); second > third {
			t.Errorf("reused %s: run 2 allocates %d times, run 3 %d", c.name, second, third)
		}
		if got := testing.AllocsPerRun(20, run); got > allocBudgetReusedRun {
			t.Errorf("reused %s: %.1f allocs/run, budget %d", c.name, got, allocBudgetReusedRun)
		}
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
