// Allocation-regression test for the steady-state schedule→simulate
// round trip — the configuration every campaign worker and unschedd
// worker runs in: one reusable SchedCore and one reusable SimMachine
// per goroutine, a generator reseeded per run, and every schedule
// handed back to the core once simulated. Excluded under the race
// detector: its instrumentation changes allocation counts.
//
//go:build !race

package unsched

import (
	"math/rand"
	"testing"
)

// allocBudgetRoundTrip pins one RSNL schedule plus one S1 simulation
// on reused core+machine at nothing. A reused machine simulates without
// allocating (cf. the committed BenchmarkSimulatorRSNLReused baseline
// at 0 allocs/op), and a recycled schedule's storage holds the next
// schedule, so any allocation is a regression: a closure or per-event
// allocation creeping back into the hot path, or a phase the core
// failed to reuse. Without Recycle the schedule's phase slices cost
// 49 allocations here.
const allocBudgetRoundTrip = 0

func TestScheduleSimulateRoundTripAllocs(t *testing.T) {
	cube := NewCube(6)
	m, err := DRegular(64, 16, 4096, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	core := NewSchedCore(cube)
	mach, err := NewSimMachine(cube, DefaultIPSC860())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	roundTrip := func() {
		rng.Seed(1)
		s, err := core.RSNL(m, rng)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := mach.RunS1(s); err != nil {
			t.Fatal(err)
		}
		core.Recycle(s)
	}
	roundTrip() // warm the scratch and the recycled storage
	roundTrip()
	got := testing.AllocsPerRun(20, roundTrip)
	if got > allocBudgetRoundTrip {
		t.Errorf("reused core+machine round trip: %.1f allocs/run, budget %d", got, allocBudgetRoundTrip)
	}
}
