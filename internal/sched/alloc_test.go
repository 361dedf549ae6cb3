// Allocation-regression tests for the reused-core schedule path.
// Excluded under the race detector: its instrumentation changes
// allocation counts.
//
//go:build !race

package sched

import (
	"math/rand"
	"runtime"
	"testing"

	"unsched/internal/comm"
	"unsched/internal/hypercube"
)

// Budgets pin the steady-state allocs of one schedule on a reused
// core. The remaining allocations are the returned Schedule itself
// (two slices per phase plus headers) — scratch state must contribute
// nothing. Measured values on the 64-node/d=16 workload: RSN ~45,
// RSNL ~49, GreedyLFLink ~57; budgets leave room for phase-count
// jitter across RNG streams, not for a scratch-reuse regression
// (losing CCOM reuse alone costs ~65 extra allocations).
const (
	allocBudgetRSN    = 70
	allocBudgetRSNL   = 80
	allocBudgetGreedy = 90
)

func allocWorkload(t *testing.T) (*hypercube.Cube, *comm.Matrix) {
	t.Helper()
	cube := hypercube.MustNew(6)
	m, err := comm.DRegular(64, 16, 4096, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	return cube, m
}

func TestCoreRSNAllocs(t *testing.T) {
	_, m := allocWorkload(t)
	core := NewCoreDirect(nil)
	rng := rand.New(rand.NewSource(1))
	if _, err := core.RSN(m, rng); err != nil { // warm the scratch
		t.Fatal(err)
	}
	got := testing.AllocsPerRun(20, func() {
		if _, err := core.RSN(m, rng); err != nil {
			t.Fatal(err)
		}
	})
	if got > allocBudgetRSN {
		t.Errorf("reused-core RSN: %.1f allocs/run, budget %d", got, allocBudgetRSN)
	}
}

func TestCoreRSNLAllocs(t *testing.T) {
	cube, m := allocWorkload(t)
	core := NewCore(cube)
	rng := rand.New(rand.NewSource(1))
	if _, err := core.RSNL(m, rng); err != nil {
		t.Fatal(err)
	}
	got := testing.AllocsPerRun(20, func() {
		if _, err := core.RSNL(m, rng); err != nil {
			t.Fatal(err)
		}
	})
	if got > allocBudgetRSNL {
		t.Errorf("reused-core RSNL: %.1f allocs/run, budget %d", got, allocBudgetRSNL)
	}
}

func TestCoreGreedyLinkFreeAllocs(t *testing.T) {
	cube, m := allocWorkload(t)
	core := NewCore(cube)
	if _, err := core.GreedyLargestFirstLinkFree(m); err != nil {
		t.Fatal(err)
	}
	got := testing.AllocsPerRun(20, func() {
		if _, err := core.GreedyLargestFirstLinkFree(m); err != nil {
			t.Fatal(err)
		}
	})
	if got > allocBudgetGreedy {
		t.Errorf("reused-core GreedyLargestFirstLinkFree: %.1f allocs/run, budget %d", got, allocBudgetGreedy)
	}
	// The per-phase claim tables must come from the recycled pool: a
	// throwaway core allocates a fresh O(channels) Occupancy per opened
	// phase (~270 allocs on this workload), so the reused core must
	// land far below it.
	throwaway := testing.AllocsPerRun(20, func() {
		if _, err := GreedyLargestFirstLinkFree(m, cube); err != nil {
			t.Fatal(err)
		}
	})
	if got >= throwaway {
		t.Errorf("reused core (%.1f allocs) does not beat throwaway (%.1f)", got, throwaway)
	}
}

// TestCoreRecycleAllocs holds every table entry to 0 allocations per
// build on a reused core that gets each output back: once the first
// builds have sized the recycled storage, a build reuses the schedule
// (or send order) and its phases and allocates nothing. The generator
// is reseeded per build, as campaign and daemon workers reseed theirs,
// so every build has the same phase count.
func TestCoreRecycleAllocs(t *testing.T) {
	cube, m := allocWorkload(t)
	core := NewCore(cube)
	rng := rand.New(rand.NewSource(1))
	for _, alg := range Algorithms {
		build := func() {
			if alg.Build == nil {
				o, err := core.AC(m)
				if err != nil {
					t.Fatal(err)
				}
				core.RecycleOrder(o)
				return
			}
			rng.Seed(1)
			s, err := alg.Build(core, m, rng)
			if err != nil {
				t.Fatal(err)
			}
			core.Recycle(s)
		}
		build() // warm the scratch and the recycled storage
		build()
		if got := testing.AllocsPerRun(20, build); got != 0 {
			t.Errorf("%s on a recycling core: %.1f allocs/build, want 0", alg.Tag, got)
		}
	}
}

// TestValidateAllocs bounds what checking a 1,024-node schedule
// allocates: the n^2-bit set of messages seen (128 KB) and one receiver
// row, where a dense n x n int64 matrix of them took 8 MiB.
func TestValidateAllocs(t *testing.T) {
	m, err := comm.DRegular(1024, 4, 4096, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	s, err := RSN(m, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	const runs = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if err := s.Validate(m); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	got := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("validating a 1024-node schedule allocates %d B", got)
	if got > 160<<10 {
		t.Errorf("validating a 1024-node schedule allocates %d B, budget 160 KB", got)
	}
}
