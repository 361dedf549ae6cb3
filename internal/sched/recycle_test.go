package sched

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"unsched/internal/comm"
	"unsched/internal/hypercube"
	"unsched/internal/mesh"
	"unsched/internal/topo"
)

// sameBuild reports how got differs from want field by field —
// Algorithm, N, Ops and every phase's Send and Bytes — or "" when it
// does not. A recycled schedule keeps its Phases array, so an empty
// schedule is a non-nil empty slice there; the comparison does not
// tell the two apart.
func sameBuild(want, got *Schedule) string {
	switch {
	case want.Algorithm != got.Algorithm:
		return fmt.Sprintf("algorithm %s, want %s", got.Algorithm, want.Algorithm)
	case want.N != got.N:
		return fmt.Sprintf("N %d, want %d", got.N, want.N)
	case want.Ops != got.Ops:
		return fmt.Sprintf("ops %d, want %d", got.Ops, want.Ops)
	case len(want.Phases) != len(got.Phases):
		return fmt.Sprintf("%d phases, want %d", len(got.Phases), len(want.Phases))
	}
	for k := range want.Phases {
		if !slices.Equal(want.Phases[k].Send, got.Phases[k].Send) || !slices.Equal(want.Phases[k].Bytes, got.Phases[k].Bytes) {
			return fmt.Sprintf("phase %d differs", k)
		}
	}
	return ""
}

// sameOrder is sameBuild for send orders.
func sameOrder(want, got *ACOrder) bool {
	return want.N == got.N && slices.EqualFunc(want.Order, got.Order, slices.Equal[[]int])
}

// dirtyPartner names the algorithm whose schedule is recycled before
// a build of alg: another entry, with another phase count. LP's n-1
// phases outnumber every other entry's on these matrices, and GREEDY
// on the sparsest matrix has fewer than LP's.
func dirtyPartner(alg Algorithm) Algorithm {
	if alg.Tag == "LP" {
		a, _ := Lookup("GREEDY")
		return a
	}
	a, _ := Lookup("LP")
	return a
}

// TestRecycleMatchesFreshBuild holds every table entry, on a cube and
// a torus at three densities and two seeds, to the recycling contract:
// a build on a core that has just taken back another algorithm's
// schedule — dirty phases, another phase count — equals a fresh
// core's build field by field, and so does AC after RecycleOrder.
func TestRecycleMatchesFreshBuild(t *testing.T) {
	for _, net := range []topo.Topology{hypercube.MustNew(6), mesh.MustNew(8, 8, true)} {
		n := net.Nodes()
		rt := topo.NewRouteTable(net)
		core := NewCoreForTable(rt)
		for _, d := range []int{4, 16, 48} {
			for _, seed := range []int64{1, 2} {
				m := randomMatrix(t, n, d, 1024, seed)
				sparse := randomMatrix(t, n, 4, 512, seed+100)
				for _, alg := range Algorithms {
					name := fmt.Sprintf("%s d=%d seed=%d %s", net.Name(), d, seed, alg.Tag)
					if alg.Build == nil {
						dirty, err := core.AC(randomMatrix(t, n, 48, 64, seed+200))
						if err != nil {
							t.Fatal(err)
						}
						core.RecycleOrder(dirty)
						want, err := NewCoreForTable(rt).AC(m)
						if err != nil {
							t.Fatal(err)
						}
						got, err := core.AC(m)
						if err != nil {
							t.Fatal(err)
						}
						if !sameOrder(want, got) {
							t.Errorf("%s: AC after RecycleOrder differs from a fresh build", name)
						}
						core.RecycleOrder(got)
						continue
					}
					partner := dirtyPartner(alg)
					dirty, err := partner.Build(core, sparse, rand.New(rand.NewSource(seed)))
					if err != nil {
						t.Fatal(err)
					}
					want, err := alg.Build(NewCoreForTable(rt), m, rand.New(rand.NewSource(seed)))
					if err != nil {
						t.Fatal(err)
					}
					if len(dirty.Phases) == len(want.Phases) {
						t.Fatalf("%s: recycled %s has the build's phase count %d", name, partner.Tag, len(want.Phases))
					}
					core.Recycle(dirty)
					got, err := alg.Build(core, m, rand.New(rand.NewSource(seed)))
					if err != nil {
						t.Fatal(err)
					}
					if diff := sameBuild(want, got); diff != "" {
						t.Errorf("%s: build after recycling a %s schedule: %s", name, partner.Tag, diff)
					}
					core.Recycle(got)
				}
			}
		}
	}
}

// TestRecycleNeverReusesOtherWidth recycles schedules of one width
// into a topology-free core and builds at another: every phase handed
// out must be the new width, and the builds must equal fresh ones.
func TestRecycleNeverReusesOtherWidth(t *testing.T) {
	core := NewCoreDirect(nil)
	widths := []int{16, 32, 16, 8, 32}
	for i, n := range widths {
		m := randomMatrix(t, n, 4, 2048, int64(i))
		want, err := NewCoreDirect(nil).RSN(m, rand.New(rand.NewSource(9)))
		if err != nil {
			t.Fatal(err)
		}
		got, err := core.RSN(m, rand.New(rand.NewSource(9)))
		if err != nil {
			t.Fatal(err)
		}
		if diff := sameBuild(want, got); diff != "" {
			t.Errorf("n=%d after recycling n=%d: %s", n, widths[max(i-1, 0)], diff)
		}
		if err := got.Validate(m); err != nil {
			t.Errorf("n=%d: %v", n, err)
		}
		core.Recycle(got)
		if core.phaseN != n {
			t.Fatalf("pool width %d after recycling an n=%d schedule", core.phaseN, n)
		}
		for k, p := range core.phases {
			if len(p.Send) != n || len(p.Bytes) != n {
				t.Fatalf("pooled phase %d has width %d/%d, pool width %d", k, len(p.Send), len(p.Bytes), n)
			}
		}
	}
	// A wider send order is not refilled for a narrower matrix either.
	wide, err := core.AC(randomMatrix(t, 32, 8, 64, 1))
	if err != nil {
		t.Fatal(err)
	}
	core.RecycleOrder(wide)
	m := randomMatrix(t, 16, 4, 64, 2)
	got, err := core.AC(m)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := AC(m)
	if !sameOrder(want, got) || len(got.Order) != 16 {
		t.Errorf("16-node AC after recycling a 32-node order differs from a fresh build")
	}
}

// TestRecyclePoolBounded recycles outputs far larger than the pool
// may keep: a 1,024-node LP schedule (1,023 phases, 16.8 MB) leaves at
// most maxPooledSlots phase slots behind, and a send order with more
// destinations than that is not kept at all.
func TestRecyclePoolBounded(t *testing.T) {
	const n = 1024
	m, err := comm.DRegular(n, 300, 64, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	core := NewCoreDirect(nil)
	s, err := core.LP(m)
	if err != nil {
		t.Fatal(err)
	}
	core.Recycle(s)
	if slots := len(core.phases) * core.phaseN; slots > maxPooledSlots {
		t.Errorf("pool holds %d phase slots after a 1024-node LP schedule, cap %d", slots, maxPooledSlots)
	}
	if len(core.phases) == 0 {
		t.Error("pool kept nothing of a 1024-node LP schedule")
	}
	o, err := core.AC(m)
	if err != nil {
		t.Fatal(err)
	}
	core.RecycleOrder(o)
	if core.order != nil {
		t.Errorf("core kept a send order of %d destinations, cap %d", o.TotalMessages(), maxPooledSlots)
	}
}
