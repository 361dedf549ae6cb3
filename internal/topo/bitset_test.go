package topo_test

import (
	"math/rand"
	"testing"

	"unsched/internal/hypercube"
	"unsched/internal/mesh"
	"unsched/internal/topo"
)

// TestLazyTableDelegates checks that a lazy table is observably the
// same Topology as the one it wraps: identical name, shape, hops, and
// generated routes, with zero stored hop entries.
func TestLazyTableDelegates(t *testing.T) {
	for _, net := range tableTopologies(t) {
		rt := topo.NewRouteTableLazy(net)
		if !rt.Lazy() {
			t.Fatalf("%s: NewRouteTableLazy built a dense table", net.Name())
		}
		if rt.HopEntries() != 0 {
			t.Fatalf("%s: lazy table stores %d hop entries", net.Name(), rt.HopEntries())
		}
		if rt.Name() != net.Name() || rt.Nodes() != net.Nodes() || rt.NumChannels() != net.NumChannels() {
			t.Fatalf("%s: lazy table shape differs from topology", net.Name())
		}
		var want, got []int
		n := net.Nodes()
		for src := 0; src < n; src++ {
			for dst := 0; dst < n; dst++ {
				want = net.RouteIDs(src, dst, want[:0])
				got = rt.RouteIDs(src, dst, got[:0])
				if len(want) != len(got) {
					t.Fatalf("%s: lazy route %d->%d: %v vs %v", net.Name(), src, dst, got, want)
				}
				for i := range want {
					if want[i] != got[i] {
						t.Fatalf("%s: lazy route %d->%d: %v vs %v", net.Name(), src, dst, got, want)
					}
				}
				if rt.Hops(src, dst) != net.Hops(src, dst) {
					t.Fatalf("%s: lazy Hops(%d,%d) = %d, topology %d",
						net.Name(), src, dst, rt.Hops(src, dst), net.Hops(src, dst))
				}
			}
		}
	}
}

// TestDenseTableImplementsTopology checks the dense table's Topology
// facade: RouteIDs copies the stored route.
func TestDenseTableImplementsTopology(t *testing.T) {
	net := hypercube.MustNew(4)
	var rt topo.Topology = topo.NewRouteTable(net)
	var want, got []int
	for src := 0; src < 16; src++ {
		for dst := 0; dst < 16; dst++ {
			want = net.RouteIDs(src, dst, want[:0])
			got = rt.RouteIDs(src, dst, got[:0])
			if len(want) != len(got) {
				t.Fatalf("route %d->%d: %v vs %v", src, dst, got, want)
			}
			for i := range want {
				if want[i] != got[i] {
					t.Fatalf("route %d->%d: %v vs %v", src, dst, got, want)
				}
			}
		}
	}
}

// TestAutoTableChoosesMode checks that NewRouteTable picks its own
// mode from the estimated footprint: dense for the paper's machine and
// for topologies that do not hint a diameter, lazy for high-diameter
// shapes past the hop budget and for machines whose n^2 routes cannot
// be indexed by int32 offsets. The lazy cases build nothing, so none
// of them costs a dense precompute.
func TestAutoTableChoosesMode(t *testing.T) {
	cube := hypercube.MustNew(6)
	if rt := topo.NewRouteTable(cube); rt.Lazy() || rt.HopEntries() == 0 {
		t.Error("64-node cube should get a dense table")
	}
	if rt := topo.NewRouteTable(unhinted{cube}); rt.Lazy() {
		t.Error("a topology without a diameter hint should get a dense table")
	}
	for _, net := range []topo.Topology{
		topo.MustNewRing(1024),      // 1024^2 * 513/2 ≈ 269M hops
		mesh.MustNew(64, 64, false), // 4096^2 * 127/2 ≈ 1.07G hops
		hypercube.MustNew(16),       // 65536^2 routes overflow int32 offsets
	} {
		if rt := topo.NewRouteTable(net); !rt.Lazy() {
			t.Errorf("%s should get a lazy table", net.Name())
		}
	}
}

// unhinted hides a topology's Diameter method.
type unhinted struct{ topo.Topology }

// TestBitsetRouteOpsMatchBoolOccupancy drives an Occupancy over every
// sweep topology's table and a reference per-channel bool table
// through the same randomized claim/release/probe sequence, requiring
// identical answers throughout. (The per-hop and lazy walks are
// covered against the masked one by the internal
// TestBitsetFallbackMatchesMaskedPath.)
func TestBitsetRouteOpsMatchBoolOccupancy(t *testing.T) {
	rng := rand.New(rand.NewSource(860))
	for _, net := range tableTopologies(t) {
		n := net.Nodes()
		if n < 2 {
			continue
		}
		occ := topo.NewOccupancy(topo.NewRouteTable(net))
		ref := make([]bool, net.NumChannels())
		refFree := func(src, dst int) bool {
			for _, id := range net.RouteIDs(src, dst, nil) {
				if ref[id] {
					return false
				}
			}
			return true
		}
		refSet := func(src, dst int, v bool) {
			for _, id := range net.RouteIDs(src, dst, nil) {
				ref[id] = v
			}
		}
		type claim struct{ src, dst int }
		var held []claim
		for step := 0; step < 2000; step++ {
			src, dst := rng.Intn(n), rng.Intn(n)
			if got, want := occ.CheckPath(src, dst), refFree(src, dst); got != want {
				t.Fatalf("%s step %d: CheckPath(%d,%d) = %v, reference %v",
					net.Name(), step, src, dst, got, want)
			}
			switch {
			case rng.Intn(3) == 0 && len(held) > 0:
				i := rng.Intn(len(held))
				c := held[i]
				occ.ReleasePath(c.src, c.dst)
				refSet(c.src, c.dst, false)
				held = append(held[:i], held[i+1:]...)
			case occ.CheckPath(src, dst) && src != dst:
				occ.MarkPath(src, dst)
				refSet(src, dst, true)
				held = append(held, claim{src, dst})
			}
		}
	}
}
