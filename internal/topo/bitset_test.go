package topo_test

import (
	"math/rand"
	"slices"
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
// sweep topology's table and a reference per-channel table (claimed,
// watched) through the same randomized claim/watch/release sequence.
// A claim must succeed exactly when the reference route is free, and
// a blocked one must name a claimed channel of its route and claim
// nothing; a release must report exactly the watched channels it
// frees. (The lazy walk is held to the dense one, blocking channel
// included, by the internal TestDenseWalkMatchesLazyWalk.)
func TestBitsetRouteOpsMatchBoolOccupancy(t *testing.T) {
	rng := rand.New(rand.NewSource(860))
	for _, net := range tableTopologies(t) {
		n := net.Nodes()
		if n < 2 {
			continue
		}
		occ := topo.NewOccupancy(topo.NewRouteTable(net))
		claimed := make([]bool, net.NumChannels())
		watched := make([]bool, net.NumChannels())
		type claim struct{ src, dst int }
		var held []claim
		var woken []int32
		for step := 0; step < 2000; step++ {
			src, dst := rng.Intn(n), rng.Intn(n)
			route := net.RouteIDs(src, dst, nil)
			if rng.Intn(3) == 0 && len(held) > 0 {
				i := rng.Intn(len(held))
				c := held[i]
				held = append(held[:i], held[i+1:]...)
				var want []int32
				for _, id := range net.RouteIDs(c.src, c.dst, nil) {
					claimed[id] = false
					if watched[id] {
						watched[id] = false
						want = append(want, int32(id))
					}
				}
				woken = occ.Release(c.src, c.dst, woken[:0])
				slices.Sort(woken)
				slices.Sort(want)
				if !slices.Equal(woken, want) {
					t.Fatalf("%s step %d: Release(%d,%d) reported %v, watched %v",
						net.Name(), step, c.src, c.dst, woken, want)
				}
				continue
			}
			free := !slices.ContainsFunc(route, func(id int) bool { return claimed[id] })
			before := occ.ClaimedCount()
			ch := occ.Claim(src, dst)
			switch {
			case free != (ch < 0):
				t.Fatalf("%s step %d: Claim(%d,%d) = %d, reference free %v", net.Name(), step, src, dst, ch, free)
			case ch >= 0:
				if !slices.Contains(route, ch) || !claimed[ch] {
					t.Fatalf("%s step %d: Claim(%d,%d) blocked on %d, not a claimed channel of its route",
						net.Name(), step, src, dst, ch)
				}
				if occ.ClaimedCount() != before {
					t.Fatalf("%s step %d: blocked Claim(%d,%d) changed the claimed count %d -> %d",
						net.Name(), step, src, dst, before, occ.ClaimedCount())
				}
				if rng.Intn(2) == 0 {
					occ.Watch(ch)
					watched[ch] = true
				}
			default:
				for _, id := range route {
					claimed[id] = true
				}
				held = append(held, claim{src, dst})
			}
		}
	}
}
