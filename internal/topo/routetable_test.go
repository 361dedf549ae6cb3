package topo_test

import (
	"math/rand"
	"testing"

	"unsched/internal/hypercube"
	"unsched/internal/mesh"
	"unsched/internal/topo"
)

// tableTopologies is the property-test sweep: hypercubes of dimension
// 0 through 8 and several mesh/torus shapes, including degenerate 1xH
// and non-square grids.
func tableTopologies(t *testing.T) []topo.Topology {
	t.Helper()
	nets := []topo.Topology{}
	for dim := 0; dim <= 8; dim++ {
		nets = append(nets, hypercube.MustNew(dim))
	}
	for _, shape := range []struct {
		w, h  int
		torus bool
	}{
		{1, 2, false}, {2, 1, false}, {1, 16, false},
		{2, 2, false}, {4, 3, false}, {5, 7, false}, {8, 8, false},
		{3, 3, true}, {4, 4, true}, {5, 3, true}, {8, 8, true},
	} {
		nets = append(nets, mesh.MustNew(shape.w, shape.h, shape.torus))
	}
	// Graph-backed topologies: rings (odd, even, minimal) and random
	// connected graphs, so every table property below also holds for
	// the canonical-BFS routing backend.
	for _, n := range []int{3, 8, 13} {
		nets = append(nets, topo.MustNewRing(n))
	}
	for seed := int64(0); seed < 3; seed++ {
		nets = append(nets, randomConnectedGraph(t, 10+int(seed)*7, seed))
	}
	return nets
}

// randomConnectedGraph builds a connected graph deterministically from
// seed: a random spanning tree plus a sprinkling of extra edges.
func randomConnectedGraph(t *testing.T, n int, seed int64) *topo.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var edges [][2]int
	for v := 1; v < n; v++ {
		edges = append(edges, [2]int{rng.Intn(v), v})
	}
	have := map[[2]int]bool{}
	for _, e := range edges {
		have[e] = true
	}
	for k := 0; k < n; k++ {
		a, b := rng.Intn(n), rng.Intn(n)
		if a == b {
			continue
		}
		if a > b {
			a, b = b, a
		}
		if !have[[2]int{a, b}] {
			have[[2]int{a, b}] = true
			edges = append(edges, [2]int{a, b})
		}
	}
	g, err := topo.NewGraph(n, edges)
	if err != nil {
		t.Fatalf("random graph n=%d seed=%d: %v", n, seed, err)
	}
	return g
}

// TestRouteTableMatchesRouteIDs checks the defining property of the
// precomputation: for every (src, dst) pair the table's stored route
// is element-identical to the route the topology generates on the fly.
func TestRouteTableMatchesRouteIDs(t *testing.T) {
	for _, net := range tableTopologies(t) {
		rt := topo.NewRouteTable(net)
		if rt.Nodes() != net.Nodes() || rt.NumChannels() != net.NumChannels() {
			t.Fatalf("%s: table shape %d nodes/%d channels, topology %d/%d",
				net.Name(), rt.Nodes(), rt.NumChannels(), net.Nodes(), net.NumChannels())
		}
		var buf []int
		for src := 0; src < net.Nodes(); src++ {
			for dst := 0; dst < net.Nodes(); dst++ {
				buf = net.RouteIDs(src, dst, buf[:0])
				got := rt.Route(src, dst)
				if len(got) != len(buf) {
					t.Fatalf("%s: route %d->%d: table has %d hops, RouteIDs %d",
						net.Name(), src, dst, len(got), len(buf))
				}
				for i := range buf {
					if int(got[i]) != buf[i] {
						t.Fatalf("%s: route %d->%d hop %d: table %d, RouteIDs %d",
							net.Name(), src, dst, i, got[i], buf[i])
					}
				}
				if rt.Hops(src, dst) != net.Hops(src, dst) {
					t.Fatalf("%s: Hops(%d,%d): table %d, topology %d",
						net.Name(), src, dst, rt.Hops(src, dst), net.Hops(src, dst))
				}
			}
		}
	}
}

// TestRouteTableDiameterBound checks the documented memory bound: no
// stored route exceeds the topology's advertised diameter, so the
// table holds at most n^2 * diameter hop entries.
func TestRouteTableDiameterBound(t *testing.T) {
	for _, net := range tableTopologies(t) {
		h, ok := net.(topo.DiameterHinter)
		if !ok {
			t.Fatalf("%s: does not hint its diameter", net.Name())
		}
		rt := topo.NewRouteTable(net)
		n := net.Nodes()
		longest := 0
		for src := 0; src < n; src++ {
			for dst := 0; dst < n; dst++ {
				if l := rt.Hops(src, dst); l > longest {
					longest = l
				}
			}
		}
		if longest > h.Diameter() {
			t.Errorf("%s: longest route %d exceeds diameter %d", net.Name(), longest, h.Diameter())
		}
		if bound := n * n * h.Diameter(); rt.HopEntries() > bound {
			t.Errorf("%s: %d hop entries exceed the n^2*diameter bound %d",
				net.Name(), rt.HopEntries(), bound)
		}
	}
}

// TestOccupancyBackendsAgree drives an Occupancy over a plain topology
// (routes generated on the fly) and one over its precomputed table
// through the same randomized claim/probe/reset sequence and requires
// identical observable behaviour at every step. A probe is a claim
// that releases what it took.
func TestOccupancyBackendsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(1994))
	for _, net := range tableTopologies(t) {
		n := net.Nodes()
		if n < 2 {
			continue
		}
		fly := topo.NewOccupancy(net)
		tab := topo.NewOccupancy(topo.NewRouteTable(net))
		for step := 0; step < 2000; step++ {
			op := rng.Intn(10)
			if op == 0 { // phase boundary
				fly.Reset()
				tab.Reset()
				continue
			}
			src, dst := rng.Intn(n), rng.Intn(n)
			f, g := fly.Claim(src, dst), tab.Claim(src, dst)
			if (f < 0) != (g < 0) {
				t.Fatalf("%s step %d: Claim(%d,%d) on-the-fly %d, table %d",
					net.Name(), step, src, dst, f, g)
			}
			if op > 3 && f < 0 { // a probe
				fly.Release(src, dst, nil)
				tab.Release(src, dst, nil)
			}
			if f, g := fly.ClaimedCount(), tab.ClaimedCount(); f != g {
				t.Fatalf("%s step %d: ClaimedCount on-the-fly %d, table %d",
					net.Name(), step, f, g)
			}
		}
	}
}
