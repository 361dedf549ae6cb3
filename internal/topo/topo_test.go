package topo_test

import (
	"slices"
	"testing"

	"unsched/internal/hypercube"
	"unsched/internal/mesh"
	"unsched/internal/topo"
)

// Both concrete networks satisfy the interface.
var (
	_ topo.Topology = (*hypercube.Cube)(nil)
	_ topo.Topology = (*mesh.Mesh)(nil)
)

func TestHypercubeImplementsTopology(t *testing.T) {
	var net topo.Topology = hypercube.MustNew(3)
	if net.Nodes() != 8 || net.NumChannels() != 24 {
		t.Errorf("nodes=%d channels=%d", net.Nodes(), net.NumChannels())
	}
	if net.Name() != "hypercube-3" {
		t.Errorf("name = %q", net.Name())
	}
	// RouteIDs agrees with Hops for all pairs.
	for src := 0; src < 8; src++ {
		for dst := 0; dst < 8; dst++ {
			ids := net.RouteIDs(src, dst, nil)
			if len(ids) != net.Hops(src, dst) {
				t.Fatalf("%d->%d: %d ids, %d hops", src, dst, len(ids), net.Hops(src, dst))
			}
			for _, id := range ids {
				if id < 0 || id >= net.NumChannels() {
					t.Fatalf("channel id %d out of range", id)
				}
			}
		}
	}
}

func TestOccupancyAcrossTopologies(t *testing.T) {
	for _, net := range []topo.Topology{
		hypercube.MustNew(4),
		mesh.MustNew(4, 4, false),
		mesh.MustNew(4, 4, true),
	} {
		occ := topo.NewOccupancy(net)
		last := net.Nodes() - 1
		if ch := occ.Claim(0, last); ch >= 0 {
			t.Fatalf("%s: fresh table blocked on channel %d", net.Name(), ch)
		}
		if ch := occ.Claim(0, last); !slices.Contains(net.RouteIDs(0, last, nil), ch) {
			t.Fatalf("%s: claimed path claimed again, blocking channel %d", net.Name(), ch)
		}
		if occ.ClaimedCount() != net.Hops(0, last) {
			t.Fatalf("%s: claimed %d, hops %d", net.Name(), occ.ClaimedCount(), net.Hops(0, last))
		}
		occ.Reset()
		if occ.ClaimedCount() != 0 {
			t.Fatalf("%s: reset left claims", net.Name())
		}
	}
}

// The classic theorem the LP algorithm relies on: for any k, the e-cube
// routes of all pairs (i, i^k) are mutually link-disjoint. Verify
// exhaustively on the paper's 64-node machine.
func TestXORPermutationLinkDisjointOn64Nodes(t *testing.T) {
	c := hypercube.MustNew(6)
	occ := topo.NewOccupancy(c)
	for k := 1; k < c.Nodes(); k++ {
		occ.Reset()
		// Every node sends concurrently (both directions of every
		// exchange); at channel granularity the full permutation is
		// contention-free.
		for i := 0; i < c.Nodes(); i++ {
			j := i ^ k
			if ch := occ.Claim(i, j); ch >= 0 {
				t.Fatalf("k=%d: route %d->%d conflicts with earlier circuit on channel %d", k, i, j, ch)
			}
		}
	}
}

func TestOccupancyManyResetCycles(t *testing.T) {
	net := hypercube.MustNew(4)
	occ := topo.NewOccupancy(net)
	for cycle := 0; cycle < 10_000; cycle++ {
		occ.Reset()
		if occ.Claim(cycle%16, (cycle+7)%16) >= 0 {
			t.Fatalf("cycle %d: stale claim", cycle)
		}
	}
}

func TestSelfRouteAlwaysFree(t *testing.T) {
	net := mesh.MustNew(3, 3, false)
	occ := topo.NewOccupancy(net)
	occ.Claim(0, 8)
	for i := 0; i < 9; i++ {
		if occ.Claim(i, i) >= 0 {
			t.Fatalf("self route at %d blocked", i)
		}
	}
}
