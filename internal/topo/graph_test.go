package topo_test

import (
	"runtime"
	"testing"

	"unsched/internal/topo"
)

// Compile-time interface checks.
var (
	_ topo.Topology       = (*topo.Graph)(nil)
	_ topo.DiameterHinter = (*topo.Graph)(nil)
)

// TestRingRouting pins the ring's routing law: every route takes the
// shorter way around (min(k, n-k) hops), and at the antipode of an
// even ring the tie breaks toward the lower-id neighbor.
func TestRingRouting(t *testing.T) {
	for _, n := range []int{3, 4, 7, 8, 16} {
		g := topo.MustNewRing(n)
		if g.Name() != "" && g.Nodes() != n {
			t.Fatalf("ring-%d has %d nodes", n, g.Nodes())
		}
		if g.NumChannels() != 2*n {
			t.Errorf("ring-%d: %d channels, want %d", n, g.NumChannels(), 2*n)
		}
		for src := 0; src < n; src++ {
			for dst := 0; dst < n; dst++ {
				fwd := (dst - src + n) % n
				want := fwd
				if n-fwd < want {
					want = n - fwd
				}
				if got := g.Hops(src, dst); got != want {
					t.Errorf("ring-%d: Hops(%d,%d) = %d, want %d", n, src, dst, got, want)
				}
				if got := len(g.RouteIDs(src, dst, nil)); got != want {
					t.Errorf("ring-%d: route %d->%d has %d hops, want %d", n, src, dst, got, want)
				}
			}
		}
		if want := n / 2; g.Diameter() != want {
			t.Errorf("ring-%d: diameter %d, want %d", n, g.Diameter(), want)
		}
	}
}

// TestGraphCanonicalTieBreak pins the lowest-id rule on the 4-cycle
// 0-1-3-2-0: both 1 and 2 are one hop from 0 and one from 3, so the
// canonical route 0->3 must run through node 1.
func TestGraphCanonicalTieBreak(t *testing.T) {
	g := topo.MustNewGraph(4, [][2]int{{0, 1}, {1, 3}, {0, 2}, {2, 3}})
	route03 := g.RouteIDs(0, 3, nil)
	via1 := append(g.RouteIDs(0, 1, nil), g.RouteIDs(1, 3, nil)...)
	if len(route03) != 2 {
		t.Fatalf("route 0->3 has %d hops, want 2", len(route03))
	}
	for i := range route03 {
		if route03[i] != via1[i] {
			t.Fatalf("route 0->3 = %v, want the lowest-id path via node 1 (%v)", route03, via1)
		}
	}
}

// TestGraphRoutesAreConsistent checks the deterministic-routing
// contract the schedulers rely on: routes are a pure function of
// (src, dst) — repeated calls agree — and every suffix of a canonical
// route is itself canonical (claiming a route claims exactly what any
// sub-journey along it would claim).
func TestGraphRoutesAreConsistent(t *testing.T) {
	nets := []*topo.Graph{
		topo.MustNewRing(9),
		topo.MustNewRing(12),
		topo.MustNewGraph(6, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 0}, {0, 3}}),
		randomConnectedGraph(t, 17, 5),
	}
	for _, g := range nets {
		n := g.Nodes()
		for src := 0; src < n; src++ {
			for dst := 0; dst < n; dst++ {
				r1 := g.RouteIDs(src, dst, nil)
				r2 := g.RouteIDs(src, dst, nil)
				if len(r1) != len(r2) {
					t.Fatalf("%s: route %d->%d nondeterministic", g.Name(), src, dst)
				}
				if len(r1) != g.Hops(src, dst) {
					t.Fatalf("%s: route %d->%d has %d hops, Hops says %d",
						g.Name(), src, dst, len(r1), g.Hops(src, dst))
				}
				for i := range r1 {
					if r1[i] != r2[i] {
						t.Fatalf("%s: route %d->%d nondeterministic at hop %d", g.Name(), src, dst, i)
					}
					if r1[i] < 0 || r1[i] >= g.NumChannels() {
						t.Fatalf("%s: route %d->%d: channel %d out of range", g.Name(), src, dst, r1[i])
					}
				}
			}
		}
		// Suffix consistency via distances: walking one hop along the
		// canonical route must reduce the remaining distance by exactly
		// one, so canonical routes compose.
		for src := 0; src < n; src++ {
			for dst := 0; dst < n; dst++ {
				if src == dst {
					continue
				}
				// Find the first-hop endpoint by matching channel 0 of
				// the route against routes to every neighbor candidate.
				first := g.RouteIDs(src, dst, nil)[0]
				found := false
				for w := 0; w < n; w++ {
					if g.Hops(src, w) == 1 {
						r := g.RouteIDs(src, w, nil)
						if len(r) == 1 && r[0] == first {
							if g.Hops(w, dst) != g.Hops(src, dst)-1 {
								t.Fatalf("%s: first hop %d->%d does not approach %d", g.Name(), src, w, dst)
							}
							rest := g.RouteIDs(w, dst, nil)
							full := g.RouteIDs(src, dst, nil)
							for i := range rest {
								if rest[i] != full[i+1] {
									t.Fatalf("%s: route %d->%d suffix differs from canonical %d->%d",
										g.Name(), src, dst, w, dst)
								}
							}
							found = true
							break
						}
					}
				}
				if !found {
					t.Fatalf("%s: first hop of %d->%d is no neighbor channel", g.Name(), src, dst)
				}
			}
		}
	}
}

func TestGraphValidation(t *testing.T) {
	if _, err := topo.NewGraph(1, nil); err == nil {
		t.Error("1-node graph accepted")
	}
	if _, err := topo.NewGraph(4, [][2]int{{0, 0}}); err == nil {
		t.Error("self-loop accepted")
	}
	if _, err := topo.NewGraph(4, [][2]int{{0, 5}}); err == nil {
		t.Error("out-of-range edge accepted")
	}
	if _, err := topo.NewGraph(4, [][2]int{{0, 1}, {1, 0}}); err == nil {
		t.Error("duplicate edge accepted")
	}
	if _, err := topo.NewGraph(4, [][2]int{{0, 1}, {2, 3}}); err == nil {
		t.Error("disconnected graph accepted")
	}
	if _, err := topo.NewRing(2); err == nil {
		t.Error("2-ring accepted")
	}
}

// TestDisconnectedGraphRejectedCheaply: a disconnected graph is
// rejected before its O(n^2) route tables are allocated, so a 4096-node
// graph of one edge, which any topology member can name, costs
// kilobytes to refuse, not the 128 MiB of its tables.
func TestDisconnectedGraphRejectedCheaply(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := topo.NewGraph(4096, [][2]int{{0, 1}})
	runtime.ReadMemStats(&after)
	if want := "topo: graph is disconnected (no path 2->0)"; err == nil || err.Error() != want {
		t.Fatalf("error %v, want %q", err, want)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Errorf("rejecting a disconnected 4096-node graph allocated %d bytes", got)
	}
}

// TestGraphNamesAreContentUnique: the name is the topology identity in
// every cache and content hash, so graphs that differ only in wiring
// must not share one.
func TestGraphNamesAreContentUnique(t *testing.T) {
	a := topo.MustNewGraph(4, [][2]int{{0, 1}, {1, 2}, {2, 3}})
	b := topo.MustNewGraph(4, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}})
	if a.Name() == b.Name() {
		t.Errorf("different graphs share name %q", a.Name())
	}
	// Same content in a different edge order is the same identity.
	c := topo.MustNewGraph(4, [][2]int{{3, 2}, {2, 1}, {1, 0}})
	if a.Name() != c.Name() {
		t.Errorf("same graph named %q and %q", a.Name(), c.Name())
	}
}
