package topo

import (
	"math/rand"
	"slices"
	"testing"

	"unsched/internal/hypercube"
	"unsched/internal/mesh"
)

// TestDenseWalkMatchesLazyWalk drives the two route walks of an
// Occupancy — stored ids of a dense table, and ids generated into the
// occupancy's scratch over a lazy one — through the same randomized
// claim/watch/release/reset sequence, requiring the same claim
// verdicts and blocking channels, the same released watched channels,
// and identical claimed and watched channel sets at every step.
func TestDenseWalkMatchesLazyWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(94))
	for _, net := range []Topology{
		hypercube.MustNew(5),
		mesh.MustNew(5, 7, false),
		mesh.MustNew(8, 8, true),
		MustNewRing(13),
	} {
		dense, lazy := NewOccupancy(NewRouteTable(net)), NewOccupancy(net)
		if dense.rt.lazy || !lazy.rt.lazy {
			t.Fatalf("%s: want a dense table and a lazy walk over the plain topology", net.Name())
		}
		var denseWoken, lazyWoken []int32
		n := net.Nodes()
		for step := 0; step < 3000; step++ {
			src, dst := rng.Intn(n), rng.Intn(n)
			switch op := rng.Intn(10); {
			case op == 0:
				dense.Reset()
				lazy.Reset()
			case op <= 5:
				ch := dense.Claim(src, dst)
				if got := lazy.Claim(src, dst); got != ch {
					t.Fatalf("%s step %d: Claim(%d,%d) dense %d, lazy %d", net.Name(), step, src, dst, ch, got)
				}
				if ch >= 0 && op <= 3 {
					dense.Watch(ch)
					lazy.Watch(ch)
				}
			default:
				denseWoken = dense.Release(src, dst, denseWoken[:0])
				lazyWoken = lazy.Release(src, dst, lazyWoken[:0])
				if !slices.Equal(denseWoken, lazyWoken) {
					t.Fatalf("%s step %d: Release(%d,%d) dense reported %v, lazy %v",
						net.Name(), step, src, dst, denseWoken, lazyWoken)
				}
			}
			if !slices.Equal(lazy.busy, dense.busy) || lazy.watched != dense.watched ||
				lazy.watched != 0 && !slices.Equal(lazy.watch, dense.watch) {
				t.Fatalf("%s step %d: lazy claims %x (%d watched), dense %x (%d watched)",
					net.Name(), step, lazy.busy, lazy.watched, dense.busy, dense.watched)
			}
		}
	}
}

// TestWatchedOnlyWhileClaimed pins the invariant the simulator's
// parking relies on: a watch flag lives exactly as long as the claim
// under it. Releasing a route clears the flags of the channels it
// frees, a blocked claim rolls back without touching a flag, and
// Reset clears them all.
func TestWatchedOnlyWhileClaimed(t *testing.T) {
	cube := hypercube.MustNew(4)
	for _, rt := range []*RouteTable{NewRouteTable(cube), NewRouteTableLazy(cube)} {
		o := NewOccupancy(rt)
		if o.Claim(0, 15) >= 0 {
			t.Fatal("fresh table blocked")
		}
		ch := o.Claim(1, 15) // shares 0->15's channels past node 1
		if ch < 0 {
			t.Fatal("overlapping claim succeeded")
		}
		o.Watch(ch)
		o.Watch(ch)
		if o.watched != 1 {
			t.Fatalf("watching one channel twice counts %d", o.watched)
		}
		if got := o.Release(0, 15, nil); !slices.Equal(got, []int32{int32(ch)}) {
			t.Fatalf("release reported %v, want [%d]", got, ch)
		}
		if o.watched != 0 || o.ClaimedCount() != 0 {
			t.Fatalf("release left %d watched, %d claimed", o.watched, o.ClaimedCount())
		}
		if o.Claim(0, 15) >= 0 {
			t.Fatal("released route blocked")
		}
		o.Watch(rt.RouteIDs(0, 15, nil)[0])
		o.Reset()
		if o.watched != 0 || slices.ContainsFunc(o.watch, func(w uint64) bool { return w != 0 }) {
			t.Fatal("reset left watch flags")
		}
	}
}
