package topo

import (
	"math/rand"
	"slices"
	"testing"

	"unsched/internal/hypercube"
	"unsched/internal/mesh"
)

// TestBitsetFallbackMatchesMaskedPath drives the three route walks of
// an Occupancy — mask spans, per hop (a dense table stripped of its
// spans, the representation above maskSpanHopLimit) and lazy — through
// the same randomized claim/watch/release/reset sequence, requiring
// the same claim verdicts, the same released watched channels, and
// identical claimed and watched channel sets at every step.
func TestBitsetFallbackMatchesMaskedPath(t *testing.T) {
	rng := rand.New(rand.NewSource(94))
	for _, net := range []Topology{
		hypercube.MustNew(5),
		mesh.MustNew(5, 7, false),
		mesh.MustNew(8, 8, true),
		MustNewRing(13),
	} {
		masked := NewRouteTable(net)
		if masked.spanOff == nil {
			t.Fatalf("%s: small table should carry mask spans", net.Name())
		}
		perHop := *masked
		perHop.spanOff, perHop.spanWord, perHop.spanMask = nil, nil, nil
		walks := []*Occupancy{NewOccupancy(masked), NewOccupancy(&perHop), NewOccupancy(net)}
		if !walks[2].rt.lazy {
			t.Fatalf("%s: occupancy over a plain topology should walk lazily", net.Name())
		}
		woken := make([][]int32, len(walks))
		n := net.Nodes()
		for step := 0; step < 3000; step++ {
			src, dst := rng.Intn(n), rng.Intn(n)
			switch op := rng.Intn(10); {
			case op == 0:
				for _, o := range walks {
					o.Reset()
				}
			case op <= 5:
				ch := walks[0].Claim(src, dst)
				for w, o := range walks[1:] {
					if got := o.Claim(src, dst); (got < 0) != (ch < 0) {
						t.Fatalf("%s step %d: Claim(%d,%d) masked %d, walk %d %d", net.Name(), step, src, dst, ch, w+1, got)
					}
				}
				if ch >= 0 && op <= 3 {
					for _, o := range walks {
						o.Watch(ch)
					}
				}
			default:
				for w, o := range walks {
					woken[w] = o.Release(src, dst, woken[w][:0])
					slices.Sort(woken[w])
				}
				for w := range walks[1:] {
					if !slices.Equal(woken[w+1], woken[0]) {
						t.Fatalf("%s step %d: Release(%d,%d) masked reported %v, walk %d %v",
							net.Name(), step, src, dst, woken[0], w+1, woken[w+1])
					}
				}
			}
			for w, o := range walks[1:] {
				if !slices.Equal(o.busy, walks[0].busy) || o.watched != walks[0].watched {
					t.Fatalf("%s step %d: walk %d claims %x (%d watched), masked %x (%d watched)",
						net.Name(), step, w+1, o.busy, o.watched, walks[0].busy, walks[0].watched)
				}
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
