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
// the same randomized mark/release/reset/probe sequence, requiring
// identical answers and identical claimed channel sets at every step.
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
		n := net.Nodes()
		for step := 0; step < 3000; step++ {
			src, dst := rng.Intn(n), rng.Intn(n)
			op := rng.Intn(10)
			for _, o := range walks {
				switch {
				case op == 0:
					o.Reset()
				case op <= 3:
					o.MarkPath(src, dst)
				case op <= 5:
					o.ReleasePath(src, dst)
				}
			}
			free := walks[0].CheckPath(src, dst)
			for w, o := range walks[1:] {
				if got := o.CheckPath(src, dst); got != free {
					t.Fatalf("%s step %d: CheckPath(%d,%d) masked %v, walk %d %v", net.Name(), step, src, dst, free, w+1, got)
				}
				if !slices.Equal(o.busy, walks[0].busy) {
					t.Fatalf("%s step %d: walk %d claims %x, masked %x", net.Name(), step, w+1, o.busy, walks[0].busy)
				}
			}
		}
	}
}
