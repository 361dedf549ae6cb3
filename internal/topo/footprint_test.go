// Memory test for dense route tables. Excluded under the race
// detector: its instrumentation changes allocation counts.
//
//go:build !race

package topo_test

import (
	"runtime"
	"testing"

	"unsched/internal/hypercube"
	"unsched/internal/mesh"
	"unsched/internal/topo"
)

// TestRouteTableFootprint bounds the bytes NewRouteTable allocates for
// the largest dense tables. A dense table is 4 bytes per hop plus 4 per
// route: 25.2 MB for the 1024-node cube (5.2 M hops) and 93.6 MB for
// the 32x32 mesh (22.3 M hops). A second per-hop representation, or
// hop storage sized from the diameter instead of the routes, fails
// here.
func TestRouteTableFootprint(t *testing.T) {
	for _, c := range []struct {
		net    topo.Topology
		budget uint64
	}{
		{hypercube.MustNew(10), 26e6},
		{mesh.MustNew(32, 32, false), 95e6},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rt := topo.NewRouteTable(c.net)
		runtime.ReadMemStats(&after)
		if rt.Lazy() {
			t.Fatalf("%s: want a dense table", c.net.Name())
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > c.budget {
			t.Errorf("NewRouteTable(%s) allocated %.1f MB for %d hops, budget %.0f MB",
				c.net.Name(), float64(got)/1e6, rt.HopEntries(), float64(c.budget)/1e6)
		}
		runtime.KeepAlive(rt)
	}
}
