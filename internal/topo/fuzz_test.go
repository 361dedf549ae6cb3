package topo_test

import (
	"reflect"
	"testing"

	"unsched/internal/topo"
)

// FuzzTopologySpec drives the topology rule set that -topo, the
// daemon's topology member and the campaign endpoint all apply:
// ParseSpec never panics, an accepted spec validates and its String
// parses back to an equal spec, and Build never panics on an accepted
// spec of at most 256 nodes, and builds that many.
func FuzzTopologySpec(f *testing.F) {
	for _, s := range []string{
		"cube:6", "hypercube:3", "cube:0", "cube:31", "cube:-1", "cube:x",
		"mesh:8x8", "mesh:1x2", "mesh:0x4", "mesh:3", "torus:16x16", "torus:2x4",
		"ring:12", "ring:2", "graph:5:0-1,1-2,2-3,3-4,4-0", "graph:4:3-2,1-0,1-2",
		"graph:4:0-1,2-3", "graph:3:0-0", "graph:3:0-1,1-0", "graph:3:0-5", "graph:2:",
		"graph:2", "hex:4", "", ":", "cube:", "mesh:256x72057594037927937",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		sp, err := topo.ParseSpec(s)
		if err != nil {
			return
		}
		if err := sp.Validate(); err != nil {
			t.Fatalf("ParseSpec(%q) accepted a spec Validate rejects: %v", s, err)
		}
		again, err := topo.ParseSpec(sp.String())
		if err != nil {
			t.Fatalf("ParseSpec(%q) = %q, which does not parse: %v", s, sp.String(), err)
		}
		if !reflect.DeepEqual(again, sp) {
			t.Fatalf("ParseSpec(%q) = %#v, its String %q parses to %#v", s, sp, sp.String(), again)
		}
		if sp.Nodes() > 256 {
			return
		}
		net, err := sp.Build() // must not panic
		if err == nil && net.Nodes() != sp.Nodes() {
			t.Fatalf("%q built %d nodes, Spec.Nodes says %d", s, net.Nodes(), sp.Nodes())
		}
	})
}
