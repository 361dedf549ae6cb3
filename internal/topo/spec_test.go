package topo_test

import (
	"fmt"
	"math/rand"
	"testing"

	"unsched/internal/topo"
)

// TestSpecRoundTrip: parsing a canonical string and rendering it back
// is the identity, and non-canonical inputs (aliases, unsorted or
// hi-lo edges) normalize to the canonical form.
func TestSpecRoundTrip(t *testing.T) {
	cases := []struct {
		in, canonical string
	}{
		{"cube:0", "cube:0"},
		{"cube:6", "cube:6"},
		{"hypercube:4", "cube:4"},
		{"mesh:8x8", "mesh:8x8"},
		{"mesh:1x2", "mesh:1x2"},
		{"torus:3x3", "torus:3x3"},
		{"torus:16x16", "torus:16x16"},
		{"ring:3", "ring:3"},
		{"ring:12", "ring:12"},
		{"graph:5:0-1,0-4,1-2,2-3,3-4", "graph:5:0-1,0-4,1-2,2-3,3-4"},
		// Edges canonicalize: hi-lo flips, order sorts.
		{"graph:5:0-1,1-2,2-3,3-4,4-0", "graph:5:0-1,0-4,1-2,2-3,3-4"},
		{"graph:4:3-2,1-0,2-1", "graph:4:0-1,1-2,2-3"},
	}
	for _, tc := range cases {
		sp, err := topo.ParseSpec(tc.in)
		if err != nil {
			t.Errorf("ParseSpec(%q): %v", tc.in, err)
			continue
		}
		if got := sp.String(); got != tc.canonical {
			t.Errorf("ParseSpec(%q).String() = %q, want %q", tc.in, got, tc.canonical)
		}
		// A canonical form must reparse to itself.
		again, err := topo.ParseSpec(sp.String())
		if err != nil {
			t.Errorf("reparse %q: %v", sp.String(), err)
			continue
		}
		if again.String() != sp.String() {
			t.Errorf("reparse %q -> %q, not a fixpoint", sp.String(), again.String())
		}
	}
}

// TestSpecRoundTripProperty fuzzes random valid specs: String must be
// a parse/format fixpoint, Nodes must predict the built topology, and
// Build must yield the Name-distinct topology kinds.
func TestSpecRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1994))
	for i := 0; i < 200; i++ {
		var sp topo.Spec
		switch rng.Intn(5) {
		case 0:
			sp = topo.CubeSpec(rng.Intn(9))
		case 1:
			sp = topo.MeshSpec(1+rng.Intn(8), 2+rng.Intn(8))
		case 2:
			sp = topo.TorusSpec(3+rng.Intn(6), 3+rng.Intn(6))
		case 3:
			sp = topo.RingSpec(3 + rng.Intn(20))
		case 4:
			n := 4 + rng.Intn(12)
			var edges [][2]int
			for v := 1; v < n; v++ {
				edges = append(edges, [2]int{rng.Intn(v), v})
			}
			sp = topo.GraphSpec(n, edges)
		}
		parsed, err := topo.ParseSpec(sp.String())
		if err != nil {
			t.Fatalf("ParseSpec(%q): %v", sp.String(), err)
		}
		if parsed.String() != sp.String() {
			t.Fatalf("round trip %q -> %q", sp.String(), parsed.String())
		}
		net, err := parsed.Build()
		if err != nil {
			t.Fatalf("Build(%q): %v", sp.String(), err)
		}
		if net.Nodes() != parsed.Nodes() {
			t.Fatalf("%q: Spec.Nodes %d, built topology %d", sp.String(), parsed.Nodes(), net.Nodes())
		}
		if _, ok := net.(topo.DiameterHinter); !ok {
			t.Fatalf("%q: built topology does not hint its diameter", sp.String())
		}
	}
}

func TestSpecParseErrors(t *testing.T) {
	bad := []string{
		"",
		"cube",
		"cube:",
		"cube:x",
		"cube:-1",
		"cube:31",
		"klein:4",
		"mesh:8",
		"mesh:8x",
		"mesh:0x4",
		"torus:2x8",
		"ring:2",
		"ring:-3",
		"graph:4",
		"graph:4:0-1,1",
		"graph:4:0-4",                 // endpoint out of range
		"graph:4:0-0",                 // self loop
		"graph:4:0-1,1-0",             // duplicate edge
		"graph:99999:0-1",             // over the node limit
		fmt.Sprintf("ring:%d", 1<<20), // over the node limit
		"mesh:4097x1",                 // over the node limit
		"torus:65x64",                 // over the node limit
		"mesh:256x72057594037927937",  // 256 * (2^56+1) wraps to 256
		"torus:4294967296x4294967296", // 2^64 wraps to 0
	}
	for _, s := range bad {
		if _, err := topo.ParseSpec(s); err == nil {
			t.Errorf("ParseSpec(%q) accepted", s)
		}
	}
	// The largest grids the node limit admits build at full size.
	for _, s := range []string{"torus:64x64", "mesh:4096x1"} {
		sp, err := topo.ParseSpec(s)
		if err != nil {
			t.Fatalf("ParseSpec(%q): %v", s, err)
		}
		if net, err := sp.Build(); err != nil || net.Nodes() != 4096 {
			t.Errorf("%q: built %v, %v", s, net, err)
		}
	}
	// Disconnection is a Build-time error: the spec parses (structure
	// is fine) but the graph cannot route.
	sp, err := topo.ParseSpec("graph:4:0-1,2-3")
	if err != nil {
		t.Fatalf("disconnected graph spec should parse: %v", err)
	}
	if _, err := sp.Build(); err == nil {
		t.Error("disconnected graph built")
	}
}
