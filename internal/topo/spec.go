package topo

import (
	"fmt"
	"strconv"
	"strings"

	"unsched/internal/hypercube"
	"unsched/internal/mesh"
)

// Spec is the canonical, machine-neutral description of a topology —
// the one vocabulary the service endpoints, the campaign engine, and
// the CLI share. Build makes this the one place in topo that imports
// the concrete backends (hypercube, mesh), a deliberate layering
// tradeoff: implementation packages consequently cannot import topo
// from their in-package tests (use an external _test package, as
// internal/mesh does).
//
// A spec round-trips through its string form:
//
//	cube:6                  hypercube, 2^6 nodes, e-cube routing
//	mesh:8x8                2D mesh, XY routing
//	torus:16x16             2D torus, XY routing (shortest way around)
//	ring:12                 ring, shorter-way-around routing
//	graph:5:0-1,1-2,2-3,3-4,4-0
//	                        arbitrary connected graph, canonical BFS
//	                        shortest-path routing, lowest-id tie-break
//
// Parse with ParseSpec, render the canonical form with String, and
// construct the Topology with Build. The zero Spec is invalid.
type Spec struct {
	// Kind is "cube", "mesh", "torus", "ring", or "graph".
	Kind string
	// Dim is the hypercube dimension (Kind "cube").
	Dim int
	// W, H are the grid extents (Kinds "mesh" and "torus").
	W, H int
	// N is the node count (Kinds "ring" and "graph").
	N int
	// Edges are the undirected edges (Kind "graph"), canonicalized by
	// ParseSpec/Validate to (lo, hi) pairs in sorted order.
	Edges [][2]int
}

// CubeSpec, MeshSpec, TorusSpec, and RingSpec build the common specs
// without going through the string grammar.
func CubeSpec(dim int) Spec                { return Spec{Kind: "cube", Dim: dim} }
func MeshSpec(w, h int) Spec               { return Spec{Kind: "mesh", W: w, H: h} }
func TorusSpec(w, h int) Spec              { return Spec{Kind: "torus", W: w, H: h} }
func RingSpec(n int) Spec                  { return Spec{Kind: "ring", N: n} }
func GraphSpec(n int, edges [][2]int) Spec { return Spec{Kind: "graph", N: n, Edges: edges} }

// ParseSpec parses the string form of a topology spec. "hypercube" is
// accepted as an alias of "cube"; the canonical form (String) always
// says "cube". Graph edges are canonicalized and validated.
func ParseSpec(s string) (Spec, error) {
	kind, rest, ok := strings.Cut(s, ":")
	if !ok || rest == "" {
		return Spec{}, fmt.Errorf("topo: spec %q: want kind:args (cube:D, mesh:WxH, torus:WxH, ring:N, graph:N:edges)", s)
	}
	switch kind {
	case "cube", "hypercube":
		dim, err := strconv.Atoi(rest)
		if err != nil {
			return Spec{}, fmt.Errorf("topo: spec %q: bad cube dimension %q", s, rest)
		}
		sp := Spec{Kind: "cube", Dim: dim}
		return sp, sp.Validate()
	case "mesh", "torus":
		ws, hs, ok := strings.Cut(rest, "x")
		if !ok {
			return Spec{}, fmt.Errorf("topo: spec %q: want %s:WxH", s, kind)
		}
		w, errW := strconv.Atoi(ws)
		h, errH := strconv.Atoi(hs)
		if errW != nil || errH != nil {
			return Spec{}, fmt.Errorf("topo: spec %q: bad extent %q", s, rest)
		}
		sp := Spec{Kind: kind, W: w, H: h}
		return sp, sp.Validate()
	case "ring":
		n, err := strconv.Atoi(rest)
		if err != nil {
			return Spec{}, fmt.Errorf("topo: spec %q: bad ring size %q", s, rest)
		}
		sp := Spec{Kind: "ring", N: n}
		return sp, sp.Validate()
	case "graph":
		ns, edgeStr, ok := strings.Cut(rest, ":")
		if !ok {
			return Spec{}, fmt.Errorf("topo: spec %q: want graph:N:a-b,c-d,...", s)
		}
		n, err := strconv.Atoi(ns)
		if err != nil {
			return Spec{}, fmt.Errorf("topo: spec %q: bad node count %q", s, ns)
		}
		var edges [][2]int
		if edgeStr != "" {
			for _, part := range strings.Split(edgeStr, ",") {
				as, bs, ok := strings.Cut(part, "-")
				if !ok {
					return Spec{}, fmt.Errorf("topo: spec %q: bad edge %q (want a-b)", s, part)
				}
				a, errA := strconv.Atoi(as)
				b, errB := strconv.Atoi(bs)
				if errA != nil || errB != nil {
					return Spec{}, fmt.Errorf("topo: spec %q: bad edge %q", s, part)
				}
				edges = append(edges, [2]int{a, b})
			}
		}
		sp := Spec{Kind: "graph", N: n, Edges: edges}
		return sp, sp.Validate()
	default:
		return Spec{}, fmt.Errorf("topo: spec %q: unknown kind %q (want cube, mesh, torus, ring, or graph)", s, kind)
	}
}

// MustParseSpec is ParseSpec for known-good specs; it panics on error.
func MustParseSpec(s string) Spec {
	sp, err := ParseSpec(s)
	if err != nil {
		panic(err)
	}
	return sp
}

// Validate checks the spec structurally — the same bounds Build
// enforces, minus graph connectivity (which needs the BFS). As a side
// effect it canonicalizes graph edges in place, so a validated spec
// renders its canonical String.
func (sp *Spec) Validate() error {
	switch sp.Kind {
	case "cube":
		if sp.Dim < 0 || sp.Dim > 30 {
			return fmt.Errorf("topo: cube dimension %d out of range [0,30]", sp.Dim)
		}
	case "mesh", "torus":
		// Bound W*H by dividing: a product past the int range would
		// wrap to a small node count.
		if sp.W >= 1 && sp.H >= 1 && sp.W > maxGraphNodes/sp.H {
			return fmt.Errorf("topo: %s %dx%d exceeds the %d-node limit", sp.Kind, sp.W, sp.H, maxGraphNodes)
		}
		if sp.W < 1 || sp.H < 1 || sp.W*sp.H < 2 {
			return fmt.Errorf("topo: %s %dx%d too small", sp.Kind, sp.W, sp.H)
		}
		if sp.Kind == "torus" && (sp.W < 3 || sp.H < 3) {
			return fmt.Errorf("topo: torus needs at least 3x3, got %dx%d", sp.W, sp.H)
		}
	case "ring":
		if sp.N < 3 {
			return fmt.Errorf("topo: ring needs at least 3 nodes, got %d", sp.N)
		}
		if sp.N > maxGraphNodes {
			return fmt.Errorf("topo: ring of %d nodes exceeds the %d-node limit", sp.N, maxGraphNodes)
		}
	case "graph":
		if sp.N < 2 {
			return fmt.Errorf("topo: graph needs at least 2 nodes, got %d", sp.N)
		}
		if sp.N > maxGraphNodes {
			return fmt.Errorf("topo: graph of %d nodes exceeds the %d-node limit", sp.N, maxGraphNodes)
		}
		if len(sp.Edges) > maxGraphEdges {
			return fmt.Errorf("topo: %d edges exceeds the %d-edge limit", len(sp.Edges), maxGraphEdges)
		}
		canon, err := canonicalEdges(sp.N, sp.Edges)
		if err != nil {
			return err
		}
		sp.Edges = canon
	default:
		return fmt.Errorf("topo: unknown spec kind %q", sp.Kind)
	}
	return nil
}

// Nodes returns the node count the spec describes, without building
// the topology. The spec must be valid.
func (sp Spec) Nodes() int {
	switch sp.Kind {
	case "cube":
		return 1 << uint(sp.Dim)
	case "mesh", "torus":
		return sp.W * sp.H
	default:
		return sp.N
	}
}

// String renders the canonical spec form, parseable by ParseSpec.
// Graph edges render canonically even when the spec was assembled by
// hand and never validated.
func (sp Spec) String() string {
	switch sp.Kind {
	case "cube":
		return fmt.Sprintf("cube:%d", sp.Dim)
	case "mesh", "torus":
		return fmt.Sprintf("%s:%dx%d", sp.Kind, sp.W, sp.H)
	case "ring":
		return fmt.Sprintf("ring:%d", sp.N)
	case "graph":
		canon := sortEdges(sp.Edges)
		var b strings.Builder
		fmt.Fprintf(&b, "graph:%d:", sp.N)
		for i, e := range canon {
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "%d-%d", e[0], e[1])
		}
		return b.String()
	default:
		return fmt.Sprintf("invalid:%s", sp.Kind)
	}
}

// Build constructs the Topology the spec describes. Every returned
// topology implements DiameterHinter.
func (sp Spec) Build() (Topology, error) {
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	switch sp.Kind {
	case "cube":
		return hypercube.New(sp.Dim)
	case "mesh", "torus":
		return mesh.New(sp.W, sp.H, sp.Kind == "torus")
	case "ring":
		return NewRing(sp.N)
	case "graph":
		return NewGraph(sp.N, sp.Edges)
	default:
		return nil, fmt.Errorf("topo: unknown spec kind %q", sp.Kind)
	}
}

// MustBuild is Build for known-good specs; it panics on error.
func (sp Spec) MustBuild() Topology {
	t, err := sp.Build()
	if err != nil {
		panic(err)
	}
	return t
}
