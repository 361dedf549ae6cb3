// Package hypercube models the binary hypercube interconnection
// network of the Intel iPSC/860 and its deterministic e-cube routing.
//
// A d-dimensional hypercube connects n = 2^d nodes; nodes i and j are
// adjacent iff their addresses differ in exactly one bit. The iPSC/860
// uses circuit-switched routing with the e-cube algorithm: the route
// from src to dst fixes the differing address bits one at a time from
// the least significant bit to the most significant bit. Because the
// routing is deterministic, the set of links a message will claim is a
// pure function of (src, dst), which is exactly what the link-
// contention-avoiding scheduler (RS_NL) relies on.
package hypercube

import (
	"fmt"
	"math/bits"
)

// Cube describes a hypercube of 2^Dim nodes.
type Cube struct {
	dim int
	n   int
}

// New returns the hypercube with 2^dim nodes. dim must be in [0, 30].
func New(dim int) (*Cube, error) {
	if dim < 0 || dim > 30 {
		return nil, fmt.Errorf("hypercube: dimension %d out of range [0,30]", dim)
	}
	return &Cube{dim: dim, n: 1 << uint(dim)}, nil
}

// MustNew is New for known-good dimensions; it panics on error.
func MustNew(dim int) *Cube {
	c, err := New(dim)
	if err != nil {
		panic(err)
	}
	return c
}

// ForNodes returns the smallest hypercube with at least n nodes, or an
// error if n is not a positive power of two (the iPSC/860 allocates
// subcubes, so node counts are always powers of two).
func ForNodes(n int) (*Cube, error) {
	if n <= 0 || n&(n-1) != 0 {
		return nil, fmt.Errorf("hypercube: node count %d is not a positive power of two", n)
	}
	return New(bits.TrailingZeros(uint(n)))
}

// Dim returns the cube dimension.
func (c *Cube) Dim() int { return c.dim }

// Nodes returns the number of nodes, 2^Dim.
func (c *Cube) Nodes() int { return c.n }

// Contains reports whether node id is a valid address in the cube.
func (c *Cube) Contains(node int) bool { return node >= 0 && node < c.n }

// Distance returns the Hamming distance between two node addresses,
// which is the e-cube route length in hops.
func Distance(a, b int) int {
	return bits.OnesCount(uint(a ^ b))
}

// NumChannels returns the number of directed channels: each of the
// dim * 2^(dim-1) full-duplex links carries two independent circuits,
// one per direction, which is why a pairwise exchange can proceed
// concurrently and why the XOR permutations used by LP are
// contention-free (their routes are disjoint at channel granularity,
// not wire granularity).
func (c *Cube) NumChannels() int { return c.dim * c.n }

// Name implements topo.Topology.
func (c *Cube) Name() string { return fmt.Sprintf("hypercube-%d", c.dim) }

// RouteIDs implements topo.Topology: it appends the e-cube route from
// src to dst to buf as dense directed-channel indices and returns the
// extended slice. The route fixes address bits LSB-first, exactly as
// the iPSC/860 hardware does; an empty route (src == dst) appends
// nothing. RouteIDs panics if either node is outside the cube; node
// IDs come from schedule structures that are validated on
// construction.
//
// Channel numbering: the link crossing dimension d between lo (bit d
// clear) and lo|1<<d has index d*2^(dim-1) + lo with bit d deleted, so
// links are dense per dimension; its upward direction (toward the
// higher address) is channel 2*link+1 and its downward one 2*link.
func (c *Cube) RouteIDs(src, dst int, buf []int) []int {
	if !c.Contains(src) || !c.Contains(dst) {
		panic(fmt.Sprintf("hypercube: route %d->%d outside %d-cube", src, dst, c.dim))
	}
	cur := src
	diff := src ^ dst
	for diff != 0 {
		d := bits.TrailingZeros(uint(diff))
		bit := 1 << uint(d)
		// Within dimension d, a link's index is cur with bit d deleted.
		link := d*(c.n/2) + (cur&(bit-1) | cur>>uint(d+1)<<uint(d))
		up := 0
		if cur&bit == 0 {
			up = 1
		}
		buf = append(buf, 2*link+up)
		cur ^= bit
		diff &^= bit
	}
	return buf
}

// Hops implements topo.Topology.
func (c *Cube) Hops(src, dst int) int { return Distance(src, dst) }

// Diameter implements topo.DiameterHinter: the longest e-cube route is
// between complementary addresses and crosses every dimension once.
func (c *Cube) Diameter() int { return c.dim }

// String implements fmt.Stringer.
func (c *Cube) String() string {
	return fmt.Sprintf("hypercube(dim=%d, nodes=%d)", c.dim, c.n)
}
