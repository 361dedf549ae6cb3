// Package mesh implements a 2D mesh (and torus) topology with
// dimension-ordered XY routing — the network of the iPSC/860's
// successors (Intel Paragon, and the Touchstone Delta the CalTech
// group moved to). Like e-cube on the hypercube, XY routing is
// deterministic, so the link-contention-avoiding scheduler works
// unchanged through the topo.Topology interface; this is the mesh
// generalization the paper's §5 parenthetical anticipates.
package mesh

import (
	"fmt"
)

// Mesh is a W x H grid of nodes. Node (x, y) has id y*W + x. Each
// grid edge is two directed channels; with Torus set, wraparound
// channels close each row and column.
type Mesh struct {
	w, h  int
	torus bool
}

// maxNodes is the node limit topo.Spec applies to every machine it
// builds from a ring, graph, mesh or torus spec.
const maxNodes = 4096

// New returns a w x h mesh of at most 4,096 nodes.
func New(w, h int, torus bool) (*Mesh, error) {
	// Bound w*h by dividing: a product past the int range would wrap to
	// a small node count.
	if w >= 1 && h >= 1 && w > maxNodes/h {
		return nil, fmt.Errorf("mesh: dimensions %dx%d exceed the %d-node limit", w, h, maxNodes)
	}
	if w < 1 || h < 1 || w*h < 2 {
		return nil, fmt.Errorf("mesh: dimensions %dx%d too small", w, h)
	}
	if torus && (w < 3 || h < 3) {
		// A 2-ring's wraparound duplicates the grid edge; routing
		// would be ambiguous.
		return nil, fmt.Errorf("mesh: torus needs at least 3x3, got %dx%d", w, h)
	}
	return &Mesh{w: w, h: h, torus: torus}, nil
}

// MustNew is New for known-good dimensions; it panics on error.
func MustNew(w, h int, torus bool) *Mesh {
	m, err := New(w, h, torus)
	if err != nil {
		panic(err)
	}
	return m
}

// Name implements topo.Topology.
func (m *Mesh) Name() string {
	kind := "mesh"
	if m.torus {
		kind = "torus"
	}
	return fmt.Sprintf("%s-%dx%d", kind, m.w, m.h)
}

// Nodes implements topo.Topology.
func (m *Mesh) Nodes() int { return m.w * m.h }

// Width and Height expose the grid shape.
func (m *Mesh) Width() int  { return m.w }
func (m *Mesh) Height() int { return m.h }

// Coord returns the (x, y) position of a node id.
func (m *Mesh) Coord(node int) (x, y int) { return node % m.w, node / m.w }

// ID returns the node id at (x, y).
func (m *Mesh) ID(x, y int) int { return y*m.w + x }

// Directed channel layout: four direction planes of w*h slots each.
// The +X channel of node v occupies plane 0 slot v (the channel from v
// toward x+1), -X plane 1, +Y plane 2, -Y plane 3. Mesh-edge slots at
// the boundary exist only on a torus; on a plain mesh they are never
// routed through, which wastes a few indices but keeps the arithmetic
// branch-free.
const (
	dirXPlus = iota
	dirXMinus
	dirYPlus
	dirYMinus
	dirCount
)

// NumChannels implements topo.Topology.
func (m *Mesh) NumChannels() int { return dirCount * m.w * m.h }

func (m *Mesh) channel(node, dir int) int { return dir*m.w*m.h + node }

// RouteIDs implements topo.Topology: dimension-ordered XY routing —
// resolve the X offset fully, then the Y offset. On a torus each axis
// takes the shorter way around (ties toward the positive direction).
func (m *Mesh) RouteIDs(src, dst int, buf []int) []int {
	if src < 0 || src >= m.Nodes() || dst < 0 || dst >= m.Nodes() {
		panic(fmt.Sprintf("mesh: route %d->%d outside %s", src, dst, m.Name()))
	}
	sx, sy := m.Coord(src)
	dx, dy := m.Coord(dst)

	x := sx
	for x != dx {
		step, dir := m.axisStep(x, dx, m.w)
		buf = append(buf, m.channel(m.ID(x, sy), dir))
		x = wrap(x+step, m.w)
	}
	y := sy
	for y != dy {
		step, dir := m.axisStepY(y, dy, m.h)
		buf = append(buf, m.channel(m.ID(dx, y), dir))
		y = wrap(y+step, m.h)
	}
	return buf
}

// axisStep picks the direction of travel along the X axis.
func (m *Mesh) axisStep(from, to, size int) (step, dir int) {
	if m.torus {
		fwd := wrap(to-from, size)
		if fwd <= size-fwd {
			return 1, dirXPlus
		}
		return -1, dirXMinus
	}
	if to > from {
		return 1, dirXPlus
	}
	return -1, dirXMinus
}

func (m *Mesh) axisStepY(from, to, size int) (step, dir int) {
	if m.torus {
		fwd := wrap(to-from, size)
		if fwd <= size-fwd {
			return 1, dirYPlus
		}
		return -1, dirYMinus
	}
	if to > from {
		return 1, dirYPlus
	}
	return -1, dirYMinus
}

func wrap(v, size int) int {
	v %= size
	if v < 0 {
		v += size
	}
	return v
}

// Hops implements topo.Topology.
func (m *Mesh) Hops(src, dst int) int {
	sx, sy := m.Coord(src)
	dx, dy := m.Coord(dst)
	return m.axisDist(sx, dx, m.w) + m.axisDist(sy, dy, m.h)
}

// Diameter implements topo.DiameterHinter: opposite corners on a
// mesh, half the ring length per axis on a torus.
func (m *Mesh) Diameter() int {
	if m.torus {
		return m.w/2 + m.h/2
	}
	return (m.w - 1) + (m.h - 1)
}

func (m *Mesh) axisDist(a, b, size int) int {
	d := a - b
	if d < 0 {
		d = -d
	}
	if m.torus && size-d < d {
		d = size - d
	}
	return d
}

// String implements fmt.Stringer.
func (m *Mesh) String() string {
	return fmt.Sprintf("%s (%d nodes)", m.Name(), m.Nodes())
}
