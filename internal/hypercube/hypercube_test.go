package hypercube

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"
	"testing/quick"
)

func TestNewValidDimensions(t *testing.T) {
	for dim := 0; dim <= 10; dim++ {
		c, err := New(dim)
		if err != nil {
			t.Fatalf("New(%d): %v", dim, err)
		}
		if c.Dim() != dim {
			t.Errorf("Dim() = %d, want %d", c.Dim(), dim)
		}
		if c.Nodes() != 1<<uint(dim) {
			t.Errorf("Nodes() = %d, want %d", c.Nodes(), 1<<uint(dim))
		}
	}
}

func TestNewInvalidDimensions(t *testing.T) {
	for _, dim := range []int{-1, -5, 31, 64} {
		if _, err := New(dim); err == nil {
			t.Errorf("New(%d): want error, got nil", dim)
		}
	}
}

func TestForNodes(t *testing.T) {
	cases := []struct {
		n    int
		dim  int
		fail bool
	}{
		{1, 0, false},
		{2, 1, false},
		{64, 6, false},
		{1024, 10, false},
		{0, 0, true},
		{-4, 0, true},
		{3, 0, true},
		{63, 0, true},
		{65, 0, true},
	}
	for _, tc := range cases {
		c, err := ForNodes(tc.n)
		if tc.fail {
			if err == nil {
				t.Errorf("ForNodes(%d): want error", tc.n)
			}
			continue
		}
		if err != nil {
			t.Errorf("ForNodes(%d): %v", tc.n, err)
			continue
		}
		if c.Dim() != tc.dim {
			t.Errorf("ForNodes(%d).Dim() = %d, want %d", tc.n, c.Dim(), tc.dim)
		}
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew(-1) did not panic")
		}
	}()
	MustNew(-1)
}

func TestDistance(t *testing.T) {
	if Distance(0, 0) != 0 {
		t.Error("Distance(0,0) != 0")
	}
	if Distance(0, 63) != 6 {
		t.Error("Distance(0,63) != 6")
	}
	if Distance(0b1010, 0b0101) != 4 {
		t.Error("Distance(1010,0101) != 4")
	}
}

// oneHop returns the single channel id of the route from node across
// dimension d.
func oneHop(t *testing.T, c *Cube, node, d int) int {
	t.Helper()
	ids := c.RouteIDs(node, node^(1<<uint(d)), nil)
	if len(ids) != 1 {
		t.Fatalf("route %d->%d has %d hops, want 1", node, node^(1<<uint(d)), len(ids))
	}
	return ids[0]
}

// Channel ids are dense and unique: every directed channel of the cube
// is the one-hop route of exactly one (node, dimension) pair, and the
// two directions of a link are distinct channels 2*link and 2*link+1
// of one link index, whichever endpoint the route starts from.
func TestLinkIndexDenseAndUnique(t *testing.T) {
	for dim := 0; dim <= 7; dim++ {
		c := MustNew(dim)
		seen := make(map[int][2]int)
		for node := 0; node < c.Nodes(); node++ {
			for d := 0; d < c.Dim(); d++ {
				id := oneHop(t, c, node, d)
				if id < 0 || id >= c.NumChannels() {
					t.Fatalf("dim %d: route %d across %d: channel %d out of [0,%d)", dim, node, d, id, c.NumChannels())
				}
				if prev, dup := seen[id]; dup {
					t.Fatalf("dim %d: channel %d used by %v and %v", dim, id, prev, [2]int{node, d})
				}
				seen[id] = [2]int{node, d}
				back := oneHop(t, c, node^(1<<uint(d)), d)
				if back>>1 != id>>1 || back == id {
					t.Fatalf("dim %d: %d<->%d directions are channels %d and %d, want one link's two", dim, node, node^(1<<uint(d)), id, back)
				}
			}
		}
		if len(seen) != c.NumChannels() {
			t.Fatalf("dim %d: enumerated %d channels, NumChannels() = %d", dim, len(seen), c.NumChannels())
		}
	}
}

// The link between nodes 4 and 5 crosses dimension 0 and is link 2 of
// that dimension (4 with bit 0 deleted); either direction names the
// same link, 4->5 as its up channel and 5->4 as its down channel.
func TestLinkBetween(t *testing.T) {
	c := MustNew(6)
	if up := oneHop(t, c, 4, 0); up != 2*2+1 {
		t.Errorf("route 4->5 is channel %d, want 5", up)
	}
	if down := oneHop(t, c, 5, 0); down != 2*2 {
		t.Errorf("route 5->4 is channel %d, want 4", down)
	}
}

// routeNodes decodes the node sequence of the route src->dst from its
// channel ids, using the documented numbering: channel id crosses
// dimension id/2/2^(dim-1).
func routeNodes(c *Cube, src, dst int) (nodes, dims []int) {
	nodes = []int{src}
	for _, id := range c.RouteIDs(src, dst, nil) {
		d := (id / 2) / (c.Nodes() / 2)
		dims = append(dims, d)
		nodes = append(nodes, nodes[len(nodes)-1]^(1<<uint(d)))
	}
	return nodes, dims
}

func TestRouteBasics(t *testing.T) {
	c := MustNew(6)
	// Empty route for src == dst.
	if r := c.RouteIDs(17, 17, nil); len(r) != 0 {
		t.Errorf("RouteIDs(17,17) has %d channels, want 0", len(r))
	}
	// One-hop route: the up channel of link 0 (0--1, dimension 0).
	if r := c.RouteIDs(0, 1, nil); len(r) != 1 || r[0] != 1 {
		t.Errorf("RouteIDs(0,1) = %v, want [1]", r)
	}
	// Reverse direction uses the down channel of the same wire.
	if r := c.RouteIDs(1, 0, nil); len(r) != 1 || r[0] != 0 {
		t.Errorf("RouteIDs(1,0) = %v, want [0]", r)
	}
	// e-cube fixes LSB first: 0 -> 6 (binary 110) goes 0 -> 2 -> 6,
	// up link 32 (0--2) then up link 66 (2--6).
	if r := c.RouteIDs(0, 6, nil); len(r) != 2 || r[0] != 65 || r[1] != 133 {
		t.Errorf("RouteIDs(0,6) = %v, want [65 133]", r)
	}
	nodes, _ := routeNodes(c, 0, 6)
	want := []int{0, 2, 6}
	if len(nodes) != len(want) {
		t.Fatalf("route 0->6 visits %v, want %v", nodes, want)
	}
	for i := range want {
		if nodes[i] != want[i] {
			t.Fatalf("route 0->6 visits %v, want %v", nodes, want)
		}
	}
}

// Property: route length equals Hamming distance for all pairs.
func TestRouteLengthEqualsHamming(t *testing.T) {
	c := MustNew(6)
	for src := 0; src < c.Nodes(); src++ {
		for dst := 0; dst < c.Nodes(); dst++ {
			r := c.RouteIDs(src, dst, nil)
			if len(r) != Distance(src, dst) || len(r) != c.Hops(src, dst) {
				t.Fatalf("route %d->%d has %d channels, Hamming %d", src, dst, len(r), Distance(src, dst))
			}
		}
	}
}

// Property: e-cube route fixes bits in strictly increasing dimension order.
func TestRouteDimensionOrder(t *testing.T) {
	c := MustNew(8)
	f := func(a, b uint16) bool {
		_, dims := routeNodes(c, int(a)%c.Nodes(), int(b)%c.Nodes())
		for i := 1; i < len(dims); i++ {
			if dims[i] <= dims[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: the route actually connects src to dst (each channel
// leaves the node the previous one entered, ending at dst).
func TestRouteConnects(t *testing.T) {
	c := MustNew(8)
	f := func(a, b uint16) bool {
		src := int(a) % c.Nodes()
		dst := int(b) % c.Nodes()
		nodes, _ := routeNodes(c, src, dst)
		if nodes[0] != src || nodes[len(nodes)-1] != dst {
			return false
		}
		for i, id := range c.RouteIDs(src, dst, nil) {
			// The hop's channel is the one-hop route between its ends.
			if one := c.RouteIDs(nodes[i], nodes[i+1], nil); len(one) != 1 || one[0] != id {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRoutePanicsOutsideCube(t *testing.T) {
	c := MustNew(3)
	defer func() {
		if recover() == nil {
			t.Fatal("RouteIDs outside cube did not panic")
		}
	}()
	c.RouteIDs(0, 9, nil)
}

// routesDisjoint reports whether the e-cube routes a1->b1 and a2->b2
// share no directed channel.
func routesDisjoint(c *Cube, a1, b1, a2, b2 int) bool {
	for _, x := range c.RouteIDs(a1, b1, nil) {
		for _, y := range c.RouteIDs(a2, b2, nil) {
			if x == y {
				return false
			}
		}
	}
	return true
}

func TestRoutesDisjoint(t *testing.T) {
	c := MustNew(6)
	// Same source bit-0 link shared: 0->1 and 0->3 (0->1->3) share link 0--1.
	if routesDisjoint(c, 0, 1, 0, 3) {
		t.Error("routes 0->1 and 0->3 should share link 0--1")
	}
	// Parallel edges in different subcubes are disjoint.
	if !routesDisjoint(c, 0, 1, 2, 3) {
		t.Error("routes 0->1 and 2->3 should be disjoint")
	}
	// The two directions of one wire are independent channels.
	if !routesDisjoint(c, 0, 1, 1, 0) {
		t.Error("routes 0->1 and 1->0 should be disjoint")
	}
}

func TestStringers(t *testing.T) {
	c := MustNew(6)
	if c.String() != "hypercube(dim=6, nodes=64)" {
		t.Errorf("Cube.String() = %q", c.String())
	}
}

// routesDigest is the SHA-256 of every RouteIDs route of the cubes of
// dimension 0 through 8, each route written as its length and ids in
// little-endian uint32s, in (dim, src, dst) order. It pins the channel
// numbering that route tables, occupancy bitsets and every simulated
// schedule depend on.
const routesDigest = "7e2b0b411f46d4e42c3e3d42c69f1e081bc32fa169c1d11ce6963bc76d11e072"

func TestRouteIDsNumberingPinned(t *testing.T) {
	h := sha256.New()
	var buf []int
	var word [4]byte
	put := func(v int) {
		binary.LittleEndian.PutUint32(word[:], uint32(v))
		h.Write(word[:])
	}
	for dim := 0; dim <= 8; dim++ {
		c := MustNew(dim)
		for src := 0; src < c.Nodes(); src++ {
			for dst := 0; dst < c.Nodes(); dst++ {
				buf = c.RouteIDs(src, dst, buf[:0])
				put(len(buf))
				for _, id := range buf {
					put(id)
				}
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != routesDigest {
		t.Fatalf("route digest %s, want %s: the channel numbering changed", got, routesDigest)
	}
}
