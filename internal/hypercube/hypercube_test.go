package hypercube

import (
	"math/bits"
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

func TestNeighbor(t *testing.T) {
	c := MustNew(6)
	if got := c.Neighbor(0, 0); got != 1 {
		t.Errorf("Neighbor(0,0) = %d, want 1", got)
	}
	if got := c.Neighbor(5, 2); got != 1 {
		t.Errorf("Neighbor(5,2) = %d, want 1", got)
	}
	// Involution: neighbor of neighbor is self.
	for node := 0; node < c.Nodes(); node++ {
		for d := 0; d < c.Dim(); d++ {
			if got := c.Neighbor(c.Neighbor(node, d), d); got != node {
				t.Fatalf("Neighbor involution broken at node %d dim %d", node, d)
			}
		}
	}
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

func TestLinkBetween(t *testing.T) {
	l := LinkBetween(4, 5)
	if l.Lo != 4 || l.Dim != 0 {
		t.Errorf("LinkBetween(4,5) = %+v, want {4,0}", l)
	}
	// Order-independent.
	if LinkBetween(5, 4) != l {
		t.Error("LinkBetween not symmetric")
	}
}

func TestLinkBetweenPanicsOnNonAdjacent(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("LinkBetween(0,3) did not panic")
		}
	}()
	LinkBetween(0, 3)
}

func TestLinkIndexDenseAndUnique(t *testing.T) {
	for dim := 1; dim <= 7; dim++ {
		c := MustNew(dim)
		seen := make(map[int]Link)
		count := 0
		for node := 0; node < c.Nodes(); node++ {
			for d := 0; d < c.Dim(); d++ {
				nb := c.Neighbor(node, d)
				if nb < node {
					continue // count each undirected link once
				}
				l := LinkBetween(node, nb)
				idx := c.LinkIndex(l)
				if idx < 0 || idx >= c.NumLinks() {
					t.Fatalf("dim %d: LinkIndex(%v) = %d out of [0,%d)", dim, l, idx, c.NumLinks())
				}
				if prev, dup := seen[idx]; dup {
					t.Fatalf("dim %d: LinkIndex collision: %v and %v both map to %d", dim, prev, l, idx)
				}
				seen[idx] = l
				count++
			}
		}
		if count != c.NumLinks() {
			t.Fatalf("dim %d: enumerated %d links, NumLinks() = %d", dim, count, c.NumLinks())
		}
	}
}

func TestRouteBasics(t *testing.T) {
	c := MustNew(6)
	// Empty route for src == dst.
	if r := c.Route(17, 17, nil); len(r) != 0 {
		t.Errorf("Route(17,17) has %d links, want 0", len(r))
	}
	// One-hop route.
	r := c.Route(0, 1, nil)
	if len(r) != 1 || r[0] != (Channel{Link: Link{Lo: 0, Dim: 0}, Up: true}) {
		t.Errorf("Route(0,1) = %v", r)
	}
	// Reverse direction uses the down channel of the same wire.
	r = c.Route(1, 0, nil)
	if len(r) != 1 || r[0] != (Channel{Link: Link{Lo: 0, Dim: 0}, Up: false}) {
		t.Errorf("Route(1,0) = %v", r)
	}
	// e-cube fixes LSB first: 0 -> 6 (binary 110) goes 0 -> 2 -> 6.
	nodes := c.RouteNodes(0, 6)
	want := []int{0, 2, 6}
	if len(nodes) != len(want) {
		t.Fatalf("RouteNodes(0,6) = %v, want %v", nodes, want)
	}
	for i := range want {
		if nodes[i] != want[i] {
			t.Fatalf("RouteNodes(0,6) = %v, want %v", nodes, want)
		}
	}
}

// Property: route length equals Hamming distance for all pairs.
func TestRouteLengthEqualsHamming(t *testing.T) {
	c := MustNew(6)
	for src := 0; src < c.Nodes(); src++ {
		for dst := 0; dst < c.Nodes(); dst++ {
			r := c.Route(src, dst, nil)
			if len(r) != Distance(src, dst) {
				t.Fatalf("route %d->%d has %d links, Hamming %d", src, dst, len(r), Distance(src, dst))
			}
		}
	}
}

// Property: e-cube route fixes bits in strictly increasing dimension order.
func TestRouteDimensionOrder(t *testing.T) {
	c := MustNew(8)
	f := func(a, b uint16) bool {
		src := int(a) % c.Nodes()
		dst := int(b) % c.Nodes()
		r := c.Route(src, dst, nil)
		for i := 1; i < len(r); i++ {
			if r[i].Link.Dim <= r[i-1].Link.Dim {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: the route actually connects src to dst (each link adjacent
// to the previous node, ending at dst).
func TestRouteConnects(t *testing.T) {
	c := MustNew(8)
	f := func(a, b uint16) bool {
		src := int(a) % c.Nodes()
		dst := int(b) % c.Nodes()
		nodes := c.RouteNodes(src, dst)
		if nodes[0] != src || nodes[len(nodes)-1] != dst {
			return false
		}
		for i := 1; i < len(nodes); i++ {
			if Distance(nodes[i-1], nodes[i]) != 1 {
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
			t.Fatal("Route outside cube did not panic")
		}
	}()
	c.Route(0, 9, nil)
}

func TestRoutesDisjoint(t *testing.T) {
	c := MustNew(6)
	// Same source bit-0 link shared: 0->1 and 0->3 (0->1->3) share link 0--1.
	if c.RoutesDisjoint(0, 1, 0, 3) {
		t.Error("routes 0->1 and 0->3 should share link 0--1")
	}
	// Parallel edges in different subcubes are disjoint.
	if !c.RoutesDisjoint(0, 1, 2, 3) {
		t.Error("routes 0->1 and 2->3 should be disjoint")
	}
}

func TestGrayCode(t *testing.T) {
	// Consecutive Gray codes differ by one bit.
	for i := 1; i < 1024; i++ {
		if bits.OnesCount(uint(GrayCode(i)^GrayCode(i-1))) != 1 {
			t.Fatalf("Gray codes %d and %d differ in != 1 bit", i-1, i)
		}
	}
	// Inverse property.
	for i := 0; i < 1024; i++ {
		if InverseGray(GrayCode(i)) != i {
			t.Fatalf("InverseGray(GrayCode(%d)) != %d", i, i)
		}
	}
}

func TestXORPairsIsPerfectMatching(t *testing.T) {
	c := MustNew(6)
	for k := 1; k < c.Nodes(); k++ {
		pairs := c.XORPairs(k)
		if len(pairs) != c.Nodes()/2 {
			t.Fatalf("k=%d: %d pairs, want %d", k, len(pairs), c.Nodes()/2)
		}
		seen := make(map[int]bool)
		for _, p := range pairs {
			if p[0]^p[1] != k {
				t.Fatalf("k=%d: pair %v does not XOR to k", k, p)
			}
			if seen[p[0]] || seen[p[1]] {
				t.Fatalf("k=%d: node repeated in matching", k)
			}
			seen[p[0]] = true
			seen[p[1]] = true
		}
	}
}

func TestXORPairsInvalidK(t *testing.T) {
	c := MustNew(4)
	if c.XORPairs(0) != nil {
		t.Error("XORPairs(0) should be nil")
	}
	if c.XORPairs(16) != nil {
		t.Error("XORPairs(n) should be nil")
	}
}

func TestRecursiveDoublingSchedule(t *testing.T) {
	c := MustNew(6)
	dims := c.RecursiveDoublingSchedule()
	if len(dims) != 6 {
		t.Fatalf("schedule length %d, want 6", len(dims))
	}
	// Simulate allgather coverage: after round r, each node's set doubles.
	sets := make([]map[int]bool, c.Nodes())
	for i := range sets {
		sets[i] = map[int]bool{i: true}
	}
	for _, d := range dims {
		next := make([]map[int]bool, c.Nodes())
		for i := range next {
			next[i] = make(map[int]bool)
			for k := range sets[i] {
				next[i][k] = true
			}
			for k := range sets[c.Neighbor(i, d)] {
				next[i][k] = true
			}
		}
		sets = next
	}
	for i, s := range sets {
		if len(s) != c.Nodes() {
			t.Fatalf("node %d holds %d pieces after concatenate, want %d", i, len(s), c.Nodes())
		}
	}
}

func TestStringers(t *testing.T) {
	c := MustNew(6)
	if c.String() == "" {
		t.Error("Cube.String empty")
	}
	l := Link{Lo: 4, Dim: 1}
	if l.String() != "link(4--6)" {
		t.Errorf("Link.String() = %q", l.String())
	}
}
