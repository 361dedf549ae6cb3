package mesh

import (
	"testing"
	"testing/quick"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(0, 4, false); err == nil {
		t.Error("0-width accepted")
	}
	if _, err := New(1, 1, false); err == nil {
		t.Error("single node accepted")
	}
	if _, err := New(2, 2, true); err == nil {
		t.Error("2x2 torus accepted")
	}
	// 256 * (2^56+1) wraps to 256 in int arithmetic.
	if m, err := New(256, 1<<56+1, false); err == nil {
		t.Errorf("overflowing extent accepted as %d nodes", m.Nodes())
	}
	if _, err := New(4097, 1, false); err == nil {
		t.Error("4097-node mesh accepted")
	}
	if m, err := New(64, 64, true); err != nil || m.Nodes() != 4096 {
		t.Errorf("64x64 torus: %v", err)
	}
	m, err := New(8, 4, false)
	if err != nil {
		t.Fatal(err)
	}
	if m.Nodes() != 32 || m.Width() != 8 || m.Height() != 4 {
		t.Errorf("shape: %v", m)
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew(0,0) did not panic")
		}
	}()
	MustNew(0, 0, false)
}

func TestCoordIDRoundTrip(t *testing.T) {
	m := MustNew(5, 7, false)
	for id := 0; id < m.Nodes(); id++ {
		x, y := m.Coord(id)
		if m.ID(x, y) != id {
			t.Fatalf("round trip broke at %d", id)
		}
	}
}

func TestNames(t *testing.T) {
	if MustNew(4, 4, false).Name() != "mesh-4x4" {
		t.Error("mesh name")
	}
	if MustNew(4, 4, true).Name() != "torus-4x4" {
		t.Error("torus name")
	}
}

func TestXYRouteShape(t *testing.T) {
	m := MustNew(4, 4, false)
	// (0,0) -> (2,1): two +X hops then one +Y hop.
	route := m.RouteIDs(m.ID(0, 0), m.ID(2, 1), nil)
	want := []int{
		m.channel(m.ID(0, 0), dirXPlus),
		m.channel(m.ID(1, 0), dirXPlus),
		m.channel(m.ID(2, 0), dirYPlus),
	}
	if len(route) != len(want) {
		t.Fatalf("route %v, want %v", route, want)
	}
	for i := range want {
		if route[i] != want[i] {
			t.Fatalf("route %v, want %v", route, want)
		}
	}
}

func TestRouteLengthEqualsHops(t *testing.T) {
	for _, torus := range []bool{false, true} {
		m := MustNew(5, 4, torus)
		for src := 0; src < m.Nodes(); src++ {
			for dst := 0; dst < m.Nodes(); dst++ {
				route := m.RouteIDs(src, dst, nil)
				if len(route) != m.Hops(src, dst) {
					t.Fatalf("torus=%v %d->%d: route %d, hops %d",
						torus, src, dst, len(route), m.Hops(src, dst))
				}
			}
		}
	}
}

func TestTorusTakesShortWay(t *testing.T) {
	m := MustNew(8, 3, true)
	// (0,0) -> (7,0): one -X wraparound hop, not 7 +X hops.
	if got := m.Hops(m.ID(0, 0), m.ID(7, 0)); got != 1 {
		t.Errorf("wraparound hops = %d, want 1", got)
	}
	flat := MustNew(8, 3, false)
	if got := flat.Hops(flat.ID(0, 0), flat.ID(7, 0)); got != 7 {
		t.Errorf("mesh hops = %d, want 7", got)
	}
}

func TestChannelIndicesDenseAndDistinct(t *testing.T) {
	m := MustNew(4, 4, true)
	seen := map[int]bool{}
	for src := 0; src < m.Nodes(); src++ {
		for dst := 0; dst < m.Nodes(); dst++ {
			for _, id := range m.RouteIDs(src, dst, nil) {
				if id < 0 || id >= m.NumChannels() {
					t.Fatalf("channel %d out of range", id)
				}
				seen[id] = true
			}
		}
	}
	if len(seen) == 0 {
		t.Fatal("no channels used")
	}
}

// Property: opposite directions of the same hop use different channels
// (full duplex).
func TestOppositeDirectionsDistinct(t *testing.T) {
	m := MustNew(6, 6, false)
	f := func(aRaw, bRaw uint8) bool {
		a := int(aRaw) % m.Nodes()
		b := int(bRaw) % m.Nodes()
		if a == b {
			return true
		}
		fwd := m.RouteIDs(a, b, nil)
		rev := m.RouteIDs(b, a, nil)
		for _, f := range fwd {
			for _, r := range rev {
				if f == r {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRoutePanicsOutOfRange(t *testing.T) {
	m := MustNew(4, 4, false)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range route did not panic")
		}
	}()
	m.RouteIDs(0, 99, nil)
}
