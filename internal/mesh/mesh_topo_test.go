package mesh_test

import (
	"testing"

	"unsched/internal/mesh"
	"unsched/internal/topo"
)

// Compile-time interface check. This lives in an external test
// package because topo now imports mesh (for Spec.Build), so an
// in-package test importing topo would be a cycle.
var _ topo.Topology = (*mesh.Mesh)(nil)

func TestOccupancyOverMesh(t *testing.T) {
	m := mesh.MustNew(4, 4, false)
	occ := topo.NewOccupancy(m)
	if occ.Claim(0, 3) >= 0 { // +X +X +X along row 0
		t.Fatal("fresh table should be free")
	}
	if ch, want := occ.Claim(0, 1), m.RouteIDs(0, 1, nil)[0]; ch != want {
		t.Errorf("claim of 0->1 blocked on channel %d, want the claimed first +X channel %d", ch, want)
	}
	if occ.Claim(1, 0) >= 0 {
		t.Error("reverse channel should be free")
	}
	if occ.Claim(4, 7) >= 0 {
		t.Error("row 1 should be free")
	}
	occ.Release(1, 0, nil)
	occ.Release(4, 7, nil)
	if got := occ.ClaimedCount(); got != 3 {
		t.Errorf("ClaimedCount = %d", got)
	}
	occ.Reset()
	if occ.Claim(0, 1) >= 0 {
		t.Error("reset should clear claims")
	}
}
