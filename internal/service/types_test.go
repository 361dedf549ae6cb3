package service

import (
	"errors"
	"net/http"
	"strings"
	"testing"

	"unsched/internal/comm"
)

// TestResolveMatrixAppliesFromTriples: past the service's own node
// bounds, a request matrix is admitted exactly when comm.FromTriples
// builds it, and a rejection is a 400.
func TestResolveMatrixAppliesFromTriples(t *testing.T) {
	for _, mj := range []*WireMatrix{
		{N: 4, Messages: WireTriples{{3, 0, 8}, {0, 1, 10}, {1, 3, 2}}},
		{N: 2, Messages: WireTriples{}},
		{N: 4, Messages: WireTriples{{0, 4, 10}}},
		{N: 4, Messages: WireTriples{{1, 1, 10}}},
		{N: 4, Messages: WireTriples{{0, 1, 0}}},
		{N: 4, Messages: WireTriples{{0, 1, 10}, {0, 1, 10}}},
		{N: 2, Messages: WireTriples{{0, 1, 1}, {1, 0, 1}, {1, 0, 2}}},
	} {
		want, wantErr := comm.FromTriples(mj.N, mj.Messages)
		got, err := resolveMatrix(mj)
		if (err == nil) != (wantErr == nil) {
			t.Errorf("%v: resolveMatrix error %v, comm.FromTriples error %v", mj, err, wantErr)
			continue
		}
		var ae *apiError
		if err != nil && (!errors.As(err, &ae) || ae.status != http.StatusBadRequest) {
			t.Errorf("%v: rejected with %v, want a 400", mj, err)
		}
		if err == nil && !got.Equal(want) {
			t.Errorf("%v: resolveMatrix built another matrix than comm.FromTriples", mj)
		}
	}
}

// TestStructuredTopologyIsSpec: a structured topology is the topo.Spec
// it names, with only kind cube, a cube's dim and a ring's n filled in
// from the request's node count. It builds what its spec string
// builds, and topo's rules reject it where they reject the spec.
func TestStructuredTopologyIsSpec(t *testing.T) {
	path := WireTopology{Kind: "graph", N: 4, Edges: [][2]int{{2, 3}, {0, 1}, {1, 2}}}
	for _, c := range []struct {
		tj   *WireTopology
		n    int
		spec string // its spec string; "" where no spec names it
		ok   bool
	}{
		{nil, 8, "cube:3", true},
		{&WireTopology{}, 16, "cube:4", true},
		{&WireTopology{Kind: "cube"}, 8, "cube:3", true},
		{&WireTopology{Dim: 3}, 0, "cube:3", true},
		{&WireTopology{Kind: "ring"}, 8, "ring:8", true},
		{&WireTopology{Kind: "ring", N: 8}, 0, "ring:8", true},
		{&WireTopology{Kind: "mesh", W: 4, H: 2}, 8, "mesh:4x2", true},
		{&WireTopology{Kind: "torus", W: 3, H: 3}, 0, "torus:3x3", true},
		{&path, 4, "graph:4:0-1,1-2,2-3", true},
		// Each rule is topo's, bar the node-count match and the dim a
		// cube needs when nothing implies it.
		{&WireTopology{Kind: "cube", Dim: -1}, 8, "cube:-1", false},
		{&WireTopology{Kind: "cube", Dim: 31}, 0, "cube:31", false},
		{&WireTopology{Kind: "cube"}, 0, "", false},
		{nil, 6, "", false},
		{&WireTopology{Kind: "mesh"}, 8, "mesh:0x0", false},
		{&WireTopology{Kind: "torus", W: 2, H: 4}, 8, "torus:2x4", false},
		{&WireTopology{Kind: "ring", N: 2}, 0, "ring:2", false},
		{&WireTopology{Kind: "ring", N: -8}, 8, "ring:-8", false},
		{&WireTopology{Kind: "graph", N: 4}, 4, "graph:4:", false},
		{&WireTopology{Kind: "graph", N: 4, Edges: [][2]int{{0, 1}, {2, 3}}}, 4, "graph:4:0-1,2-3", false},
		{&WireTopology{Kind: "graph", Edges: [][2]int{{0, 1}}}, 2, "", false},
		{&WireTopology{Kind: "hex", N: 8}, 8, "hex:8", false},
		{&WireTopology{Kind: "hypercube", Dim: 3}, 8, "", false},
		{&WireTopology{Kind: "mesh", W: 3, H: 3}, 8, "mesh:3x3", false},
		{&WireTopology{Kind: "torus", W: 64, H: 64}, 4096, "torus:64x64", true},
		{&WireTopology{Kind: "torus", W: 65, H: 64}, 0, "torus:65x64", false},
		// 256 * (2^56+1) wraps to 256 in int arithmetic.
		{&WireTopology{Kind: "mesh", W: 256, H: 1<<56 + 1}, 256, "mesh:256x72057594037927937", false},
	} {
		net, err := resolveTopology(c.tj, c.n)
		if (err == nil) != c.ok {
			t.Errorf("%+v n=%d: error %v, want ok=%v", c.tj, c.n, err, c.ok)
			continue
		}
		if c.spec == "" {
			continue
		}
		ref, refErr := resolveTopology(&WireTopology{Spec: c.spec}, c.n)
		switch {
		case (refErr == nil) != c.ok:
			t.Errorf("spec %q n=%d: error %v, want ok=%v", c.spec, c.n, refErr, c.ok)
		case c.ok && net.Name() != ref.Name():
			t.Errorf("%+v n=%d: built %s, spec %q builds %s", c.tj, c.n, net.Name(), c.spec, ref.Name())
		}
	}
}

// TestOverflowingMeshIs400: a mesh whose extent product wraps to the
// request's node count is a bad request, named by spec or structured.
// Both forms were once answered 200 on a 256-node machine.
func TestOverflowingMeshIs400(t *testing.T) {
	svc, _ := newTestServer(t, Options{Workers: 1})
	for _, topology := range []string{
		`{"spec":"mesh:256x72057594037927937"}`,
		`{"kind":"mesh","w":256,"h":72057594037927937}`,
	} {
		body := `{"workload":"uniform:2:64","algorithm":"RS_N","topology":` + topology + `}`
		rec := serve(svc, "/v1/schedule", body)
		if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), `"code":"bad_request"`) {
			t.Errorf("%s: status %d: %s", topology, rec.Code, rec.Body)
		}
	}
}

// TestNegativeCubeDimIs400: a structured cube with a negative dim is a
// bad request. It used to be ignored and the dim taken from the
// matrix.
func TestNegativeCubeDimIs400(t *testing.T) {
	svc, _ := newTestServer(t, Options{Workers: 1})
	body := `{"matrix":{"n":4,"messages":[[0,1,10]]},"topology":{"kind":"cube","dim":-1}}`
	for _, path := range []string{"/v1/schedule", "/v1/simulate"} {
		rec := serve(svc, path, body)
		if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), `"code":"bad_request"`) {
			t.Errorf("%s: status %d: %s", path, rec.Code, rec.Body)
		}
	}
}
