package service

import (
	"sync"
	"testing"
	"time"

	"unsched/internal/hypercube"
	"unsched/internal/topo"
)

// gatedCube is a small cube under its own name whose first RouteIDs
// call blocks until release is closed, holding its route-table build
// open for as long as a test needs.
type gatedCube struct {
	*hypercube.Cube
	gate    sync.Once
	started chan struct{}
	release chan struct{}
}

func (g *gatedCube) Name() string { return "gated-" + g.Cube.Name() }

func (g *gatedCube) RouteIDs(src, dst int, buf []int) []int {
	g.gate.Do(func() {
		close(g.started)
		<-g.release
	})
	return g.Cube.RouteIDs(src, dst, buf)
}

// TestTableCacheColdBuildDoesNotStallOtherTopologies: a cold route
// table build must not hold up requests for any other topology, and
// concurrent cold requests for the building topology must share one
// table. A get that builds under the daemon-wide map lock fails the
// first check: the second topology's get waits out the blocked build.
func TestTableCacheColdBuildDoesNotStallOtherTopologies(t *testing.T) {
	tc := newTableCache()
	slow := &gatedCube{Cube: hypercube.MustNew(3), started: make(chan struct{}), release: make(chan struct{})}
	var releaseOnce sync.Once
	release := func() { releaseOnce.Do(func() { close(slow.release) }) }
	defer release()

	slowTables := make(chan *topo.RouteTable, 2)
	go func() { slowTables <- tc.get(slow) }()
	<-slow.started
	go func() { slowTables <- tc.get(slow) }()

	other := make(chan *topo.RouteTable, 1)
	go func() { other <- tc.get(hypercube.MustNew(4)) }()
	select {
	case rt := <-other:
		if rt.Name() != "hypercube-4" {
			t.Fatalf("get(hypercube-4) returned the table of %s", rt.Name())
		}
	case <-time.After(5 * time.Second):
		t.Fatal("get of another topology blocked behind a cold build")
	}

	release()
	a, b := <-slowTables, <-slowTables
	if a != b {
		t.Fatal("concurrent cold gets of one topology built two tables")
	}
	if a.Name() != slow.Name() || a.Lazy() {
		t.Fatalf("gated table is %s (lazy %v), want a dense %s", a.Name(), a.Lazy(), slow.Name())
	}
	if tc.get(slow) != a {
		t.Fatal("a warm get rebuilt the table")
	}
}
