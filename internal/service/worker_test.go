package service

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"unsched/internal/hypercube"
	"unsched/internal/ipsc"
	"unsched/internal/sched"
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

// TestWorkerReusesRequestState pins the per-request state a worker
// keeps: its schedule generator is reseeded to exactly the stream a
// fresh rand.NewSource(seed) starts, a workload matrix up to
// maxCachedMachineNodes is reused across requests while a larger one
// is built per request, and a panicking task drops all of it together
// with the machines and cores.
func TestWorkerReusesRequestState(t *testing.T) {
	w := &worker{
		machines: make(map[machineKey]*ipsc.Machine),
		cores:    make(map[string]*sched.Core),
		tables:   newTableCache(),
	}
	for _, seed := range []int64{7, 7, -3} {
		got, want := w.schedRNG(seed), rand.New(rand.NewSource(seed))
		for i := 0; i < 20; i++ {
			if g, x := got.Int63(), want.Int63(); g != x {
				t.Fatalf("seed %d draw %d: worker generator %d, fresh %d", seed, i, g, x)
			}
		}
	}

	small, err := w.workloadMatrix(16)
	if err != nil {
		t.Fatal(err)
	}
	if again, _ := w.workloadMatrix(16); again != small {
		t.Error("a second 16-node workload job did not reuse the worker's matrix")
	}
	if other, _ := w.workloadMatrix(32); other == small || other.N() != 32 {
		t.Error("a 32-node workload job got the 16-node matrix")
	}
	big, err := w.workloadMatrix(maxCachedMachineNodes + 1)
	if err != nil {
		t.Fatal(err)
	}
	if big == w.matrix {
		t.Errorf("the worker kept a %d-node matrix, past maxCachedMachineNodes", big.N())
	}

	w.patRNG = rand.New(rand.NewSource(1))
	boom := &task{run: func(*worker) { panic("boom") }, done: make(chan struct{})}
	runOne(w, boom)
	if boom.panicked == nil {
		t.Fatal("panic was not captured on the task")
	}
	if w.rng != nil || w.patRNG != nil || w.matrix != nil {
		t.Error("a panicking task left the worker's generators or matrix in place")
	}
}
