package service

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"

	"unsched/internal/comm"
	"unsched/internal/costmodel"
	"unsched/internal/ipsc"
	"unsched/internal/sched"
	"unsched/internal/topo"
)

// errBusy is returned by submit when the queue is full; handlers
// translate it into 429 so load sheds at the door instead of piling
// into unbounded goroutines.
var errBusy = errors.New("service: queue full")

// errClosed is returned by submit after Close.
var errClosed = errors.New("service: shutting down")

// task is one unit of synchronous work. The worker calls run with its
// private simulator state and closes done; the submitting handler
// waits on done and reads whatever run stored. Workers never touch the
// HTTP layer, so an abandoned request (client gone) finishes harmlessly.
type task struct {
	run  func(w *worker)
	done chan struct{}
	// panicked carries a panic recovered while running the task; the
	// submitting handler surfaces it as a 500. Written before done is
	// closed, read only after.
	panicked error
}

// worker owns the reusable per-goroutine simulation and scheduling
// state: one simulator machine per (topology, params) pair and one
// scheduler core per topology it has served, reset and reused across
// requests so the hot path — repeated workloads on the default
// machine — allocates nothing per run beyond program compilation and
// the schedule itself. Cores hold mutable scratch and are private to
// the worker; the route tables they walk are immutable and shared
// daemon-wide through the pool's tableCache, so the O(n^2 * diameter)
// precompute happens once per topology per daemon, not once per
// worker.
//
// A job also reuses the worker's two generators, reseeded per request
// (a schedule's stream, a workload's pattern stream), and the matrix a
// workload job builds into. Each generator is one ~5 KB math/rand
// source; the matrix is n^2 int64 entries (32 KiB at 64 nodes, 8 MiB at
// maxCachedMachineNodes), and a larger one is built per request.
type worker struct {
	machines map[machineKey]*ipsc.Machine
	cores    map[string]*sched.Core
	tables   *tableCache

	rng, patRNG *rand.Rand
	matrix      *comm.Matrix
}

// tableCache shares precomputed route tables daemon-wide: across all
// workers of the pool and across campaign runners. Tables are
// immutable after construction, so publishing one pointer serves
// every goroutine. Each entry is built once, outside the map lock:
// concurrent cold misses on one topology share a single n^2-route
// precompute, and a cold build (~0.3 s for a 32x32 mesh) stalls no
// other topology's requests.
type tableCache struct {
	mu     sync.Mutex
	tables map[string]*tableEntry
}

// tableEntry is one topology's slot in the cache; once guards the
// build of rt.
type tableEntry struct {
	once sync.Once
	rt   *topo.RouteTable
}

func newTableCache() *tableCache {
	return &tableCache{tables: make(map[string]*tableEntry)}
}

// maxSharedTables bounds daemon-wide retained route tables. A dense
// table stores 4 bytes per hop plus 4 per route: 25.2 MB for the
// dim-10 cube, 93.6 MB for the 32x32 mesh. topo.NewRouteTable keeps a
// table dense only while its estimated hops fit a 2^26-hop budget
// (~268 MB), and a lazy table stores no hops at all, so eight retained
// tables stay bounded even under an adversarial topology mix — and
// unlike the per-worker caches, this bound does not multiply by worker
// count.
const maxSharedTables = 8

// get returns the daemon-shared route table for net, building it on
// first use. topo.NewRouteTable picks the representation: dense
// (precomputed CSR routes, each stored once) when the hop footprint
// fits its budget, lazy (routes generated on the fly, nothing stored)
// when it would not — which is what lets the service admit
// high-diameter shapes like a 64x64 torus that the old footprint gate
// answered 400. An entry evicted mid-build still hands its table
// to the callers that reached it.
func (tc *tableCache) get(net topo.Topology) *topo.RouteTable {
	tc.mu.Lock()
	e, ok := tc.tables[net.Name()]
	if !ok {
		if len(tc.tables) >= maxSharedTables {
			for k := range tc.tables {
				delete(tc.tables, k)
				break
			}
		}
		e = &tableEntry{}
		tc.tables[net.Name()] = e
	}
	tc.mu.Unlock()
	e.once.Do(func() { e.rt = topo.NewRouteTable(net) })
	return e.rt
}

type machineKey struct {
	topoName string
	params   string
}

// maxMachinesPerWorker bounds the per-worker machine cache; requests
// name topologies freely, so an adversarial mix could otherwise grow
// it without limit. Machine state is O(n^2) — ~5 MiB at 1024 nodes —
// so 4 machines bounds a worker's retained simulator memory under
// ~25 MiB even under a worst-case topology mix; real deployments hit
// one or two topologies and never evict.
const maxMachinesPerWorker = 4

// maxCachedMachineNodes bounds the machines (and scheduler cores) a
// worker retains across requests. A 4096-node machine's O(n^2) arrival
// arenas run ~80 MiB; caching even one per worker would dwarf every
// other bound, so machines above this size are built per request and
// released with it. The requests that need them are rare and already
// pay seconds of scheduling, so the rebuild is noise.
const maxCachedMachineNodes = 1 << maxCampaignDim

// machine returns the worker's reusable machine for (net, params),
// building and caching it on first use. Machines are built over the
// daemon-shared route table, whose mode decides how their channel
// occupancy walks each route.
func (w *worker) machine(net topo.Topology, paramsName string, params costmodel.Params) (*ipsc.Machine, error) {
	if net.Nodes() > maxCachedMachineNodes {
		return ipsc.NewMachine(w.tables.get(net), params)
	}
	key := machineKey{topoName: net.Name(), params: paramsName}
	if m, ok := w.machines[key]; ok {
		return m, nil
	}
	// Evict one arbitrary entry rather than the whole map: a cycling
	// topology mix then rebuilds one machine per request, not all of
	// them.
	if len(w.machines) >= maxMachinesPerWorker {
		for k := range w.machines {
			delete(w.machines, k)
			break
		}
	}
	m, err := ipsc.NewMachine(w.tables.get(net), params)
	if err != nil {
		return nil, err
	}
	w.machines[key] = m
	return m, nil
}

// schedCore returns the worker's reusable scheduler core for net,
// building it over the daemon-shared route table on first use. The
// same eviction bound as the machine cache applies to the per-worker
// core scratch; the heavyweight tables live in the shared cache.
func (w *worker) schedCore(net topo.Topology) *sched.Core {
	if net.Nodes() > maxCachedMachineNodes {
		return sched.NewCoreForTable(w.tables.get(net))
	}
	if c, ok := w.cores[net.Name()]; ok {
		return c
	}
	if len(w.cores) >= maxMachinesPerWorker {
		for k := range w.cores {
			delete(w.cores, k)
			break
		}
	}
	c := sched.NewCoreForTable(w.tables.get(net))
	w.cores[net.Name()] = c
	return c
}

// schedRNG returns the worker's schedule generator reseeded to seed,
// the stream rand.New(rand.NewSource(seed)) would start.
func (w *worker) schedRNG(seed int64) *rand.Rand {
	if w.rng == nil {
		w.rng = rand.New(rand.NewSource(seed))
	} else {
		w.rng.Seed(seed)
	}
	return w.rng
}

// workloadMatrix returns an n-node matrix for a workload job to build
// into: the worker's own, kept across requests, when n is at most
// maxCachedMachineNodes, else a fresh one released with the request.
func (w *worker) workloadMatrix(n int) (*comm.Matrix, error) {
	if n > maxCachedMachineNodes {
		return comm.New(n)
	}
	if w.matrix == nil || w.matrix.N() != n {
		m, err := comm.New(n)
		if err != nil {
			return nil, err
		}
		w.matrix = m
	}
	return w.matrix, nil
}

// pool runs tasks on a fixed set of workers fed by a bounded queue.
type pool struct {
	mu     sync.Mutex
	closed bool
	queue  chan *task
	wg     sync.WaitGroup
	depth  atomic.Int64
}

// newPool starts workers goroutines behind a queue of queueLen slots.
// The route-table cache is passed in because it outlives the pool's
// concerns: the server shares it with campaign runners too.
func newPool(workers, queueLen int, shared *tableCache) *pool {
	p := &pool{queue: make(chan *task, queueLen)}
	for i := 0; i < workers; i++ {
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			w := &worker{
				machines: make(map[machineKey]*ipsc.Machine),
				cores:    make(map[string]*sched.Core),
				tables:   shared,
			}
			for t := range p.queue {
				p.depth.Add(-1)
				runOne(w, t)
			}
		}()
	}
	return p
}

// runOne executes one task, containing any panic to that task: the
// worker survives, done is always closed (so single-flight followers
// are never stranded), and the panic surfaces to the one request that
// triggered it instead of killing the daemon. The machines, cores,
// generators and matrix are dropped because a panic may have left
// cached state mid-run.
func runOne(w *worker, t *task) {
	defer close(t.done)
	defer func() {
		if r := recover(); r != nil {
			t.panicked = fmt.Errorf("service: panic serving request: %v", r)
			w.machines = make(map[machineKey]*ipsc.Machine)
			w.cores = make(map[string]*sched.Core)
			w.rng, w.patRNG, w.matrix = nil, nil, nil
		}
	}()
	t.run(w)
}

// submit enqueues t without blocking. A full queue returns errBusy —
// the backpressure signal — and a closed pool returns errClosed.
func (p *pool) submit(t *task) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return errClosed
	}
	select {
	case p.queue <- t:
		p.depth.Add(1)
		return nil
	default:
		return errBusy
	}
}

// close drains the queue and stops the workers; queued tasks still
// run, new submissions fail with errClosed.
func (p *pool) close() {
	p.mu.Lock()
	if !p.closed {
		p.closed = true
		close(p.queue)
	}
	p.mu.Unlock()
	p.wg.Wait()
}
