package topo

// RouteTable is the §5 observation made concrete: for a regular
// topology with deterministic routing, every route is a pure function
// of (src, dst), so all n^2 of them can be computed once and shared.
// The table stores the directed-channel indices of every route
// CSR-packed into two flat slices — offsets plus concatenated ids — so
// a route lookup is two array reads and a slice, with no per-call
// route generation and no pointer chasing.
//
// Each route is stored once. Memory is O(n^2 * diameter): one int32
// per route hop plus n^2+1 offsets. On the paper's 64-node hypercube
// that is 12,288 hop entries (65.5 KB); a 1024-node cube needs 25.2 MB
// and a 32x32 mesh 93.6 MB. Precomputation costs one Hops and one
// RouteIDs call per (src, dst) pair, so it pays off as soon as a table
// is reused for more than a handful of schedules — which is exactly
// the shape of campaign and service traffic. Build one table per
// topology and share it: a RouteTable is immutable after construction
// and therefore safe for concurrent readers.
//
// A RouteTable is itself a Topology (delegating Name and, in lazy
// mode, route generation to the topology it wraps), so it can be
// passed anywhere a Topology goes. An Occupancy over a dense table
// claims channels by walking the stored ids instead of generating
// routes.
//
// Two storage modes exist, and NewRouteTable picks between them. The
// dense mode above materializes every route. The lazy mode stores
// nothing and generates routes on the fly through the underlying
// topology — O(1) memory, so machines far past the dense footprint
// (4096-node tori and graphs) stay schedulable at the cost of
// per-route generation.
type RouteTable struct {
	t    Topology
	name string // t.Name(), formatted once
	n    int
	lazy bool
	// dense storage
	offsets []int32 // len n*n+1; route k occupies ids[offsets[k]:offsets[k+1]]
	ids     []int32 // directed-channel indices of all routes, concatenated
}

// DiameterHinter is optionally implemented by topologies that know
// their diameter; NewRouteTable uses it to estimate the dense
// footprint before paying for it.
type DiameterHinter interface {
	Diameter() int
}

// denseHopBudget bounds the footprint of a dense table, in estimated
// int32 hop entries (~268 MB of hops). It admits every cube, mesh and
// torus up to 1024 nodes — the largest estimate is the 32x32 mesh's
// ~33M hops, of which it stores 22.3M — while high-diameter shapes (a
// 1024-node ring would need ~1 GB, a 64x64 mesh ~3 GB) get a lazy
// table instead.
const denseHopBudget = 1 << 26

// NewRouteTable returns the route table of t, deciding its mode from
// the estimated footprint n^2 * (diameter+1)/2 hop entries: dense when
// the estimate fits denseHopBudget, lazy otherwise. Topologies that do
// not hint their diameter are assumed to fit (every built-in one
// hints). Machines whose n^2 routes cannot be indexed by int32 offsets
// are always lazy.
func NewRouteTable(t Topology) *RouteTable {
	n := int64(t.Nodes())
	if n*n >= int64(1)<<31 {
		return NewRouteTableLazy(t)
	}
	var est int64
	if h, ok := t.(DiameterHinter); ok {
		// Average route length is roughly half the diameter on the
		// regular topologies here.
		est = n * n * int64(h.Diameter()+1) / 2
	}
	if est > denseHopBudget {
		return NewRouteTableLazy(t)
	}
	return newDenseTable(t)
}

// NewRouteTableLazy wraps t as a RouteTable that stores no routes:
// every walk generates its route on the fly through t, which costs
// exactly what routing through t directly costs. NewRouteTable returns
// one for machines past the dense budget, and occupancies, scheduler
// cores and simulator machines wrap a plain topology in one.
func NewRouteTableLazy(t Topology) *RouteTable {
	return &RouteTable{t: t, name: t.Name(), n: t.Nodes(), lazy: true}
}

// newDenseTable precomputes every route of t. It counts the hops
// first, so the hop storage is allocated once at its exact size.
func newDenseTable(t Topology) *RouteTable {
	n := t.Nodes()
	hops := 0
	for src := 0; src < n; src++ {
		for dst := 0; dst < n; dst++ {
			hops += t.Hops(src, dst)
		}
	}
	rt := &RouteTable{t: t, name: t.Name(), n: n, offsets: make([]int32, n*n+1), ids: make([]int32, 0, hops)}
	var buf []int
	for src := 0; src < n; src++ {
		for dst := 0; dst < n; dst++ {
			buf = t.RouteIDs(src, dst, buf[:0])
			for _, id := range buf {
				rt.ids = append(rt.ids, int32(id))
			}
			rt.offsets[src*n+dst+1] = int32(len(rt.ids))
		}
	}
	return rt
}

// Topology returns the topology the table was built from.
func (rt *RouteTable) Topology() Topology { return rt.t }

// Lazy reports whether the table generates routes on the fly instead
// of storing them. Lazy tables do not support Route.
func (rt *RouteTable) Lazy() bool { return rt.lazy }

// Name identifies the underlying topology; a RouteTable is
// transparent in output and cache keys. It is formatted once, at
// construction, so per-run callers (Core.LastOutcome) allocate nothing.
func (rt *RouteTable) Name() string { return rt.name }

// Nodes returns the number of processors.
func (rt *RouteTable) Nodes() int { return rt.n }

// NumChannels returns the number of directed channels, the valid index
// range of the ids Route returns.
func (rt *RouteTable) NumChannels() int { return rt.t.NumChannels() }

// RouteIDs appends the directed-channel indices of the route src->dst,
// satisfying Topology. Dense tables copy from storage; lazy ones
// delegate to the underlying topology.
func (rt *RouteTable) RouteIDs(src, dst int, buf []int) []int {
	if rt.lazy {
		return rt.t.RouteIDs(src, dst, buf)
	}
	for _, id := range rt.Route(src, dst) {
		buf = append(buf, int(id))
	}
	return buf
}

// Route returns the precomputed directed-channel indices of the route
// src->dst. The slice aliases the table's storage: read-only, valid
// forever, safe to hold across calls. Panics on a lazy table — use
// RouteIDs there.
func (rt *RouteTable) Route(src, dst int) []int32 {
	if rt.lazy {
		panic("topo: Route on a lazy table; use RouteIDs")
	}
	k := src*rt.n + dst
	return rt.ids[rt.offsets[k]:rt.offsets[k+1]]
}

// Hops returns the route length from src to dst.
func (rt *RouteTable) Hops(src, dst int) int {
	if rt.lazy {
		return rt.t.Hops(src, dst)
	}
	k := src*rt.n + dst
	return int(rt.offsets[k+1] - rt.offsets[k])
}

// HopEntries returns the total number of stored hops across all
// routes — the n^2 * average-route-length term of the memory bound,
// for tests and capacity planning. Zero for lazy tables.
func (rt *RouteTable) HopEntries() int { return len(rt.ids) }
