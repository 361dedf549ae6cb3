// Package topo abstracts the deterministic-routing topologies the
// link-contention-avoiding scheduler and the machine simulator run on.
// The paper's machine is a hypercube with e-cube routing, but §5 notes
// the approach applies to any regular topology with deterministic
// routing ("for regular topologies like mesh and hypercube, the size
// of PATHS can be much smaller"); this interface is that observation
// made concrete. internal/hypercube and internal/mesh implement it.
package topo

import "math/bits"

// Topology is a network with deterministic routing over directed
// channels. Channels are identified by dense indices in
// [0, NumChannels()), so occupancy tables are flat arrays.
type Topology interface {
	// Name identifies the topology in output ("hypercube-6",
	// "mesh-8x8", ...).
	Name() string
	// Nodes returns the number of processors.
	Nodes() int
	// NumChannels returns the number of directed channels.
	NumChannels() int
	// RouteIDs appends the directed-channel indices of the
	// deterministic route from src to dst and returns the extended
	// slice. An empty route (src == dst) appends nothing.
	RouteIDs(src, dst int, buf []int) []int
	// Hops returns the route length from src to dst.
	Hops(src, dst int) int
}

// Occupancy is a channel-claim table over a RouteTable: the paper's
// PATHS array as a packed bitset, one bit per directed channel. The
// schedulers claim routes in it for RS_NL's Check_Path / Mark_Path
// (Figure 4) and for link-free validation; the simulator claims and
// releases the channels of every circuit it carries in one.
//
// A route is claimed in one walk over its channel ids: Claim tests
// and sets each channel in route order and, on meeting a claimed one,
// gives back what it set and names the channel that blocked it. A
// dense table hands the walk the route's stored ids; a lazy one
// generates them into the occupancy's own scratch, since the table
// itself is shared read-only. Release walks the same ids.
//
// A waiter on a claimed channel flags it with Watch, and the Release
// that frees a flagged channel reports it; a release with no flag set
// anywhere skips the test.
//
// An Occupancy is not safe for concurrent use; the table under it is.
type Occupancy struct {
	rt   *RouteTable
	busy []uint64 // bit i of busy[i/64] set: channel i claimed
	// watch flags the claimed channels something waits on; watched
	// counts the flags. It is allocated by the first Watch, so
	// occupancies nobody waits on (every scheduler's) never pay for it.
	watch   []uint64
	watched int
	buf     []int // route scratch of the lazy walk
}

// NewOccupancy returns an empty claim table for t. It walks t itself
// when t is a *RouteTable and wraps any other topology in a lazy
// table.
func NewOccupancy(t Topology) *Occupancy {
	rt, ok := t.(*RouteTable)
	if !ok {
		rt = NewRouteTableLazy(t)
	}
	return &Occupancy{rt: rt, busy: make([]uint64, (rt.NumChannels()+63)/64)}
}

// Reset clears all claims and watch flags; O(channels/64).
func (o *Occupancy) Reset() {
	clear(o.busy)
	if o.watched != 0 {
		clear(o.watch)
		o.watched = 0
	}
}

// Claim claims every channel on the route src->dst if none of them is
// claimed and returns -1 (the paper's Check_Path and Mark_Path in one
// walk). Otherwise it claims nothing and returns the first claimed
// channel along the route.
func (o *Occupancy) Claim(src, dst int) int {
	if o.rt.lazy {
		o.buf = o.rt.t.RouteIDs(src, dst, o.buf[:0])
		return claimIDs(o.busy, o.buf)
	}
	return claimIDs(o.busy, o.rt.Route(src, dst))
}

// Release frees every channel on the route src->dst: the simulator's
// circuit teardown. It appends each freed channel that Watch flagged
// to woken, clears its flag, and returns the extended slice.
func (o *Occupancy) Release(src, dst int, woken []int32) []int32 {
	if o.rt.lazy {
		o.buf = o.rt.t.RouteIDs(src, dst, o.buf[:0])
		return releaseIDs(o, o.buf, woken)
	}
	return releaseIDs(o, o.rt.Route(src, dst), woken)
}

// Watch flags the claimed channel ch, so the Release that frees it
// reports it.
func (o *Occupancy) Watch(ch int) {
	if o.watch == nil {
		o.watch = make([]uint64, len(o.busy))
	}
	w, bit := ch>>6, uint64(1)<<(uint(ch)&63)
	if o.watch[w]&bit == 0 {
		o.watch[w] |= bit
		o.watched++
	}
}

// claimIDs is Claim's walk over a route's channel ids.
func claimIDs[T int | int32](busy []uint64, ids []T) int {
	for i, id := range ids {
		w, bit := id>>6, uint64(1)<<(uint(id)&63)
		if busy[w]&bit != 0 {
			for _, v := range ids[:i] {
				busy[v>>6] &^= uint64(1) << (uint(v) & 63)
			}
			return int(id)
		}
		busy[w] |= bit
	}
	return -1
}

// releaseIDs is Release's walk over a route's channel ids.
func releaseIDs[T int | int32](o *Occupancy, ids []T, woken []int32) []int32 {
	for _, id := range ids {
		w, bit := id>>6, uint64(1)<<(uint(id)&63)
		o.busy[w] &^= bit
		if o.watched != 0 && o.watch[w]&bit != 0 {
			o.watch[w] &^= bit
			o.watched--
			woken = append(woken, int32(id))
		}
	}
	return woken
}

// ClaimedCount returns the number of channels currently claimed;
// O(channels/64), for tests and traces.
func (o *Occupancy) ClaimedCount() int {
	n := 0
	for _, w := range o.busy {
		n += bits.OnesCount64(w)
	}
	return n
}
