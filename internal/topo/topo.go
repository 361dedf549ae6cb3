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
// schedulers use it for the Check_Path / Mark_Path operations of RS_NL
// (Figure 4) and for link-free validation; the simulator claims and
// releases the channels of every circuit it carries in one.
//
// How a route is walked depends on the table:
//   - mask spans: dense tables under maskSpanHopLimit group each
//     route's channels by bitset word, so a check or a claim is one
//     AND or OR per touched word — the hot case;
//   - per hop: larger dense tables test one bit per stored hop;
//   - lazy: lazy tables generate the route into the occupancy's own
//     scratch, since the table itself is shared read-only.
//
// An Occupancy is not safe for concurrent use; the table under it is.
type Occupancy struct {
	rt   *RouteTable
	busy []uint64 // bit i of busy[i/64] set: channel i claimed
	buf  []int    // route scratch of the lazy walk
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

// Reset clears all claims; O(channels/64).
func (o *Occupancy) Reset() { clear(o.busy) }

// CheckPath reports whether the route src->dst is entirely unclaimed
// (the paper's Check_Path).
func (o *Occupancy) CheckPath(src, dst int) bool {
	rt := o.rt
	switch {
	case rt.spanOff != nil:
		words, masks := rt.spans(src, dst)
		for i, w := range words {
			if o.busy[w]&masks[i] != 0 {
				return false
			}
		}
		return true
	case rt.lazy:
		o.buf = rt.t.RouteIDs(src, dst, o.buf[:0])
		return allClear(o.busy, o.buf)
	default:
		return allClear(o.busy, rt.Route(src, dst))
	}
}

// MarkPath claims every channel on the route src->dst (the paper's
// Mark_Path).
func (o *Occupancy) MarkPath(src, dst int) {
	rt := o.rt
	switch {
	case rt.spanOff != nil:
		words, masks := rt.spans(src, dst)
		for i, w := range words {
			o.busy[w] |= masks[i]
		}
	case rt.lazy:
		o.buf = rt.t.RouteIDs(src, dst, o.buf[:0])
		setBits(o.busy, o.buf, true)
	default:
		setBits(o.busy, rt.Route(src, dst), true)
	}
}

// ReleasePath frees every channel on the route src->dst: the
// simulator's circuit teardown.
func (o *Occupancy) ReleasePath(src, dst int) {
	rt := o.rt
	switch {
	case rt.spanOff != nil:
		words, masks := rt.spans(src, dst)
		for i, w := range words {
			o.busy[w] &^= masks[i]
		}
	case rt.lazy:
		o.buf = rt.t.RouteIDs(src, dst, o.buf[:0])
		setBits(o.busy, o.buf, false)
	default:
		setBits(o.busy, rt.Route(src, dst), false)
	}
}

// allClear reports whether no channel in ids is set in busy.
func allClear[T int | int32](busy []uint64, ids []T) bool {
	for _, id := range ids {
		if busy[id>>6]&(uint64(1)<<(uint(id)&63)) != 0 {
			return false
		}
	}
	return true
}

// setBits sets (claim) or clears every channel in ids in busy.
func setBits[T int | int32](busy []uint64, ids []T, claim bool) {
	for _, id := range ids {
		if claim {
			busy[id>>6] |= uint64(1) << (uint(id) & 63)
		} else {
			busy[id>>6] &^= uint64(1) << (uint(id) & 63)
		}
	}
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
