package sched

import (
	"math/rand"

	"unsched/internal/comm"
	"unsched/internal/topo"
)

// RSNL implements the paper's §5 randomized scheduling that avoids
// both node and link contention (Figure 4, "RS_Node_Link"), including
// the pairwise-exchange priority of step 3(c)i: entries that can
// complete a bidirectional exchange are preferred, because the
// iPSC/860 transfers both directions of a pairwise-synchronized
// exchange concurrently.
//
// Link contention is checked against the machine's deterministic
// e-cube routes with Check_Path/Mark_Path over a per-phase channel
// occupancy table (the paper's PATHS array, stored densely). A
// reusable Core checks routes against a precomputed topo.RouteTable
// instead of regenerating them per call; this wrapper's throwaway Core
// wraps net in a lazy table and generates each route as it checks it.
//
// The pairwise priority is implemented the way the paper's comp costs
// imply (§5 refers to [15] for "locating pairwise exchanges"): pairs
// are located once, up front, by partitioning each CCOM row so that
// destinations with a reverse message come first; the per-phase scan
// then stays first-feasible like RS_N instead of searching every row
// exhaustively, and the extra scheduling cost over RS_N is the path
// checking, a small constant factor.
func RSNL(m *comm.Matrix, net topo.Topology, rng *rand.Rand) (*Schedule, error) {
	return NewCoreDirect(net).RSNL(m, rng)
}

// RSNLNoPairwise disables the pairwise-exchange priority, scheduling
// with link checking only. It exists for the ablation benchmark that
// quantifies how much of RS_NL's win comes from concurrent
// bidirectional exchange versus contention avoidance alone.
func RSNLNoPairwise(m *comm.Matrix, net topo.Topology, rng *rand.Rand) (*Schedule, error) {
	return NewCoreDirect(net).RSNLNoPairwise(m, rng)
}

// RSNLSized is the non-uniform-size variant of RS_NL (the direction
// the paper defers to [15]): messages are drained largest-first, so
// each phase groups messages of similar size and the sum of per-phase
// maxima — the paper's tau + M*phi cost proxy — shrinks. Two changes
// against RSNL: every CCOM row is sorted by descending size (after
// which the pairwise partition is NOT applied — size priority replaces
// it), and the per-phase starting row rotates over the rows with the
// largest remaining message. For uniform inputs it degenerates to
// RS_NL without pairwise priority.
func RSNLSized(m *comm.Matrix, net topo.Topology, rng *rand.Rand) (*Schedule, error) {
	return NewCoreDirect(net).RSNLSized(m, rng)
}
