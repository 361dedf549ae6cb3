package sched

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"

	"unsched/internal/comm"
	"unsched/internal/topo"
)

// Core is a reusable scheduler instance: it owns every piece of
// scratch state the scheduling algorithms need — the CCOM row storage,
// the per-phase channel-occupancy tables, the Trecv/Tsend busy
// vectors, the pairwise-remaining map, and the partition and sort
// buffers — and re-initializes them in place on every call.
//
// The reuse contract mirrors ipsc.Machine: create one Core per
// goroutine (a Core is not safe for concurrent use), drive it through
// its algorithm methods, and it serves an arbitrarily long request
// sequence without reallocating its scratch. Every method
// re-initializes, in place, exactly the scratch it uses (CCOM via
// Load, vectors via the scratch sizers, claim tables via per-phase
// Reset) before reading it — callers never call Reset, and a new
// algorithm method must follow the same rule rather than rely on it.
// Schedules produced by a reused Core are bit-identical to ones from
// the package-level functions given the same inputs and RNG stream.
//
// The outputs are the caller's. A caller done with a schedule or a
// send order hands it back with Recycle or RecycleOrder, and the next
// build reuses its storage, so a worker that recycles every output
// schedules without allocating once its first builds have sized the
// storage (0 allocs per build for every table entry). A caller that
// never recycles gets fresh outputs on every call.
//
// Every link-aware method checks and marks routes in a topo.Occupancy
// over the core's route table. NewCore and NewCoreForTable walk a
// table built by topo.NewRouteTable (dense when it fits, so the RS_NL
// inner loop walks stored channel ids in flat storage); NewCoreDirect
// wraps its topology in a lazy table for one-shot use, which is what
// the package-level wrapper functions do.
type Core struct {
	rt *topo.RouteTable // nil: only topology-free algorithms work

	ccom comm.Compressed // reusable CCOM row storage
	occ  *topo.Occupancy // per-schedule claim table (RS_NL family)
	// occPool holds the per-phase claim tables of
	// GreedyLargestFirstLinkFree, recycled across calls: phase k of
	// every schedule reuses occPool[k].
	occPool []*topo.Occupancy

	trecv, tsend       []int
	rem                []bool // n*n unscheduled-message map (RS_NL pairwise)
	msgs               []comm.Message
	sendBusy, recvBusy []bool

	// Output storage handed back by Recycle and RecycleOrder, which
	// the next build reuses: spare's Phases array, the free phases
	// (every one phaseN wide, at most maxPooledSlots slots in all),
	// and order's rows.
	spare  *Schedule
	phases []Phase
	phaseN int
	order  *ACOrder

	last lastRun // metadata of the most recent run (see LastOutcome)
}

// maxPooledSlots caps the recycled output storage a core keeps, in
// phase slots (one Send and one Bytes entry, 16 bytes): 4 MiB, which
// is 4,096 phases at 64 nodes or 256 at 1,024. Without it a 1,024-node
// LP schedule (1,023 phases, 16.8 MB) would stay pinned in every
// cached core it was recycled into. A send order is kept while its
// rows hold at most this many destinations.
const maxPooledSlots = 1 << 18

// NewCore returns a reusable core for net over topo.NewRouteTable(net)
// — an O(n^2 * diameter) build when the table is dense, paid once and
// amortized over every schedule the core produces. For a shared table
// (one per daemon, many cores), build the table once and use
// NewCoreForTable.
func NewCore(net topo.Topology) *Core {
	return NewCoreForTable(topo.NewRouteTable(net))
}

// NewCoreForTable returns a reusable core over a prebuilt route table.
// The table is read-only and may be shared by any number of cores
// concurrently; the core's mutable scratch is its own.
func NewCoreForTable(rt *topo.RouteTable) *Core {
	return &Core{rt: rt}
}

// NewCoreDirect returns a core that generates routes on the fly
// through a lazy table instead of precomputing one — the right choice
// when a core serves only a handful of schedules. net may be nil if
// only the topology-free algorithms (AC, LP, RS_N, GREEDY, GREEDY_LF)
// are used.
func NewCoreDirect(net topo.Topology) *Core {
	if net == nil {
		return &Core{}
	}
	return &Core{rt: topo.NewRouteTableLazy(net)}
}

// Reset clears the core's scratch state while keeping every backing
// allocation, the analogue of ipsc.Machine.Reset. It exists to make
// the reuse contract explicit and testable; it is never required for
// correctness, because each algorithm method re-initializes the
// scratch it uses before reading it (the CCOM is rebuilt by Load on
// the next call and needs no clearing here).
func (c *Core) Reset() {
	for i := range c.trecv {
		c.trecv[i] = -1
	}
	for i := range c.tsend {
		c.tsend[i] = -1
	}
	clear(c.rem)
	c.msgs = c.msgs[:0]
	c.sendBusy = c.sendBusy[:0]
	c.recvBusy = c.recvBusy[:0]
	if c.occ != nil {
		c.occ.Reset()
	}
	for _, o := range c.occPool {
		o.Reset()
	}
}

// Recycle hands a schedule the caller is done with back to the core.
// The next schedule the core builds reuses its storage — the
// *Schedule, its Phases array, and each phase's Send and Bytes, reset
// in place to silent — and allocates only beyond it. Recycling is the
// caller's promise not to touch s again (nor to recycle it twice).
// Phases are reused only by a schedule of their own width: recycling
// a schedule of another N drops the phases pooled before it, so a core
// serving several machine sizes (NewCoreDirect(nil)) never hands out
// a phase of the wrong width. The pool keeps at most maxPooledSlots
// phase slots; phases beyond that are left to the collector.
func (c *Core) Recycle(s *Schedule) {
	if s == nil {
		return
	}
	if s.N != c.phaseN {
		clear(c.phases)
		c.phases = c.phases[:0]
		c.phaseN = s.N
	}
	for _, p := range s.Phases {
		if (len(c.phases)+1)*s.N > maxPooledSlots {
			break
		}
		if len(p.Send) == s.N && len(p.Bytes) == s.N {
			c.phases = append(c.phases, p)
		}
	}
	clear(s.Phases) // the spare must not keep phases past the cap alive
	s.Phases = s.Phases[:0]
	c.spare = s
}

// RecycleOrder is Recycle for a send order: the next AC or ACShuffled
// call of the same width refills its rows in place. An order whose rows
// hold more than maxPooledSlots destinations is not kept.
func (c *Core) RecycleOrder(o *ACOrder) {
	if o == nil {
		return
	}
	slots := 0
	for _, row := range o.Order {
		slots += cap(row)
	}
	if slots <= maxPooledSlots {
		c.order = o
	}
}

// schedule returns an empty schedule of alg on n processors: the
// recycled one when there is one, else a new one.
func (c *Core) schedule(alg string, n int) *Schedule {
	s := c.spare
	if s == nil {
		return &Schedule{Algorithm: alg, N: n}
	}
	c.spare = nil
	*s = Schedule{Algorithm: alg, N: n, Phases: s.Phases[:0]}
	return s
}

// newPhase returns an empty phase for n processors: a recycled one of
// that width, reset in place, else NewPhase(n).
func (c *Core) newPhase(n int) Phase {
	k := len(c.phases) - 1
	if k < 0 || c.phaseN != n {
		return NewPhase(n)
	}
	p := c.phases[k]
	c.phases[k] = Phase{}
	c.phases = c.phases[:k]
	for i := range p.Send {
		p.Send[i] = -1
	}
	clear(p.Bytes)
	return p
}

// requireNet checks that the core can schedule link-aware algorithms
// for an n-processor matrix.
func (c *Core) requireNet(alg string, n int) error {
	if c.rt == nil {
		return fmt.Errorf("sched: %s needs a topology; build the core with NewCore", alg)
	}
	if c.rt.Nodes() != n {
		return fmt.Errorf("sched: %s topology %s has %d nodes, matrix %d", alg, c.rt.Name(), c.rt.Nodes(), n)
	}
	return nil
}

// occupancy returns the core's per-schedule claim table, building it
// on first use.
func (c *Core) occupancy() *topo.Occupancy {
	if c.occ == nil {
		c.occ = topo.NewOccupancy(c.rt)
	}
	return c.occ
}

// phaseOcc returns the claim table for phase k of a link-aware list
// schedule, drawing from the recycled pool and growing it on demand.
// The returned table is Reset and ready to claim.
func (c *Core) phaseOcc(k int) *topo.Occupancy {
	if k < len(c.occPool) {
		o := c.occPool[k]
		o.Reset()
		return o
	}
	o := topo.NewOccupancy(c.rt)
	c.occPool = append(c.occPool, o)
	return o
}

// intScratch sizes *buf to n, reusing its backing array when possible.
func intScratch(buf *[]int, n int) []int {
	if cap(*buf) < n {
		*buf = make([]int, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

func boolScratch(buf *[]bool, n int) []bool {
	if cap(*buf) < n {
		*buf = make([]bool, n)
		return *buf
	}
	*buf = (*buf)[:n]
	clear(*buf)
	return *buf
}

// --- RS_N -----------------------------------------------------------

// RSN is the reusable-core form of the package-level RSN (§4.2,
// Figure 3).
func (c *Core) RSN(m *comm.Matrix, rng *rand.Rand) (*Schedule, error) {
	return c.rsn(m, rng, true)
}

// RSNOrdered is RSN without the randomizing row shuffle (ablation).
func (c *Core) RSNOrdered(m *comm.Matrix, rng *rand.Rand) (*Schedule, error) {
	return c.rsn(m, rng, false)
}

func (c *Core) rsn(m *comm.Matrix, rng *rand.Rand, shuffle bool) (*Schedule, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	n := m.N()
	var ops int64
	if shuffle {
		c.ccom.Load(m, rng)
	} else {
		c.ccom.Load(m, nil)
	}
	// Ops models the paper's "comp" column: the per-processor cost of
	// runtime scheduling. Compression is parallelized — each processor
	// compacts its own row, O(n), and the rows are combined by a
	// concatenate (§4.2), whose cost is communication, not comp.
	ops += int64(n)

	ccom := &c.ccom
	s := c.schedule("RS_N", n)
	trecv := intScratch(&c.trecv, n)
	for !ccom.Empty() {
		p := c.newPhase(n)
		for i := range trecv {
			trecv[i] = -1
		}
		ops += int64(n) // vector reset
		x := rng.Intn(n)
		for k := 0; k < n; k++ {
			ops++
			// Along row x, find the first entry whose destination is
			// still free this phase.
			for z := 0; z < ccom.Remaining(x); z++ {
				ops++
				y := ccom.At(x, z)
				if trecv[y] == -1 {
					dest, bytes := ccom.Remove(x, z)
					p.Send[x] = dest
					p.Bytes[x] = bytes
					trecv[dest] = x
					break
				}
			}
			x = (x + 1) % n
		}
		s.Phases = append(s.Phases, p)
	}
	s.Ops = ops
	c.noteRun(s.Algorithm, len(s.Phases), ops)
	return s, nil
}

// --- RS_NL ----------------------------------------------------------

// RSNL is the reusable-core form of the package-level RSNL (§5,
// Figure 4), checking routes against the core's occupancy.
func (c *Core) RSNL(m *comm.Matrix, rng *rand.Rand) (*Schedule, error) {
	return c.rsnl(m, rng, true)
}

// RSNLNoPairwise disables the pairwise-exchange priority (ablation).
func (c *Core) RSNLNoPairwise(m *comm.Matrix, rng *rand.Rand) (*Schedule, error) {
	return c.rsnl(m, rng, false)
}

func (c *Core) rsnl(m *comm.Matrix, rng *rand.Rand, pairwise bool) (*Schedule, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	n := m.N()
	if err := c.requireNet("RS_NL", n); err != nil {
		return nil, err
	}
	c.ccom.Load(m, rng)
	ccom := &c.ccom
	var ops int64
	ops += int64(n) // per-processor compression of one row, as in RSN

	if pairwise {
		// Locate pairwise-exchange candidates once: stable-partition
		// every row so destinations with a reverse message lead. The
		// per-phase scan then meets exchange opportunities first.
		ccom.PartitionRows(func(src, dst int) bool { return m.At(dst, src) > 0 })
		ops += int64(m.MessageCount())
	}

	// rem mirrors the unscheduled message set so the scan can ask
	// "does y still need to send to x" in O(1). The CCOM rows hold
	// exactly the nonzero entries, so filling from them avoids
	// materializing a Messages slice.
	rem := boolScratch(&c.rem, n*n)
	for i := 0; i < n; i++ {
		for z := 0; z < ccom.Remaining(i); z++ {
			rem[i*n+ccom.At(i, z)] = true
		}
	}

	occ := c.occupancy()
	s := c.schedule("RS_NL", n)
	tsend := intScratch(&c.tsend, n)
	trecv := intScratch(&c.trecv, n)

	// removeFrom drops the entry with destination dst from row src of
	// CCOM (linear scan over at most d live entries).
	removeFrom := func(src, dst int) int64 {
		for z := 0; z < ccom.Remaining(src); z++ {
			ops++
			if ccom.At(src, z) == dst {
				_, bytes := ccom.Remove(src, z)
				return bytes
			}
		}
		panic(fmt.Sprintf("sched: CCOM row %d lost entry for %d", src, dst))
	}

	for !ccom.Empty() {
		p := c.newPhase(n)
		for i := range trecv {
			trecv[i] = -1
			tsend[i] = -1
		}
		occ.Reset()
		ops += int64(n)
		x := rng.Intn(n)
		for k := 0; k < n; k++ {
			ops++
			if tsend[x] != -1 {
				// x was already claimed as the reverse half of an
				// earlier pairwise assignment this phase.
				x = (x + 1) % n
				continue
			}
			// First feasible entry: destination free this phase and
			// circuit unclaimed.
			for z := 0; z < ccom.Remaining(x); z++ {
				ops++
				y := ccom.At(x, z)
				if trecv[y] != -1 {
					continue
				}
				ops += int64(c.rt.Hops(x, y))
				if occ.Claim(x, y) >= 0 {
					continue
				}
				// Feasible, and the circuit is claimed. Upgrade to a
				// pairwise exchange if the reverse message is still
				// pending and both the reverse circuit and both
				// endpoints allow it.
				if pairwise && rem[y*n+x] && tsend[y] == -1 && trecv[x] == -1 {
					ops += int64(c.rt.Hops(y, x))
					if occ.Claim(y, x) < 0 {
						_, bytes := ccom.Remove(x, z)
						backBytes := removeFrom(y, x)
						p.Send[x], p.Bytes[x] = y, bytes
						p.Send[y], p.Bytes[y] = x, backBytes
						tsend[x], trecv[y] = y, x
						tsend[y], trecv[x] = x, y
						rem[x*n+y] = false
						rem[y*n+x] = false
						break
					}
				}
				_, bytes := ccom.Remove(x, z)
				p.Send[x], p.Bytes[x] = y, bytes
				tsend[x], trecv[y] = y, x
				rem[x*n+y] = false
				break
			}
			x = (x + 1) % n
		}
		s.Phases = append(s.Phases, p)
	}
	s.Ops = ops
	c.noteRun(s.Algorithm, len(s.Phases), ops)
	return s, nil
}

// RSNLSized is the reusable-core form of the package-level RSNLSized:
// rows sorted by descending size, phases started at the largest
// remaining message.
func (c *Core) RSNLSized(m *comm.Matrix, rng *rand.Rand) (*Schedule, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	n := m.N()
	if err := c.requireNet("RS_NL_SZ", n); err != nil {
		return nil, err
	}
	c.ccom.Load(m, rng)
	ccom := &c.ccom
	var ops int64
	ops += int64(n)
	ccom.SortRowsBySize()
	ops += int64(m.MessageCount())

	occ := c.occupancy()
	s := c.schedule("RS_NL_SZ", n)
	trecv := intScratch(&c.trecv, n)
	for !ccom.Empty() {
		p := c.newPhase(n)
		for i := range trecv {
			trecv[i] = -1
		}
		occ.Reset()
		ops += int64(n)
		// Start from the row with the largest remaining message so the
		// phase's maximum is set by a message that must travel anyway.
		x := 0
		var best int64 = -1
		for i := 0; i < n; i++ {
			ops++
			if ccom.Remaining(i) > 0 && ccom.SizeAt(i, 0) > best {
				best = ccom.SizeAt(i, 0)
				x = i
			}
		}
		for k := 0; k < n; k++ {
			ops++
			// Rows are size-sorted, so the first feasible entry is the
			// largest schedulable message of the row.
			for z := 0; z < ccom.Remaining(x); z++ {
				ops++
				y := ccom.At(x, z)
				if trecv[y] != -1 {
					continue
				}
				ops += int64(c.rt.Hops(x, y))
				if occ.Claim(x, y) >= 0 {
					continue
				}
				_, bytes := ccom.Remove(x, z)
				p.Send[x], p.Bytes[x] = y, bytes
				trecv[y] = x
				break
			}
			x = (x + 1) % n
		}
		s.Phases = append(s.Phases, p)
	}
	s.Ops = ops
	c.noteRun(s.Algorithm, len(s.Phases), ops)
	return s, nil
}

// --- LP -------------------------------------------------------------

// LP is the reusable-core form of the package-level LP (§4.1,
// Figure 2). Its output is the whole allocation, so the core adds no
// reuse beyond interface symmetry.
func (c *Core) LP(m *comm.Matrix) (*Schedule, error) {
	n := m.N()
	if n&(n-1) != 0 {
		return nil, fmt.Errorf("sched: LP requires a power-of-two processor count, got %d", n)
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	s := c.schedule("LP", n)
	for k := 1; k < n; k++ {
		p := c.newPhase(n)
		for i := 0; i < n; i++ {
			j := i ^ k
			if b := m.At(i, j); b > 0 {
				p.Send[i] = j
				p.Bytes[i] = b
			}
		}
		// The paper's LP walks all n-1 iterations even when a phase is
		// empty (that is exactly its weakness at low density); keep
		// empty phases so the phase count is n-1 and the executor pays
		// the per-phase loop cost.
		s.Phases = append(s.Phases, p)
	}
	// Ops models the per-processor scheduling cost ("comp" in Table 1):
	// each processor derives its own partner sequence with one XOR and
	// one row lookup per phase — the "very low computation overhead" of
	// §7. The n-way loop above is this simulator materializing every
	// processor's view at once, not work the machine would do serially.
	s.Ops = int64(n - 1)
	c.noteRun(s.Algorithm, len(s.Phases), s.Ops)
	return s, nil
}

// --- AC -------------------------------------------------------------

// AC is the reusable-core form of the package-level AC (§3, Figure 1).
// The send orders are the output; a recycled order (RecycleOrder) of
// the same width is refilled in place.
func (c *Core) AC(m *comm.Matrix) (*ACOrder, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	n := m.N()
	o := c.order
	c.order = nil
	if o == nil || len(o.Order) != n {
		o = &ACOrder{N: n, Order: make([][]int, n)}
	}
	for i, row := range o.Order {
		row = row[:0]
		for j := 0; j < n; j++ {
			if m.At(i, j) > 0 {
				row = append(row, j)
			}
		}
		o.Order[i] = row
	}
	// AC has no scheduling phase and the paper charges it zero comp:
	// sends are issued asynchronously straight off the row.
	c.noteRun("AC", 0, 0)
	return o, nil
}

// ACShuffled is AC with each processor's send list independently
// shuffled.
func (c *Core) ACShuffled(m *comm.Matrix, rng *rand.Rand) (*ACOrder, error) {
	o, err := c.AC(m)
	if err != nil {
		return nil, err
	}
	for i := range o.Order {
		row := o.Order[i]
		rng.Shuffle(len(row), func(a, b int) { row[a], row[b] = row[b], row[a] })
	}
	return o, nil
}

// --- GREEDY ---------------------------------------------------------

// Greedy is the reusable-core form of the package-level Greedy.
func (c *Core) Greedy(m *comm.Matrix) (*Schedule, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	n := m.N()
	c.ccom.Load(m, nil)
	ccom := &c.ccom
	var ops int64
	ops += int64(n) // per-processor row compression, as in RSN
	s := c.schedule("GREEDY", n)
	trecv := intScratch(&c.trecv, n)
	for !ccom.Empty() {
		p := c.newPhase(n)
		for i := range trecv {
			trecv[i] = -1
		}
		ops += int64(n)
		for x := 0; x < n; x++ {
			for z := 0; z < ccom.Remaining(x); z++ {
				ops++
				y := ccom.At(x, z)
				if trecv[y] == -1 {
					dest, bytes := ccom.Remove(x, z)
					p.Send[x] = dest
					p.Bytes[x] = bytes
					trecv[dest] = x
					break
				}
			}
		}
		s.Phases = append(s.Phases, p)
	}
	s.Ops = ops
	c.noteRun(s.Algorithm, len(s.Phases), ops)
	return s, nil
}

// sortedMsgs fills the core's message scratch with m's messages in
// descending size order (stable on row-major order for equal sizes).
func (c *Core) sortedMsgs(m *comm.Matrix) []comm.Message {
	c.msgs = m.AppendMessages(c.msgs[:0])
	slices.SortStableFunc(c.msgs, func(a, b comm.Message) int {
		return cmp.Compare(b.Bytes, a.Bytes)
	})
	return c.msgs
}

// growBusy extends the per-phase engagement bitmaps by one phase of n
// slots each, recycling backing capacity across calls.
func (c *Core) growBusy(n int) {
	grow := func(buf *[]bool) {
		need := len(*buf) + n
		if cap(*buf) < need {
			next := make([]bool, need)
			copy(next, *buf)
			*buf = next
			return
		}
		*buf = (*buf)[:need]
		clear((*buf)[need-n:])
	}
	grow(&c.sendBusy)
	grow(&c.recvBusy)
}

// GreedyLargestFirst is the reusable-core form of the package-level
// GreedyLargestFirst list scheduler.
func (c *Core) GreedyLargestFirst(m *comm.Matrix) (*Schedule, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	n := m.N()
	msgs := c.sortedMsgs(m)
	var ops int64
	s := c.schedule("GREEDY_LF", n)
	// sendBusy[k*n+i] / recvBusy[k*n+j]: processor engagement per phase.
	c.sendBusy = c.sendBusy[:0]
	c.recvBusy = c.recvBusy[:0]
	grow := func() {
		c.growBusy(n)
		s.Phases = append(s.Phases, c.newPhase(n))
	}
	place := func(k int, msg comm.Message) {
		c.sendBusy[k*n+msg.Src] = true
		c.recvBusy[k*n+msg.Dst] = true
		s.Phases[k].Send[msg.Src] = msg.Dst
		s.Phases[k].Bytes[msg.Src] = msg.Bytes
	}
	for _, msg := range msgs {
		placed := false
		for k := 0; k < len(s.Phases); k++ {
			ops++
			if !c.sendBusy[k*n+msg.Src] && !c.recvBusy[k*n+msg.Dst] {
				place(k, msg)
				placed = true
				break
			}
		}
		if !placed {
			grow()
			place(len(s.Phases)-1, msg)
			ops++
		}
	}
	s.Ops = ops
	c.noteRun(s.Algorithm, len(s.Phases), ops)
	return s, nil
}

// GreedyLargestFirstLinkFree is the reusable-core form of the
// package-level GreedyLargestFirstLinkFree. Per-phase claim tables
// come from the core's recycled occupancy pool instead of a fresh
// O(channels) allocation per opened phase.
func (c *Core) GreedyLargestFirstLinkFree(m *comm.Matrix) (*Schedule, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	n := m.N()
	if err := c.requireNet("GREEDY_LF_LINK", n); err != nil {
		return nil, err
	}
	msgs := c.sortedMsgs(m)
	var ops int64
	s := c.schedule("GREEDY_LF_LINK", n)
	c.sendBusy = c.sendBusy[:0]
	c.recvBusy = c.recvBusy[:0]
	// The claim table of phase k is always c.occPool[k]: phases open in
	// order and phaseOcc recycles (or grows) the pool to match.
	grow := func() {
		c.growBusy(n)
		s.Phases = append(s.Phases, c.newPhase(n))
		c.phaseOcc(len(s.Phases) - 1)
	}
	// place assigns msg to phase k, whose claim table already holds
	// its circuit.
	place := func(k int, msg comm.Message) {
		c.sendBusy[k*n+msg.Src] = true
		c.recvBusy[k*n+msg.Dst] = true
		s.Phases[k].Send[msg.Src] = msg.Dst
		s.Phases[k].Bytes[msg.Src] = msg.Bytes
	}
	for _, msg := range msgs {
		placed := false
		for k := 0; k < len(s.Phases); k++ {
			ops += 1 + int64(c.rt.Hops(msg.Src, msg.Dst))
			if !c.sendBusy[k*n+msg.Src] && !c.recvBusy[k*n+msg.Dst] && c.occPool[k].Claim(msg.Src, msg.Dst) < 0 {
				place(k, msg)
				placed = true
				break
			}
		}
		if !placed {
			grow()
			k := len(s.Phases) - 1
			c.occPool[k].Claim(msg.Src, msg.Dst) // an empty table: always free
			place(k, msg)
			ops++
		}
	}
	s.Ops = ops
	c.noteRun(s.Algorithm, len(s.Phases), ops)
	return s, nil
}

// ValidateLinkFree checks s for link contention against the core's
// topology, reusing the core's claim table (the package-level
// Schedule.ValidateLinkFree allocates a fresh one per call).
func (c *Core) ValidateLinkFree(s *Schedule) error {
	if err := c.requireNet("ValidateLinkFree", s.N); err != nil {
		return err
	}
	return s.validateLinkFree(c.occupancy())
}
