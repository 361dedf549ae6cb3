// Package ipsc simulates the Intel iPSC/860: i860 compute nodes on a
// circuit-switched hypercube with deterministic e-cube routing. It is
// the machine substitute for the paper's 64-node CalTech system and
// reproduces the communication behaviour the paper's §2.2
// observations describe:
//
//  1. each node supports one send and one receive at a time, and a
//     non-pairwise send + receive at the same node serialize;
//  2. a pairwise-synchronized exchange transfers both directions
//     concurrently;
//  3. circuits passing through a node do not disturb that node, and
//     crossing circuits do not disturb each other — contention exists
//     only when two circuits want the same directed channel;
//  4. long messages are sent only after the receiver indicates
//     readiness (the S1 ready signal / 0-byte message).
//
// The simulator executes per-node op programs compiled from a schedule
// (see program.go) under a deterministic discrete-event engine, and
// reports the makespan — the maximum node finish time — exactly as the
// paper measures "the maximum time spent by any processor" per run.
//
// Simplification (documented substitution): circuit acquisition is
// atomic — a transfer starts when its channels and its receiver are
// simultaneously available, rather than incrementally holding partial
// paths. This keeps the model deadlock-free while preserving the
// serialization that link contention causes.
//
// # Hot-path representation
//
// The simulator is the cost center of every campaign cell and service
// request, so its run loop is built to generate no garbage when a
// Machine is reused:
//
//   - events are flat typed records (a kind tag plus two int32
//     operands) dispatched through one des.Engine handler, stored
//     inline in the engine's reusable time-bucket queue — no closure
//     per event;
//   - transfer attempts live in a machine-owned arena ([]attempt)
//     addressed by index. An attempt that cannot start is parked on
//     the one resource its check found busy — a node's busy byte or a
//     claimed channel — in a list linked through the arena, and only
//     a release of that resource wakes it for a retry;
//   - barrier arrival counts and waiter lists are flat slices indexed
//     by barrier id (phase number), recycled across runs;
//   - channel occupancy is one topo.Occupancy, the packed bitset the
//     schedulers claim routes in too; a circuit is claimed in one
//     walk over its route's channel ids, which a dense
//     topo.RouteTable stores and a lazy one generates into the
//     occupancy's scratch;
//   - per-run programs compile into a machine-owned [][]op arena whose
//     inner capacities persist across runs.
//
// After the first run on a given workload shape, Reset restores every
// arena without freeing, so a reused Machine simulates allocation-free.
package ipsc

import (
	"fmt"
	"slices"

	"unsched/internal/costmodel"
	"unsched/internal/des"
	"unsched/internal/topo"
)

// Flat event kinds dispatched through the des.Engine handler. The
// operands a and b are event-specific.
const (
	// evAdvance resumes node a's program.
	evAdvance int32 = iota
	// evReady delivers receiver b's ready signal to sender a.
	evReady
	// evBarrier releases barrier a, owned by (last-arriving) node b.
	evBarrier
	// evXferDone completes the unidirectional transfer attempts[a].
	evXferDone
	// evExchDone completes the pairwise exchange attempts[a].
	evExchDone
)

// Machine is a simulator instance and the simulator's only way in.
// Create one with NewMachine and drive it through its Run and RunAC
// methods (and the ablation variants RunS1Barrier and RunACAsync),
// which Reset and reuse its state so one Machine serves an arbitrarily
// long run sequence without reallocating. A Machine is not safe for
// concurrent use; create one per goroutine.
//
// Passing a *topo.RouteTable as the topology (a RouteTable is itself a
// Topology) makes the machine walk that table — the stored routes
// when it is dense; any other topology is wrapped in a lazy table and
// routes on the fly.
type Machine struct {
	// routes is the machine's route table, lazy over a plain topology.
	// Hops is read from it directly rather than through the Topology
	// interface: every transfer start and receive posting asks, and on
	// a dense table the lookup is two adjacent int32 loads.
	routes *topo.RouteTable
	// chans holds the directed channels of every active circuit.
	chans  *topo.Occupancy
	params costmodel.Params
	eng    *des.Engine
	nodes  []node
	// busy packs each node's circuit occupancy into one byte —
	// busyTx for an active outgoing transfer, busyRx for an incoming
	// one. tryStart probes these for random peers on every try, so
	// keeping all nodes' flags in a few cache lines matters more than
	// keeping them next to the rest of the node state.
	busy []uint8
	// attempts is the per-run arena of transfer/exchange attempts.
	attempts []attempt
	// parked[r] heads the list of attempts blocked on resource r,
	// linked through attempt.next and ended by -1: r < n is node r's
	// busy byte, r >= n is channel r-n. A release moves the lists of
	// what it frees to woken, which retryPending drains; freed is the
	// channel scratch a release reports into.
	parked []int32
	woken  []int32
	freed  []int32
	// barrier state, indexed by barrier id (= phase number): arrival
	// counts and blocked-node lists, grown on demand and recycled.
	barrierCount   []int32
	barrierWaiters [][]int32
	// progs is the compile arena the Run* methods build per-node
	// programs into; inner slices keep their capacity across runs.
	// recvScratch is the compile-time receive-count scratch (S2).
	progs       [][]op
	recvScratch []int
	// stats
	transfers int
	exchanges int
	waitedUS  float64 // total time attempts spent blocked on resources
}

// busy byte bits: an active outgoing circuit and an active incoming
// one. A pairwise exchange sets both bits on both partners.
const (
	busyTx = 1 << iota
	busyRx
)

type node struct {
	id      int
	program []op
	pc      int
	// blocked marks a node waiting for an external event (signal,
	// rendezvous, arrival, or resources). Its engine is idle, so it
	// can absorb incoming circuits.
	blocked bool
	// readyFrom[r] is set when the ready signal from receiver r has
	// arrived (S1). Each (sender, receiver) message is scheduled at
	// most once, so a bool per peer suffices.
	readyFrom []bool
	// arrived[s] counts the messages from source s that are fully
	// delivered and not yet consumed; opWaitRecv consumes one. It and
	// readyFrom are the machine's O(n^2) state, 5 bytes per node pair.
	arrived  []int32
	received int // total messages absorbed (for opWaitAll)
	expected int
	done     bool
	finishUS float64
	// rendezvous state for opExchange
	atExchange bool
	// outstanding counts initiated-but-incomplete asynchronous sends
	// (opSendAsync); opWaitSent blocks while it is nonzero.
	outstanding int
}

// attempt is a transfer or exchange, tried when it is created and, if
// its resources are busy, parked until a release wakes it for a
// retry. Attempts live in the Machine's arena and are addressed by
// index — in the parked lists and in the completion events that
// reference them.
type attempt struct {
	exchange bool
	async    bool  // opSendAsync: completion decrements outstanding instead of advancing pc
	src, dst int32 // for exchange: src < dst pair
	next     int32 // the next attempt parked on the same resource, or -1
	bytes    int64
	backSize int64 // exchange reverse direction
	queuedAt float64
}

// Result summarizes one simulated run.
type Result struct {
	// MakespanUS is the maximum node finish time in microseconds —
	// the paper's per-run communication cost.
	MakespanUS float64
	// Transfers is the number of unidirectional circuits carried;
	// Exchanges the number of pairwise bidirectional exchanges (each
	// moving two messages).
	Transfers int
	Exchanges int
	// ResourceWaitUS accumulates time attempts spent queued for
	// channels or receivers — a direct measure of contention.
	ResourceWaitUS float64
}

// NewMachine returns a simulator for one run on the given cube with
// the given timing parameters.
func NewMachine(net topo.Topology, params costmodel.Params) (*Machine, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	rt, ok := net.(*topo.RouteTable)
	if !ok {
		rt = topo.NewRouteTableLazy(net)
	}
	n := rt.Nodes()
	m := &Machine{
		routes: rt,
		chans:  topo.NewOccupancy(rt),
		params: params,
		eng:    des.New(),
		parked: make([]int32, n+rt.NumChannels()),
	}
	for r := range m.parked {
		m.parked[r] = -1
	}
	m.eng.SetHandler(m.handle)
	// Per-node state is carved out of four contiguous allocations so a
	// Machine costs O(1) allocations per node instead of O(n), and so
	// Reset can clear it without freeing anything. The campaign runner
	// keeps one Machine per worker and reuses it for every run.
	m.nodes = make([]node, n)
	m.busy = make([]uint8, n)
	ready := make([]bool, n*n)
	arrived := make([]int32, n*n)
	for i := range m.nodes {
		nd := &m.nodes[i]
		nd.id = i
		nd.readyFrom = ready[i*n : (i+1)*n : (i+1)*n]
		nd.arrived = arrived[i*n : (i+1)*n : (i+1)*n]
	}
	return m, nil
}

// Reset returns the machine to its initial state while keeping every
// backing allocation: the event heap, the channel occupancy, the
// attempt arena and parked lists, the barrier arenas, and all per-node
// vectors. After Reset the machine is indistinguishable from a freshly
// built one, so a single Machine can drive an arbitrarily long
// sequence of runs allocation-free.
func (m *Machine) Reset() {
	m.eng.Reset()
	m.chans.Reset()
	m.attempts = m.attempts[:0]
	// A completed run leaves nothing parked; a failed one may.
	for r := range m.parked {
		m.parked[r] = -1
	}
	m.woken = m.woken[:0]
	for i := range m.barrierCount {
		m.barrierCount[i] = 0
		m.barrierWaiters[i] = m.barrierWaiters[i][:0]
	}
	clear(m.busy)
	m.transfers = 0
	m.exchanges = 0
	m.waitedUS = 0
	for i := range m.nodes {
		nd := &m.nodes[i]
		nd.program = nil
		nd.pc = 0
		nd.blocked = false
		clear(nd.readyFrom)
		clear(nd.arrived)
		nd.received = 0
		nd.expected = 0
		nd.done = false
		nd.finishUS = 0
		nd.atExchange = false
		nd.outstanding = 0
	}
}

// run loads the per-node programs and processes events to completion.
func (m *Machine) run(programs [][]op) (Result, error) {
	if len(programs) != len(m.nodes) {
		return Result{}, fmt.Errorf("ipsc: %d programs for %d nodes", len(programs), len(m.nodes))
	}
	// One pass over all programs tallies the expected arrivals of every
	// node at once; the per-node scan this replaces cost O(n · totalOps)
	// and dominated short-run setup.
	for src, prog := range programs {
		for _, o := range prog {
			switch o.kind {
			case opSendReady, opSendFire, opSendAsync:
				m.nodes[o.peer].expected++
			case opExchange:
				// Each endpoint's opExchange carries its outgoing
				// bytes; tally the halves directed at the peer.
				if o.bytes > 0 && int(o.peer) != src {
					m.nodes[o.peer].expected++
				}
			}
		}
	}
	for i := range m.nodes {
		m.nodes[i].program = programs[i]
		m.eng.AtEvent(0, evAdvance, int32(i), 0)
	}
	// Bound runaway cascades at a million events per node; tripping it
	// fails the run with an error wrapping *des.LimitError.
	if _, err := m.eng.Run(int64(len(m.nodes)) * 1_000_000); err != nil {
		return Result{}, fmt.Errorf("ipsc: %w", err)
	}

	makespan := 0.0
	for i := range m.nodes {
		nd := &m.nodes[i]
		if !nd.done {
			return Result{}, m.deadlockError()
		}
		if nd.finishUS > makespan {
			makespan = nd.finishUS
		}
	}
	return Result{
		MakespanUS:     makespan,
		Transfers:      m.transfers,
		Exchanges:      m.exchanges,
		ResourceWaitUS: m.waitedUS,
	}, nil
}

func (m *Machine) deadlockError() error {
	var stuck []string
	for i := range m.nodes {
		nd := &m.nodes[i]
		if !nd.done {
			desc := "end"
			if nd.pc < len(nd.program) {
				desc = nd.program[nd.pc].String()
			}
			stuck = append(stuck, fmt.Sprintf("P%d@%d:%s", nd.id, nd.pc, desc))
			if len(stuck) >= 8 {
				stuck = append(stuck, "...")
				break
			}
		}
	}
	return fmt.Errorf("ipsc: simulation deadlocked at t=%.1fµs: %v", m.eng.Now(), stuck)
}

// handle dispatches one flat event from the engine. It is the only
// event sink; every scheduled event is one of the ev* kinds above.
func (m *Machine) handle(kind, a, b int32) {
	switch kind {
	case evAdvance:
		m.advance(&m.nodes[a])
	case evReady:
		sender := &m.nodes[a]
		sender.readyFrom[b] = true
		if sender.blocked && sender.pc < len(sender.program) {
			so := sender.program[sender.pc]
			if so.kind == opSendReady && so.peer == b {
				m.advance(sender)
			}
		}
	case evBarrier:
		m.releaseBarrier(int(a), int(b))
	case evXferDone:
		m.finishTransfer(a)
	case evExchDone:
		m.finishExchange(a)
	default:
		panic(fmt.Sprintf("ipsc: unknown event kind %d", kind))
	}
}

// advance executes ops of nd until it blocks or finishes. It must be
// called with the node unblocked and its engine free.
func (m *Machine) advance(nd *node) {
	nd.blocked = false
	for {
		if nd.pc >= len(nd.program) {
			if !nd.done {
				nd.done = true
				nd.finishUS = m.eng.Now()
			}
			return
		}
		o := nd.program[nd.pc]
		switch o.kind {
		case opDelay:
			nd.pc++
			if o.cost > 0 {
				m.eng.AfterEvent(o.cost, evAdvance, int32(nd.id), 0)
				return
			}

		case opPostRecv:
			// Post the buffer and fire the ready signal to the sender;
			// costs CPU locally, then the signal flies. The signal event
			// is scheduled first so a zero-flight tie still delivers the
			// signal before the local resume.
			src := int(o.peer)
			cost := m.params.PostOverheadUS
			flight := m.params.SignalTime(m.routes.Hops(nd.id, src))
			m.eng.AfterEvent(cost+flight, evReady, int32(src), int32(nd.id))
			nd.pc++
			m.eng.AfterEvent(cost, evAdvance, int32(nd.id), 0)
			return

		case opSendReady:
			if !nd.readyFrom[o.peer] {
				nd.blocked = true
				return
			}
			m.tryOrPark(m.addAttempt(attempt{
				src: int32(nd.id), dst: int32(o.peer), bytes: o.bytes,
				queuedAt: m.eng.Now(),
			}))
			return

		case opSendFire:
			m.tryOrPark(m.addAttempt(attempt{
				src: int32(nd.id), dst: int32(o.peer), bytes: o.bytes,
				queuedAt: m.eng.Now(),
			}))
			return

		case opSendAsync:
			nd.outstanding++
			m.tryOrPark(m.addAttempt(attempt{
				async: true, src: int32(nd.id), dst: int32(o.peer), bytes: o.bytes,
				queuedAt: m.eng.Now(),
			}))
			nd.pc++
			continue

		case opWaitSent:
			if nd.outstanding == 0 {
				nd.pc++
				continue
			}
			nd.blocked = true
			return

		case opBarrier:
			id := int(o.peer)
			m.growBarriers(id)
			m.barrierCount[id]++
			if int(m.barrierCount[id]) < len(m.nodes) {
				m.barrierWaiters[id] = append(m.barrierWaiters[id], int32(nd.id))
				nd.blocked = true
				return
			}
			// Last arrival: everyone pays the dissemination sweep —
			// log2(n) rounds of signal exchanges — then proceeds.
			rounds := 0
			for x := 1; x < len(m.nodes); x *= 2 {
				rounds++
			}
			cost := float64(rounds) * (m.params.SyncOverheadUS + m.params.SignalTime(1))
			m.eng.AfterEvent(cost, evBarrier, int32(id), int32(nd.id))
			return

		case opWaitRecv:
			if nd.arrived[o.peer] > 0 {
				nd.arrived[o.peer]--
				nd.pc++
				continue
			}
			nd.blocked = true
			return

		case opWaitAll:
			if nd.received >= nd.expected {
				nd.pc++
				continue
			}
			nd.blocked = true
			return

		case opExchange:
			peer := &m.nodes[o.peer]
			nd.atExchange = true
			if !peer.atExchange || peer.pc >= len(peer.program) {
				nd.blocked = true
				return
			}
			po := peer.program[peer.pc]
			if po.kind != opExchange || int(po.peer) != nd.id {
				nd.blocked = true
				return
			}
			// Rendezvous complete: attempt the exchange once, owned by
			// the lower id to avoid double-queueing.
			lo, hi := nd.id, int(o.peer)
			loBytes, hiBytes := o.bytes, po.bytes
			if lo > hi {
				lo, hi = hi, lo
				loBytes, hiBytes = hiBytes, loBytes
			}
			nd.blocked = true
			m.tryOrPark(m.addAttempt(attempt{
				exchange: true, src: int32(lo), dst: int32(hi),
				bytes: loBytes, backSize: hiBytes, queuedAt: m.eng.Now(),
			}))
			return

		default:
			panic(fmt.Sprintf("ipsc: unknown op kind %d", o.kind))
		}
	}
}

// growBarriers ensures the barrier arenas cover id.
func (m *Machine) growBarriers(id int) {
	for len(m.barrierCount) <= id {
		m.barrierCount = append(m.barrierCount, 0)
		m.barrierWaiters = append(m.barrierWaiters, nil)
	}
}

// releaseBarrier fires barrier id: the owner (last arrival) and every
// waiter resume, in arrival order. The waiter list is recycled.
func (m *Machine) releaseBarrier(id, owner int) {
	me := &m.nodes[owner]
	me.pc++
	m.advance(me)
	for _, w := range m.barrierWaiters[id] {
		wn := &m.nodes[w]
		wn.pc++
		m.advance(wn)
	}
	m.barrierWaiters[id] = m.barrierWaiters[id][:0]
}

// addAttempt appends a to the arena and returns its index.
func (m *Machine) addAttempt(a attempt) int32 {
	m.attempts = append(m.attempts, a)
	return int32(len(m.attempts) - 1)
}

// tryOrPark starts the attempt if its resources are free, otherwise
// parks it on the resource that blocked it. Every attempt comes here
// when it is created, so arena order is the order attempts first
// asked for resources.
func (m *Machine) tryOrPark(ai int32) {
	r := m.tryStart(ai)
	if r < 0 {
		return
	}
	if ch := r - len(m.nodes); ch >= 0 {
		m.chans.Watch(ch)
	}
	m.attempts[ai].next = m.parked[r]
	m.parked[r] = ai
}

// wake moves the attempts parked on resource r to the woken set.
func (m *Machine) wake(r int) {
	for ai := m.parked[r]; ai >= 0; ai = m.attempts[ai].next {
		m.woken = append(m.woken, ai)
	}
	m.parked[r] = -1
}

// release frees the channels of the route src->dst and wakes the
// attempts parked on them.
func (m *Machine) release(src, dst int32) {
	m.freed = m.chans.Release(int(src), int(dst), m.freed[:0])
	for _, ch := range m.freed {
		m.wake(len(m.nodes) + int(ch))
	}
}

// retryPending re-tries the woken attempts in arena order, parking
// again those still blocked. Called after every release. An attempt
// that was not woken is parked on a resource that is still held, so it
// could not start here: trying only the woken ones starts the same
// attempts, in the same order, as trying every blocked one would.
func (m *Machine) retryPending() {
	if len(m.woken) == 0 {
		return
	}
	slices.Sort(m.woken)
	for _, ai := range m.woken {
		m.tryOrPark(ai)
	}
	m.woken = m.woken[:0]
}

// tryStart checks resources and, if available, claims them, schedules
// the completion event and returns -1. Otherwise it claims nothing and
// returns the resource that blocked it, numbered as m.parked is.
func (m *Machine) tryStart(ai int32) int {
	// Unlike the finish handlers, tryStart never appends to the
	// attempt arena, so reading through the pointer is safe and skips
	// a struct copy on every try.
	a := &m.attempts[ai]
	if a.exchange {
		return m.tryStartExchange(ai)
	}
	// Short messages (the NX short protocol, <= 100 B) travel
	// fire-and-forget into the receiver's system buffer: they need the
	// circuit but not the receiver's engine. Long messages engage the
	// receiver: no two incoming at once, and a non-pairwise send and
	// receive at one node serialize (§2.2 observation 1) — a blocked
	// or idle receiver absorbs fine.
	short := a.bytes <= m.params.ShortMaxBytes
	if !short && m.busy[a.dst] != 0 {
		return int(a.dst)
	}
	// A node drives at most one outgoing circuit at a time; async
	// attempts from the same node wait behind the active one.
	if a.async && m.busy[a.src]&busyTx != 0 {
		return int(a.src)
	}
	if ch := m.chans.Claim(int(a.src), int(a.dst)); ch >= 0 {
		return len(m.nodes) + ch
	}
	hops := m.routes.Hops(int(a.src), int(a.dst))
	dur := m.params.TransferTime(a.bytes, hops)
	m.busy[a.src] |= busyTx
	if !short {
		m.busy[a.dst] |= busyRx
	}
	m.waitedUS += m.eng.Now() - a.queuedAt
	m.transfers++
	m.eng.AfterEvent(dur, evXferDone, ai, 0)
	return -1
}

// finishTransfer completes the unidirectional transfer attempts[ai]:
// release the circuit, deliver the message, resume the sender (or
// settle its async bookkeeping), wake a waiting receiver, and retry
// the attempts the release woke.
func (m *Machine) finishTransfer(ai int32) {
	a := m.attempts[ai]
	src, dst := &m.nodes[a.src], &m.nodes[a.dst]
	short := a.bytes <= m.params.ShortMaxBytes
	m.release(a.src, a.dst)
	m.busy[a.src] &^= busyTx
	m.wake(int(a.src))
	if !short {
		m.busy[a.dst] &^= busyRx
		m.wake(int(a.dst))
	}
	dst.arrived[a.src]++
	dst.received++
	if a.async {
		src.outstanding--
		if src.blocked && src.pc < len(src.program) &&
			src.program[src.pc].kind == opWaitSent && src.outstanding == 0 {
			m.advance(src)
		}
	} else {
		// Sender finished its blocking send op.
		src.pc++
		m.advance(src)
	}
	// Receiver may be waiting on this arrival.
	if dst.blocked && dst.pc < len(dst.program) {
		o := dst.program[dst.pc]
		if (o.kind == opWaitRecv && o.peer == a.src) || o.kind == opWaitAll {
			m.advance(dst)
		}
	}
	m.retryPending()
}

func (m *Machine) tryStartExchange(ai int32) int {
	a := &m.attempts[ai]
	// Both nodes are blocked at their exchange op; their engines are
	// dedicated. Other circuits may still occupy the routes.
	if m.busy[a.src] != 0 {
		return int(a.src)
	}
	if m.busy[a.dst] != 0 {
		return int(a.dst)
	}
	if ch := m.chans.Claim(int(a.src), int(a.dst)); ch >= 0 {
		return len(m.nodes) + ch
	}
	if ch := m.chans.Claim(int(a.dst), int(a.src)); ch >= 0 {
		// Give the forward route back. Its channels were free, so
		// nothing is parked on them and the release wakes no one.
		m.chans.Release(int(a.src), int(a.dst), nil)
		return len(m.nodes) + ch
	}
	hops := m.routes.Hops(int(a.src), int(a.dst))
	fwd, rev := 0.0, 0.0
	if a.bytes > 0 {
		fwd = m.params.TransferTime(a.bytes, hops)
	}
	if a.backSize > 0 {
		rev = m.params.TransferTime(a.backSize, hops)
	}
	// The pairwise synchronization itself is a 0-byte message exchange
	// (§2.2 observation 4: "the exchange of a dummy message"), so even
	// a data-less sync phase — LP walks all n-1 of them — costs the
	// signal flight plus software overhead.
	dur := m.params.SyncOverheadUS + m.params.SignalTime(hops) + maxf(fwd, rev)
	m.busy[a.src] = busyTx | busyRx
	m.busy[a.dst] = busyTx | busyRx
	m.waitedUS += m.eng.Now() - a.queuedAt
	m.exchanges++
	m.eng.AfterEvent(dur, evExchDone, ai, 0)
	return -1
}

// finishExchange completes the pairwise exchange attempts[ai]: release
// both circuits, deliver both directions, resume both partners, and
// retry the attempts the release woke.
func (m *Machine) finishExchange(ai int32) {
	a := m.attempts[ai]
	lo, hi := &m.nodes[a.src], &m.nodes[a.dst]
	m.release(a.src, a.dst)
	m.release(a.dst, a.src)
	m.busy[a.src] = 0
	m.busy[a.dst] = 0
	m.wake(int(a.src))
	m.wake(int(a.dst))
	lo.atExchange = false
	hi.atExchange = false
	if a.bytes > 0 {
		hi.arrived[a.src]++
		hi.received++
	}
	if a.backSize > 0 {
		lo.arrived[a.dst]++
		lo.received++
	}
	lo.pc++
	hi.pc++
	m.advance(lo)
	m.advance(hi)
	m.retryPending()
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
