package ipsc

import (
	"fmt"

	"unsched/internal/comm"
	"unsched/internal/costmodel"
	"unsched/internal/sched"
)

// opKind enumerates the primitive operations node programs are built
// from. They correspond to the NX-level actions the paper's execution
// schemes S1 and S2 compose (§6).
type opKind int32

const (
	// opDelay charges fixed CPU time (phase loop overhead, buffer
	// posting batches).
	opDelay opKind = iota
	// opPostRecv posts a receive buffer for a message from peer and
	// fires the 0-byte ready signal to it (S1).
	opPostRecv
	// opSendReady waits for peer's ready signal, then acquires the
	// circuit and transfers bytes (S1 send).
	opSendReady
	// opSendFire acquires the circuit and transfers without waiting
	// for a ready signal (S2 send; receives are pre-posted).
	opSendFire
	// opWaitRecv blocks until the message from peer has fully arrived.
	opWaitRecv
	// opWaitAll blocks until every message destined to this node has
	// arrived (S2's final confirmation step).
	opWaitAll
	// opExchange performs a pairwise-synchronized bidirectional
	// exchange with peer: both directions move concurrently after the
	// rendezvous (§2.2 observation 1).
	opExchange
	// opSendAsync initiates a transfer without blocking the program:
	// the node "can keep sending outgoing messages till they are all
	// done" (§3). At most one of a node's transfers is active at a
	// time, but a blocked one does not stall the others.
	opSendAsync
	// opWaitSent blocks until all of this node's asynchronous sends
	// have completed.
	opWaitSent
	// opBarrier blocks until every node has reached the same barrier
	// id — the "expensive global synchronization at the end of every
	// phase" that §6's loose synchrony exists to avoid. The barrier
	// itself costs a dissemination sweep once the last node arrives.
	opBarrier
)

// op is one program step: 24 bytes, so a node's program stays dense in
// cache while advance() walks it. peer is an int32 node id.
type op struct {
	bytes int64
	cost  float64 // opDelay only
	kind  opKind
	peer  int32
}

func (o op) String() string {
	switch o.kind {
	case opDelay:
		return fmt.Sprintf("delay(%.1fµs)", o.cost)
	case opPostRecv:
		return fmt.Sprintf("post(from=%d)", o.peer)
	case opSendReady:
		return fmt.Sprintf("sendReady(to=%d,%dB)", o.peer, o.bytes)
	case opSendFire:
		return fmt.Sprintf("sendFire(to=%d,%dB)", o.peer, o.bytes)
	case opWaitRecv:
		return fmt.Sprintf("waitRecv(from=%d)", o.peer)
	case opWaitAll:
		return "waitAll"
	case opExchange:
		return fmt.Sprintf("exchange(with=%d,%dB)", o.peer, o.bytes)
	case opSendAsync:
		return fmt.Sprintf("sendAsync(to=%d,%dB)", o.peer, o.bytes)
	case opWaitSent:
		return "waitSent"
	case opBarrier:
		return fmt.Sprintf("barrier(%d)", o.peer)
	default:
		return "?"
	}
}

// appendS1 compiles a phase schedule into per-node programs under the
// S1 protocol (paper §6), appending to whatever capacity the given
// per-node slices hold: at each phase, a receiver posts its buffer and
// signals the sender; the sender transfers on receipt of the signal;
// matched send/receive pairs between the same two nodes become
// pairwise exchanges. A receiver waits for its phase's arrival before
// moving on; no global synchronization separates the phases. This is
// the execution the paper uses for LP and RS_NL.
//
// withBarriers interleaves a global barrier after every phase — the
// strict phase synchronization the paper's algorithms assume in the
// abstract and that the S1 scheme was designed to avoid (§6). It
// exists for the ablation benchmark that prices loose synchrony
// against global synchronization.
func appendS1(programs [][]op, s *sched.Schedule, params costmodel.Params, withBarriers bool) [][]op {
	n := s.N
	for k, p := range s.Phases {
		recv := p.Recv()
		for i := 0; i < n; i++ {
			programs[i] = append(programs[i], op{kind: opDelay, cost: params.LoopOverheadUS})
			j := p.Send[i]
			r := recv[i]
			switch {
			case j >= 0 && r == j:
				// Bidirectional pair: both nodes compile the exchange.
				programs[i] = append(programs[i], op{kind: opExchange, peer: int32(j), bytes: p.Bytes[i]})
			default:
				// Post first (never blocks), then the blocking ops, so
				// every phase's ready signals fire before anyone
				// stalls. Waiting for the phase's own arrival is the
				// loose synchrony that keeps later phases aligned —
				// and with them, the contention-freedom the scheduler
				// arranged.
				if r >= 0 {
					programs[i] = append(programs[i], op{kind: opPostRecv, peer: int32(r)})
				}
				if j >= 0 {
					programs[i] = append(programs[i], op{kind: opSendReady, peer: int32(j), bytes: p.Bytes[i]})
				}
				if r >= 0 {
					programs[i] = append(programs[i], op{kind: opWaitRecv, peer: int32(r)})
				}
			}
			if withBarriers {
				programs[i] = append(programs[i], op{kind: opBarrier, peer: int32(k)})
			}
		}
	}
	return programs
}

// appendS2 compiles a phase schedule into per-node programs under the
// S2 protocol (paper §6), appending to the given per-node slices and
// using recvCount (len >= s.N, zeroed here) as the receive-tally
// scratch: every node pre-posts all its receive buffers, fires its
// sends in schedule order without waiting for any signal, and finally
// confirms all arrivals. The phase structure survives only as the send
// ordering — which is precisely what the paper says S2 is
// ("essentially the scheme described in Section 3, with the
// communication ordering chosen to reduce contention"). Used for RS_N.
func appendS2(programs [][]op, s *sched.Schedule, params costmodel.Params, recvCount []int) [][]op {
	n := s.N
	recvCount = recvCount[:n]
	clear(recvCount)
	for _, p := range s.Phases {
		for _, j := range p.Send {
			if j >= 0 {
				recvCount[j]++
			}
		}
	}
	for i := 0; i < n; i++ {
		// Posting all buffers up front costs CPU proportional to the
		// number of expected messages.
		programs[i] = append(programs[i], op{kind: opDelay, cost: float64(recvCount[i]) * params.PostOverheadUS})
	}
	for _, p := range s.Phases {
		for i := 0; i < n; i++ {
			// Walking the scheduling table costs per-phase bookkeeping
			// on every node, sender or not.
			programs[i] = append(programs[i], op{kind: opDelay, cost: params.PhaseSoftwareUS})
			if j := p.Send[i]; j >= 0 {
				programs[i] = append(programs[i], op{kind: opSendFire, peer: int32(j), bytes: p.Bytes[i]})
			}
		}
	}
	for i := 0; i < n; i++ {
		programs[i] = append(programs[i], op{kind: opWaitAll})
	}
	return programs
}

// A ScheduleError is a run refused because the schedule does not fit
// the protocol it was asked to run under: the input's fault, not the
// machine's. Callers that serve clients answer it as a bad request.
type ScheduleError struct{ msg string }

func (e *ScheduleError) Error() string { return e.msg }

// appendLP compiles an LP schedule into per-node programs, appending
// to the given per-node slices: each node performs a
// pairwise-synchronized exchange with its XOR partner in *every*
// phase, with or without data — exactly how complete-exchange codes
// drive the iPSC/860 (§4.1: "the entire communication uses pairwise
// exchanges"). A data-less phase still costs the synchronization
// handshake, which is why LP is expensive at low density. The schedule
// must come from sched.LP (phase k pairs i with i XOR (k+1)); any
// other schedule is a *ScheduleError.
func appendLP(programs [][]op, s *sched.Schedule, params costmodel.Params) ([][]op, error) {
	if s.Algorithm != "LP" {
		return nil, &ScheduleError{fmt.Sprintf("ipsc: the LP protocol needs an LP schedule, got %s", s.Algorithm)}
	}
	n := s.N
	for k, p := range s.Phases {
		for i := 0; i < n; i++ {
			partner := i ^ (k + 1)
			if p.Send[i] >= 0 && p.Send[i] != partner {
				return nil, &ScheduleError{fmt.Sprintf("ipsc: phase %d sends %d->%d, not the XOR partner %d",
					k, i, p.Send[i], partner)}
			}
			programs[i] = append(programs[i],
				op{kind: opDelay, cost: params.LoopOverheadUS},
				op{kind: opExchange, peer: int32(partner), bytes: p.Bytes[i]})
		}
	}
	return programs, nil
}

// appendAC compiles the asynchronous algorithm (paper §3, Figure 1)
// into node programs, appending to the given per-node slices:
// pre-post everything, fire the whole send vector in order (csend
// semantics: each long-protocol send blocks until the transfer
// completes), then confirm arrivals.
//
// async compiles the idealized variant with unbounded asynchronous
// send depth instead: a send blocked on a busy receiver does not stall
// the rest of the send vector. Real NX csend cannot do this for
// long-protocol messages; the variant exists for the ablation
// benchmark that measures how much of AC's large-message collapse is
// head-of-line blocking versus raw contention.
func appendAC(programs [][]op, o *sched.ACOrder, m *comm.Matrix, params costmodel.Params, async bool) [][]op {
	n := o.N
	for i := 0; i < n; i++ {
		programs[i] = append(programs[i], op{kind: opDelay, cost: float64(m.RecvDegree(i)) * params.PostOverheadUS})
		for _, j := range o.Order[i] {
			if async {
				programs[i] = append(programs[i],
					op{kind: opDelay, cost: params.PostOverheadUS},
					op{kind: opSendAsync, peer: int32(j), bytes: m.At(i, j)})
			} else {
				programs[i] = append(programs[i], op{kind: opSendFire, peer: int32(j), bytes: m.At(i, j)})
			}
		}
		if async {
			programs[i] = append(programs[i], op{kind: opWaitSent})
		}
		programs[i] = append(programs[i], op{kind: opWaitAll})
	}
	return programs
}

// compiler compiles a phased schedule into node programs in the
// machine's compile arena.
type compiler func(m *Machine, s *sched.Schedule) ([][]op, error)

// phased names the protocols a phased schedule runs under, in the
// order error messages list them: S1 and S2 (§6) and LP's exchange in
// every phase (§4.1). Machine.Run dispatches on it and
// PhasedProtocols reports it.
var phased = []struct {
	name    string
	compile compiler
}{
	{"S1", func(m *Machine, s *sched.Schedule) ([][]op, error) {
		return appendS1(m.progArena(), s, m.params, false), nil
	}},
	{"S2", func(m *Machine, s *sched.Schedule) ([][]op, error) {
		return appendS2(m.progArena(), s, m.params, m.recvArena()), nil
	}},
	{"LP", func(m *Machine, s *sched.Schedule) ([][]op, error) {
		return appendLP(m.progArena(), s, m.params)
	}},
}

// PhasedProtocols returns the protocol names Run accepts, in the order
// error messages list them.
func PhasedProtocols() []string {
	names := make([]string, len(phased))
	for i, p := range phased {
		names[i] = p.name
	}
	return names
}

// Run resets the machine and simulates the phased schedule s under
// the named execution protocol, one of PhasedProtocols: the protocols
// a sched.Algorithm entry pairs with a phased schedule. AC runs take a
// send order and the matrix instead; use RunAC.
func (m *Machine) Run(protocol string, s *sched.Schedule) (Result, error) {
	for _, p := range phased {
		if p.name == protocol {
			return m.runPhased(s, p.compile)
		}
	}
	return Result{}, fmt.Errorf("ipsc: no phased protocol %q (want %s)", protocol, sched.WantList(PhasedProtocols()...))
}

// RunS1 is Run under the S1 protocol.
func (m *Machine) RunS1(s *sched.Schedule) (Result, error) { return m.Run("S1", s) }

// RunS2 is Run under the S2 protocol.
func (m *Machine) RunS2(s *sched.Schedule) (Result, error) { return m.Run("S2", s) }

// RunLP is Run under the LP protocol.
func (m *Machine) RunLP(s *sched.Schedule) (Result, error) { return m.Run("LP", s) }

// RunS1Barrier resets the machine and simulates s under S1 with a
// global barrier after every phase.
func (m *Machine) RunS1Barrier(s *sched.Schedule) (Result, error) {
	return m.runPhased(s, func(m *Machine, s *sched.Schedule) ([][]op, error) {
		return appendS1(m.progArena(), s, m.params, true), nil
	})
}

// RunAC resets the machine and simulates the asynchronous algorithm's
// send order o on the matrix.
func (m *Machine) RunAC(o *sched.ACOrder, com *comm.Matrix) (Result, error) {
	return m.runAC(o, com, false)
}

// RunACAsync is RunAC with unbounded asynchronous send depth.
func (m *Machine) RunACAsync(o *sched.ACOrder, com *comm.Matrix) (Result, error) {
	return m.runAC(o, com, true)
}

// runPhased is the preamble of every phased run: it checks s against
// the machine's size, compiles it, resets the machine and runs it.
func (m *Machine) runPhased(s *sched.Schedule, compile compiler) (Result, error) {
	if m.routes.Nodes() != s.N {
		return Result{}, fmt.Errorf("ipsc: topology %d nodes vs schedule %d", m.routes.Nodes(), s.N)
	}
	programs, err := compile(m, s)
	if err != nil {
		return Result{}, err
	}
	m.Reset()
	return m.run(programs)
}

// runAC is runPhased for the asynchronous algorithm's send order.
func (m *Machine) runAC(o *sched.ACOrder, com *comm.Matrix, async bool) (Result, error) {
	if m.routes.Nodes() != o.N || com.N() != o.N {
		return Result{}, fmt.Errorf("ipsc: size mismatch topology=%d order=%d matrix=%d",
			m.routes.Nodes(), o.N, com.N())
	}
	m.Reset()
	return m.run(appendAC(m.progArena(), o, com, m.params, async))
}

// progArena returns the machine's per-node program slices, truncated
// for reuse: one entry per node, each emptied but keeping whatever
// capacity previous runs grew, so steady-state compilation appends
// into warm storage and allocates nothing.
func (m *Machine) progArena() [][]op {
	n := len(m.nodes)
	for len(m.progs) < n {
		m.progs = append(m.progs, nil)
	}
	progs := m.progs[:n]
	for i := range progs {
		progs[i] = progs[i][:0]
	}
	return progs
}

// recvArena returns the reusable S2 receive-count scratch.
func (m *Machine) recvArena() []int {
	if n := len(m.nodes); cap(m.recvScratch) < n {
		m.recvScratch = make([]int, n)
	}
	return m.recvScratch[:len(m.nodes)]
}
