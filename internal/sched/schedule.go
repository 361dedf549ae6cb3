// Package sched implements the paper's primary contribution: the
// decomposition of an all-to-many personalized communication matrix
// into a sequence of partial permutations (communication phases) that
// avoid node contention (RS_N), node and link contention (RS_NL), or
// both by construction (LP), plus the asynchronous baseline (AC).
//
// The algorithms follow Figures 1-4 of Wang & Ranka, "Scheduling of
// Unstructured Communication on the Intel iPSC/860", SC 1994. All of
// them are deterministic given the caller's *rand.Rand, so every
// experiment in the repository is reproducible from a seed.
package sched

import (
	"fmt"

	"unsched/internal/comm"
	"unsched/internal/topo"
)

// Phase is one partial permutation pm_k: Send[i] = j means Pi sends to
// Pj in this phase, Send[i] = -1 means Pi is silent (the paper's
// pm_k^i = -1). Bytes[i] carries the message size for Send[i].
type Phase struct {
	Send  []int
	Bytes []int64
}

// NewPhase returns an empty phase for n processors.
func NewPhase(n int) Phase {
	p := Phase{Send: make([]int, n), Bytes: make([]int64, n)}
	for i := range p.Send {
		p.Send[i] = -1
	}
	return p
}

// Messages returns the number of messages scheduled in the phase.
func (p Phase) Messages() int {
	count := 0
	for _, j := range p.Send {
		if j >= 0 {
			count++
		}
	}
	return count
}

// Recv derives the receive side of the permutation: Recv[j] = i iff
// Send[i] = j, else -1. It allocates; inner loops use RecvInto.
func (p Phase) Recv() []int { return p.RecvInto(make([]int, len(p.Send))) }

// RecvInto is Recv into recv, whose length must be at least the
// phase's width, and returns recv[:width].
func (p Phase) RecvInto(recv []int) []int {
	recv = recv[:len(p.Send)]
	for i := range recv {
		recv[i] = -1
	}
	for i, j := range p.Send {
		if j >= 0 {
			recv[j] = i
		}
	}
	return recv
}

// PairwiseCount returns the number of bidirectional exchanges in the
// phase: unordered pairs {i, j} with Send[i] = j and Send[j] = i.
// These are the transfers that proceed concurrently on the iPSC/860
// after pairwise synchronization.
func (p Phase) PairwiseCount() int {
	count := 0
	for i, j := range p.Send {
		if j > i && p.Send[j] == i {
			count++
		}
	}
	return count
}

// MaxBytes returns the largest message in the phase (the M in the
// paper's per-permutation cost tau + M*phi).
func (p Phase) MaxBytes() int64 {
	var mx int64
	for _, b := range p.Bytes {
		if b > mx {
			mx = b
		}
	}
	return mx
}

// Schedule is an ordered list of phases produced by one of the
// scheduling algorithms, plus the bookkeeping the experiments report:
// the algorithm name, the number of phases ("# iters" in Table 1), and
// the instrumented operation count that models scheduling cost ("comp"
// in Table 1).
type Schedule struct {
	Algorithm string
	N         int
	Phases    []Phase
	Ops       int64 // abstract scheduler operations, see costmodel.CompTime
}

// NumPhases returns the number of communication phases.
func (s *Schedule) NumPhases() int { return len(s.Phases) }

// TotalMessages returns the number of scheduled point-to-point sends.
func (s *Schedule) TotalMessages() int {
	total := 0
	for _, p := range s.Phases {
		total += p.Messages()
	}
	return total
}

// PairwiseFraction returns the fraction of scheduled messages that are
// halves of a bidirectional pairwise exchange.
func (s *Schedule) PairwiseFraction() float64 {
	total := s.TotalMessages()
	if total == 0 {
		return 0
	}
	pairs := 0
	for _, p := range s.Phases {
		pairs += p.PairwiseCount()
	}
	return float64(2*pairs) / float64(total)
}

// Validate checks the structural invariants every phase-based schedule
// must satisfy against its source matrix:
//
//  1. coverage — every nonzero COM(i,j) is scheduled in exactly one
//     phase, with the right size, and nothing else is scheduled;
//  2. node-contention freedom — within a phase each processor sends at
//     most one message and receives at most one message (the partial
//     permutation property, §2).
//
// Link contention is machine-specific; check it separately with
// ValidateLinkFree.
//
// It holds an n^2-bit set of the messages seen, 2 MiB at 4,096 nodes,
// where a dense n x n matrix of them took 128 MiB.
func (s *Schedule) Validate(m *comm.Matrix) error {
	n := s.N
	if n != m.N() {
		return fmt.Errorf("sched: schedule for %d processors, matrix has %d", n, m.N())
	}
	seen := make([]uint64, (n*n+63)/64)
	recvBusy := make([]bool, n)
	scheduled := 0
	for k, p := range s.Phases {
		if len(p.Send) != n || len(p.Bytes) != n {
			return fmt.Errorf("sched: phase %d has wrong width", k)
		}
		clear(recvBusy)
		for i, j := range p.Send {
			if j == -1 {
				if p.Bytes[i] != 0 {
					return fmt.Errorf("sched: phase %d: silent P%d has bytes %d", k, i, p.Bytes[i])
				}
				continue
			}
			if j < 0 || j >= n {
				return fmt.Errorf("sched: phase %d: P%d sends to invalid node %d", k, i, j)
			}
			if j == i {
				return fmt.Errorf("sched: phase %d: P%d sends to itself", k, i)
			}
			if recvBusy[j] {
				return fmt.Errorf("sched: phase %d: node contention at receiver P%d", k, j)
			}
			recvBusy[j] = true
			word, bit := (i*n+j)/64, uint64(1)<<((i*n+j)%64)
			if seen[word]&bit != 0 {
				return fmt.Errorf("sched: message P%d->P%d scheduled twice (again in phase %d)", i, j, k)
			}
			if want := m.At(i, j); want == 0 {
				return fmt.Errorf("sched: phase %d schedules P%d->P%d not present in COM", k, i, j)
			} else if p.Bytes[i] != want {
				return fmt.Errorf("sched: phase %d: P%d->P%d has %d bytes, COM says %d", k, i, j, p.Bytes[i], want)
			}
			seen[word] |= bit
			scheduled++
		}
	}
	// Every message seen is one of m's, with its size, and none twice,
	// so the schedule covers m exactly when the counts agree.
	if want := m.MessageCount(); scheduled != want {
		return fmt.Errorf("sched: schedule does not cover COM (%d of %d messages scheduled)", scheduled, want)
	}
	return nil
}

// ValidateLinkFree checks that within every phase the e-cube circuits
// of distinct transfers are disjoint at directed-channel granularity —
// the paper's link-contention freedom (§2). LP satisfies it by the
// XOR-permutation theorem; RS_NL by explicit path checking; RS_N in
// general does not.
func (s *Schedule) ValidateLinkFree(net topo.Topology) error {
	if net.Nodes() != s.N {
		return fmt.Errorf("sched: topology %s has %d nodes, schedule %d", net.Name(), net.Nodes(), s.N)
	}
	return s.validateLinkFree(topo.NewOccupancy(net))
}

// validateLinkFree is the occupancy-agnostic body of ValidateLinkFree;
// Core.ValidateLinkFree feeds it a reused table-backed occupancy.
func (s *Schedule) validateLinkFree(occ *topo.Occupancy) error {
	for k, p := range s.Phases {
		occ.Reset()
		for i, j := range p.Send {
			if j < 0 {
				continue
			}
			if occ.Claim(i, j) >= 0 {
				return fmt.Errorf("sched: phase %d: link contention on route P%d->P%d", k, i, j)
			}
		}
	}
	return nil
}

// LowerBoundPhases returns the paper's lower bound on the number of
// phases: the density of the matrix (assumption 3, §2.1).
func LowerBoundPhases(m *comm.Matrix) int { return m.Density() }

// String summarizes the schedule.
func (s *Schedule) String() string {
	return fmt.Sprintf("%s schedule: n=%d phases=%d messages=%d pairwise=%.0f%% ops=%d",
		s.Algorithm, s.N, s.NumPhases(), s.TotalMessages(), 100*s.PairwiseFraction(), s.Ops)
}
