package sched

import (
	"math"

	"unsched/internal/comm"
	"unsched/internal/costmodel"
)

// Features are the matrix properties the portfolio meta-scheduler
// selects on: the axes of the paper's evaluation (§6). Density and
// message-size variation decide which algorithm wins (Table 1,
// Figs. 5–11), and the node count scales everything.
type Features struct {
	// Nodes is the processor count of the matrix.
	Nodes int `json:"nodes"`
	// Density is the maximum number of messages any processor sends
	// or receives — the d of a d-regular pattern, matching
	// comm.Matrix.Density.
	Density int `json:"density"`
	// SizeCV is the coefficient of variation (std/mean) of the
	// nonzero message sizes: 0 for uniform-size patterns, around 1
	// for power-law mixes. It separates the workloads where
	// size-aware scheduling (RS_NL_SZ, GREEDY_LF) pays off.
	SizeCV float64 `json:"size_cv"`
}

// MeasureFeatures computes a matrix's selection features in one
// O(n^2) pass. It is meant to run once per matrix at the harness
// layer (service request, campaign sample) — never inside the
// scheduling algorithms themselves, whose instrumented op counts must
// stay a faithful model of the paper's runtime cost.
func MeasureFeatures(m *comm.Matrix) Features {
	n := m.N()
	recv := make([]int, n)
	var count int64
	var sum, sumSq float64
	maxDeg := 0
	for i := 0; i < n; i++ {
		row := 0
		for j := 0; j < n; j++ {
			if b := m.At(i, j); b > 0 {
				row++
				recv[j]++
				fb := float64(b)
				sum += fb
				sumSq += fb * fb
				count++
			}
		}
		if row > maxDeg {
			maxDeg = row
		}
	}
	for _, r := range recv {
		if r > maxDeg {
			maxDeg = r
		}
	}
	f := Features{Nodes: n, Density: maxDeg}
	if count > 1 && sum > 0 {
		mean := sum / float64(count)
		variance := sumSq/float64(count) - mean*mean
		if variance > 0 {
			f.SizeCV = math.Sqrt(variance) / mean
		}
	}
	return f
}

// Outcome is the evaluation artifact of one algorithm run: which
// algorithm ran on what kind of matrix, what it cost to schedule
// (the paper's "comp" column, via the costmodel scaling), and — once
// the caller has simulated the schedule — what the communication
// quality was. Campaign workers persist Outcomes to the quality
// store; the store calibrates algorithm "auto".
type Outcome struct {
	// Algorithm is the canonical tag (AC, LP, RS_N, RS_NL, ...).
	Algorithm string `json:"algorithm"`
	// Phases is the schedule's phase count (0 for AC, which runs
	// asynchronously without one).
	Phases int `json:"phases"`
	// EstCommUS is the simulated or estimated communication time in
	// microseconds. The scheduling layer leaves it 0; the caller that
	// runs the simulator fills it in.
	EstCommUS float64 `json:"est_comm_us"`
	// SchedCostNS is the modeled scheduling cost in nanoseconds,
	// derived from the instrumented op count by costmodel.CompTimeNS.
	SchedCostNS int64 `json:"sched_cost_ns"`
	// Features are the matrix properties the run was measured on.
	Features
	// TopoName is the topology's canonical name ("hypercube-64",
	// "torus-8x8", ...), empty for topology-free cores.
	TopoName string `json:"topo_name"`
}

// TotalCostUS is the outcome's single-number quality: communication
// time plus modeled scheduling cost, in microseconds. The quality
// model ranks algorithms within a bin by the mean of this value.
func (o Outcome) TotalCostUS() float64 {
	return o.EstCommUS + float64(o.SchedCostNS)/1000
}

// lastRun records the cheap metadata of the core's most recent
// algorithm run — set by a constant-cost noteRun call at the end of
// every scheduling method, so emitting Outcomes costs the hot path
// nothing.
type lastRun struct {
	alg    string
	phases int
	ops    int64
}

func (c *Core) noteRun(alg string, phases int, ops int64) {
	c.last = lastRun{alg: alg, phases: phases, ops: ops}
}

// LastOutcome assembles the Outcome of the core's most recent
// algorithm run from the recorded run metadata, the caller-measured
// matrix features, and the cost model. EstCommUS is left 0 for the
// caller to fill after simulation.
func (c *Core) LastOutcome(f Features, params costmodel.Params) Outcome {
	o := Outcome{
		Algorithm:   c.last.alg,
		Phases:      c.last.phases,
		SchedCostNS: params.CompTimeNS(c.last.ops),
		Features:    f,
	}
	if c.rt != nil {
		o.TopoName = c.rt.Name()
	}
	return o
}
