// Package quality turns campaign measurements into the calibration
// artifact behind algorithm "auto".
//
// The paper's evaluation (§6–§7) is a cost/quality trade-off study:
// which scheduling algorithm wins depends on the pattern's density,
// message-size variation, and the machine's topology, and the
// algorithms' scheduling costs span three orders of magnitude. This
// package makes that study a first-class, persistent artifact:
//
//   - A Record is the aggregated sched.Outcome of one (topology,
//     workload, algorithm) cell — simulated communication time,
//     modeled scheduling cost, and the features the cell was
//     measured at.
//   - A Store is a content-addressed, append-only file of
//     internal/frame records, the checksummed frame the service's
//     disk cache writes too (magic "USQR" instead of "USCR").
//     Campaign workers append to it; corrupt tails are skipped on
//     load, and the latest record per key wins, so re-running a
//     campaign refreshes its cells in place.
//   - A Model loads the store, bins records by (node band, density
//     band, size-CV band, topology kind), and answers Pick with a
//     ranked algorithm list per bin — mean total cost ascending,
//     ties broken on the tag — falling back to a committed
//     calibration table (and finally a fixed default) when a bin has
//     no data.
//
// Everything here is deterministic: two servers sharing a store file
// build identical models and resolve "auto" to identical concrete
// tags, which is what lets the service substitute the chosen tag
// into its cache key without breaking cross-server bit-identity.
package quality

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"

	"unsched/internal/sched"
)

// Record is one calibration artifact: the outcome of running one
// algorithm on one (topology, workload) cell, averaged over the
// campaign's samples. Its identity — the store key — is the content
// hash of the (Topology, Workload, Algorithm) triple, so appending
// the same cell again supersedes the old measurement.
type Record struct {
	// Topology is the canonical topology name ("hypercube-64",
	// "torus-8x8", ...).
	Topology string `json:"topology"`
	// Workload is the canonical workload spec ("uniform:8:4096",
	// "spmv:8:256", ...).
	Workload string `json:"workload"`
	// Algorithm is the canonical tag (AC, LP, RS_N, RS_NL, ...).
	Algorithm string `json:"algorithm"`
	// Nodes, Density, SizeCV are the measured sched.Features of the
	// cell's matrices (averaged over samples for the randomized
	// kinds).
	Nodes   int     `json:"nodes"`
	Density int     `json:"density"`
	SizeCV  float64 `json:"size_cv"`
	// Phases is the mean phase count of the produced schedules.
	Phases float64 `json:"phases"`
	// EstCommUS is the mean simulated communication time (µs).
	EstCommUS float64 `json:"est_comm_us"`
	// SchedCostNS is the mean modeled scheduling cost (ns).
	SchedCostNS int64 `json:"sched_cost_ns"`
	// Samples is how many samples the means aggregate.
	Samples int `json:"samples"`
}

// FromOutcome is the record of one aggregated campaign outcome: the
// cell's workload spec, the sample count its means aggregate, and the
// outcome expt.Config.Outcomes hands its sink.
func FromOutcome(workload string, samples int, o sched.Outcome) Record {
	return Record{
		Topology: o.TopoName, Workload: workload, Algorithm: o.Algorithm,
		Nodes: o.Nodes, Density: o.Density, SizeCV: o.SizeCV,
		Phases: float64(o.Phases), EstCommUS: o.EstCommUS,
		SchedCostNS: o.SchedCostNS, Samples: samples,
	}
}

// Key returns the record's content-addressed store key: the hex
// SHA-256 of its (topology, workload, algorithm) identity under a
// versioned domain tag.
func (r Record) Key() string {
	h := sha256.New()
	fmt.Fprintf(h, "quality/v1\x00%s\x00%s\x00%s", r.Topology, r.Workload, r.Algorithm)
	return hex.EncodeToString(h.Sum(nil))
}

// TotalCostUS is the record's single-number quality: mean simulated
// communication time plus mean modeled scheduling cost, in
// microseconds. The model ranks algorithms within a bin by this.
func (r Record) TotalCostUS() float64 {
	return r.EstCommUS + float64(r.SchedCostNS)/1000
}

// valid reports whether a decoded record is structurally usable.
func (r Record) valid() bool {
	return r.Topology != "" && r.Workload != "" && r.Algorithm != "" &&
		r.Nodes >= 2 && r.Samples >= 1 && r.EstCommUS >= 0 && r.SchedCostNS >= 0
}

// TopoKind reduces a canonical topology name to its family:
// "hypercube-64" → "hypercube", "torus-8x8" → "torus". Names without
// a size suffix are their own kind.
func TopoKind(name string) string {
	if i := strings.IndexByte(name, '-'); i >= 0 {
		return name[:i]
	}
	return name
}
