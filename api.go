package unsched

import (
	"fmt"
	"math/rand"

	"unsched/internal/comm"
	"unsched/internal/costmodel"
	"unsched/internal/expt"
	"unsched/internal/hypercube"
	"unsched/internal/ipsc"
	"unsched/internal/mesh"
	"unsched/internal/quality"
	"unsched/internal/sched"
	"unsched/internal/service"
	"unsched/internal/topo"
	"unsched/internal/workload"
)

// Core types, re-exported so downstream code works entirely through
// this package.
type (
	// Matrix is the n x n communication matrix COM.
	Matrix = comm.Matrix
	// Message is one COM entry (source, destination, bytes).
	Message = comm.Message
	// Mesh is the irregular-mesh workload builder.
	Mesh = comm.Mesh
	// Cube is the hypercube topology with e-cube routing.
	Cube = hypercube.Cube
	// Mesh2D is the 2D mesh/torus topology with XY routing (the
	// Paragon-style successor network; the §5 generalization).
	Mesh2D = mesh.Mesh
	// Topology is any deterministic-routing network the link-aware
	// scheduler and the simulator can target.
	Topology = topo.Topology
	// TopologySpec is the canonical description of a topology — the
	// parse/format/validate layer behind the service's topology wire
	// field and the CLI's -topo flag. Specs round-trip through strings:
	// "cube:6", "mesh:8x8", "torus:16x16", "ring:12",
	// "graph:5:0-1,1-2,2-3,3-4,4-0".
	TopologySpec = topo.Spec
	// Graph is an arbitrary connected graph topology with canonical
	// BFS shortest-path routing (lowest-id tie-breaking) — the fully
	// general backend behind ring:N and graph:N:edges specs.
	Graph = topo.Graph
	// WorkloadSpec is the canonical description of a communication
	// workload — the parse/format/validate layer behind the service's
	// workload wire fields and the experiments CLI's -workload flag,
	// mirroring TopologySpec. Specs round-trip through strings such as
	// "uniform:8:4096" (the paper's d-regular sweep; "dregular" is an
	// accepted alias) and "halo:64x64:512"; README's Workloads table
	// lists every kind. Build the Matrix for an n-node machine with
	// Spec.Build(n, rng), or reuse a buffer with Spec.BuildInto.
	WorkloadSpec = workload.Spec
	// Schedule is an ordered list of contention-avoiding phases.
	Schedule = sched.Schedule
	// Phase is one partial permutation.
	Phase = sched.Phase
	// ACOrder is the (non-)schedule of the asynchronous algorithm.
	ACOrder = sched.ACOrder
	// Params is the machine timing model.
	Params = costmodel.Params
	// Result is a simulated run outcome.
	Result = ipsc.Result
	// ExperimentConfig parameterizes the paper's measurement protocol.
	ExperimentConfig = expt.Config
	// ExperimentRunner is the parallel campaign engine: it fans the
	// (workload, sample, algorithm) units of a measurement campaign
	// across a bounded worker pool with deterministic per-unit RNG
	// streams, so results are bit-identical at any parallelism. Sweep
	// arbitrary WorkloadSpec lists with MeasureWorkloads; the classic
	// density x size grids are uniform:* sweeps of the same engine.
	ExperimentRunner = expt.Runner
	// ExperimentPoint is one cell of a campaign grid: a WorkloadSpec,
	// or the classic (Density, MsgBytes) uniform-workload shorthand.
	ExperimentPoint = expt.Point
	// ExperimentCell is one measured (algorithm, workload) result.
	ExperimentCell = expt.Cell
	// ExperimentAlgorithm names one of the paper's four contenders.
	ExperimentAlgorithm = expt.Algorithm
	// SimMachine is a reusable single-run simulator instance; its Run
	// methods reset and reuse its state, avoiding per-run allocation.
	SimMachine = ipsc.Machine
	// SchedCore is a reusable scheduler instance: it owns the CCOM row
	// storage, occupancy tables, and busy vectors the algorithms need,
	// and re-initializes them in place per call — the scheduling-side
	// mirror of SimMachine's Reset-reuse contract. Create one per
	// goroutine; schedules are bit-identical to the package functions.
	// Recycle hands a finished schedule back so the next build reuses
	// its storage.
	SchedCore = sched.Core
	// RouteTable is a CSR-packed precomputation of all n^2
	// deterministic routes of a Topology: built once (O(n^2 * diameter)
	// memory), immutable, safe to share across any number of cores,
	// machines and goroutines. Past a hop budget it is lazy instead,
	// storing nothing and generating routes on the fly.
	RouteTable = topo.RouteTable
	// Server is the unschedd scheduling service: schedule/simulate/
	// campaign endpoints over a bounded worker pool with a
	// content-addressed memoization cache (see cmd/unschedd).
	Server = service.Server
	// ServerOptions configures a Server; the zero value is usable.
	ServerOptions = service.Options
	// ScheduleRequest is the body of the service's POST /v1/schedule.
	ScheduleRequest = service.ScheduleRequest
	// ScheduleResult is the memoized payload of a /v1/schedule response.
	ScheduleResult = service.ScheduleResult
	// SimulateRequest is the body of the service's POST /v1/simulate.
	SimulateRequest = service.SimulateRequest
	// SimulateResult is the memoized payload of a /v1/simulate response.
	SimulateResult = service.SimulateResult
	// ResponseEnvelope is the outer JSON document of every synchronous
	// service response: content-hash key, cached flag, raw result.
	ResponseEnvelope = service.Envelope
	// ErrorEnvelope is the body of every non-2xx service response: the
	// legacy bare message plus the versioned {code, message} detail.
	ErrorEnvelope = service.ErrorEnvelope
	// ErrorDetail is the structured half of an error response; branch
	// on its stable Code, never on message text.
	ErrorDetail = service.ErrorDetail
	// WireMatrix is the service wire form of a communication matrix.
	WireMatrix = service.WireMatrix
	// WireTopology is the service wire form of a topology.
	WireTopology = service.WireTopology
	// WireSchedule is the service wire form of a computed schedule.
	WireSchedule = service.WireSchedule
	// CampaignRequest is the body of POST /v1/campaign.
	CampaignRequest = service.CampaignRequest
	// CampaignAccepted is the 202 body of POST /v1/campaign.
	CampaignAccepted = service.CampaignAccepted
	// CampaignStatus is the body of GET /v1/campaign/{id}.
	CampaignStatus = service.CampaignStatus
	// BatchScheduleRequest is the body of POST /v1/schedule/batch.
	BatchScheduleRequest = service.BatchScheduleRequest
	// BatchItem is one NDJSON line of a batch response stream.
	BatchItem = service.BatchItem
	// BinaryResponse is a decoded binary service response envelope.
	BinaryResponse = service.BinaryResponse
	// SchedOutcome is the evaluation artifact every scheduling run
	// emits: the algorithm, its phase count, the estimated
	// communication time, the modeled scheduling cost, and the input
	// features the quality model bins on. Campaigns aggregate these
	// into QualityRecords — the calibration data behind algorithm
	// "auto".
	SchedOutcome = sched.Outcome
	// SchedFeatures is the feature vector algorithm "auto" resolves
	// on: node count, density, and message-size variation.
	SchedFeatures = sched.Features
	// QualityRecord is one calibration measurement: what one algorithm
	// cost on one (topology, workload) cell of a campaign grid.
	QualityRecord = quality.Record
	// QualityStore is the append-only calibration record file behind
	// ServerOptions.QualityStore (and the CLIs' -quality-db flags).
	QualityStore = quality.Store
	// QualityModel ranks algorithms by calibrated mean cost per
	// feature bin; its Pick answers what "auto" resolves to. A nil
	// model answers from the committed fallback table.
	QualityModel = quality.Model
	// PeerHealth is one fleet member's reachability in a /healthz
	// response; present only when the server runs in fleet mode
	// (ServerOptions.Peers). Advisory: unreachable peers never flip
	// the overall health status, because a fleet member always falls
	// back to computing locally.
	PeerHealth = service.PeerHealth
)

// Content types the service negotiates; see the README's wire-format
// section. JSON is the default; request the compact binary envelope
// with an Accept header; batch streams are NDJSON.
const (
	ContentTypeJSON   = service.ContentTypeJSON
	ContentTypeBinary = service.ContentTypeBinary
	ContentTypeNDJSON = service.ContentTypeNDJSON
)

// DecodeBinaryResponse parses a binary (application/x-unsched-binary)
// service response body. The decoder is total: malformed input yields
// an error, never a panic.
var DecodeBinaryResponse = service.DecodeBinaryResponse

// DecodeMatrixBinary parses the canonical binary wire encoding of a
// communication matrix (the "USWM" block; Matrix.EncodeBinary writes
// it). Total and strict: accepted payloads re-encode byte-identically.
var DecodeMatrixBinary = comm.DecodeMatrixBinary

// NewMatrix returns an empty n x n communication matrix.
func NewMatrix(n int) (*Matrix, error) { return comm.New(n) }

// NewCube returns the hypercube with 2^dim nodes; it panics on
// dimensions outside [0, 30], which are compile-time constants in any
// reasonable caller.
func NewCube(dim int) *Cube { return hypercube.MustNew(dim) }

// NewMesh2D returns a w x h mesh (torus if wrap) with XY routing.
func NewMesh2D(w, h int, wrap bool) (*Mesh2D, error) { return mesh.New(w, h, wrap) }

// NewRing returns the n-node ring with shorter-way-around routing.
func NewRing(n int) (*Graph, error) { return topo.NewRing(n) }

// NewGraph returns the connected graph over n nodes with the given
// undirected edges, routed by canonical BFS shortest paths with
// lowest-id tie-breaking. Any such graph drives the link-aware
// schedulers, the simulator, and the experiment engine.
func NewGraph(n int, edges [][2]int) (*Graph, error) { return topo.NewGraph(n, edges) }

// ParseTopologySpec parses a canonical topology spec string; see
// TopologySpec for the grammar. Build the Topology with Spec.Build.
func ParseTopologySpec(s string) (TopologySpec, error) { return topo.ParseSpec(s) }

// ParseWorkloadSpec parses a canonical workload spec string; see
// WorkloadSpec for the grammar. Build the pattern's Matrix for an
// n-node machine with Spec.Build(n, rng).
func ParseWorkloadSpec(s string) (WorkloadSpec, error) { return workload.ParseSpec(s) }

// Workload generators (see internal/comm for details). Each also has
// an XxxInto variant there that regenerates into a reused matrix; the
// WorkloadSpec layer is the string-addressable face of the same
// generators.
var (
	UniformRandom     = comm.UniformRandom
	DRegular          = comm.DRegular
	HotSpot           = comm.HotSpot
	BitComplement     = comm.BitComplement
	Shift             = comm.Shift
	AllToAll          = comm.AllToAll
	Permutation       = comm.Permutation
	Transpose         = comm.Transpose
	Stencil3D         = comm.Stencil3D
	SpMVPowerLaw      = comm.SpMVPowerLaw
	HaloFromPartition = comm.HaloFromPartition
	NewIrregularMesh  = comm.NewIrregularMesh
	MixedSizes        = comm.MixedSizes
	ReadMatrix        = comm.Read
)

// The paper's scheduling algorithms and the extension baselines.
var (
	// AC returns the asynchronous send order (paper §3).
	AC = sched.AC
	// ACShuffled randomizes each processor's firing order.
	ACShuffled = sched.ACShuffled
	// LP is the XOR linear-permutation schedule (paper §4.1).
	LP = sched.LP
	// RSN is randomized scheduling avoiding node contention (§4.2).
	RSN = sched.RSN
	// RSNL avoids node and link contention with pairwise priority (§5).
	RSNL = sched.RSNL
	// RSNLSized is the non-uniform-size variant of RSNL ([15]).
	RSNLSized = sched.RSNLSized
	// Greedy is the deterministic maximal-matching baseline.
	Greedy = sched.Greedy
	// GreedyLargestFirst handles non-uniform message sizes.
	GreedyLargestFirst = sched.GreedyLargestFirst
	// GreedyLargestFirstLinkFree adds link-contention avoidance.
	GreedyLargestFirstLinkFree = sched.GreedyLargestFirstLinkFree
)

// MeasureFeatures computes the feature vector of a matrix — the key
// the quality model bins calibration data on and what algorithm
// "auto" resolves from.
var MeasureFeatures = sched.MeasureFeatures

// OpenQualityStore opens (creating if absent) the append-only
// calibration record file at path.
func OpenQualityStore(path string) (*QualityStore, error) { return quality.Open(path) }

// LoadQualityModel loads the store at path and builds its calibrated
// model; an empty or missing store yields a fallback-only model.
func LoadQualityModel(path string) (*QualityModel, error) { return quality.LoadModel(path) }

// NewQualityModel builds a calibrated model from loaded records.
func NewQualityModel(recs []QualityRecord) *QualityModel { return quality.NewModel(recs) }

// DefaultIPSC860 returns the calibrated 64-node iPSC/860 timing model.
func DefaultIPSC860() Params { return costmodel.DefaultIPSC860() }

// DefaultIPSC2 returns the approximate timing model of the slower
// predecessor machine, for sensitivity checks.
func DefaultIPSC2() Params { return costmodel.DefaultIPSC2() }

// SimulateS1 runs a schedule under the S1 protocol (ready signals,
// pairwise exchanges) on the machine simulator. Use for LP and RSNL
// schedules; LP schedules get the exchange-every-phase semantics via
// SimulateLP.
func SimulateS1(net Topology, params Params, s *Schedule) (Result, error) {
	return simulate(net, params, "S1", s)
}

// SimulateS2 runs a schedule under the S2 protocol (post-all,
// send-all in schedule order, confirm). Use for RSN schedules.
func SimulateS2(net Topology, params Params, s *Schedule) (Result, error) {
	return simulate(net, params, "S2", s)
}

// SimulateLP runs an LP schedule with a pairwise-synchronized exchange
// in every phase, the way complete-exchange codes drive the machine.
func SimulateLP(net Topology, params Params, s *Schedule) (Result, error) {
	return simulate(net, params, "LP", s)
}

// SimulateAC runs the asynchronous algorithm on the machine simulator.
func SimulateAC(net Topology, params Params, o *ACOrder, m *Matrix) (Result, error) {
	mach, err := ipsc.NewMachine(net, params)
	if err != nil {
		return Result{}, err
	}
	return mach.RunAC(o, m)
}

// Simulate runs a schedule under the execution protocol the algorithm
// table pairs with its algorithm — LP for LP, S1 for the link-free
// schedules, S2 for the rest — the pairing /v1/simulate applies under
// "auto". A tag outside the table is an error, and so is AC, which has
// no phases: run it with SimulateAC.
func Simulate(net Topology, params Params, s *Schedule) (Result, error) {
	alg, ok := sched.Lookup(s.Algorithm)
	if !ok || alg.Build == nil {
		return Result{}, fmt.Errorf("unsched: Simulate takes a phased schedule of a table algorithm, got %q (run AC with SimulateAC)", s.Algorithm)
	}
	return simulate(net, params, alg.Protocol, s)
}

// simulate runs s under the named phased protocol on a new machine.
func simulate(net Topology, params Params, protocol string, s *Schedule) (Result, error) {
	mach, err := ipsc.NewMachine(net, params)
	if err != nil {
		return Result{}, err
	}
	return mach.Run(protocol, s)
}

// ScheduleFor runs the algorithm the paper recommends for the (d, M)
// operating point (Figure 5): AC for tiny messages, LP for dense
// large-message patterns, RS_NL otherwise. It returns a nil Schedule
// when AC is chosen (there is nothing to schedule).
func ScheduleFor(m *Matrix, cube *Cube, rng *rand.Rand) (*Schedule, error) {
	d := m.Density()
	bytes := m.MaxMessageBytes()
	params := DefaultIPSC860()
	switch {
	case bytes <= params.ShortMaxBytes:
		return nil, nil // AC: just fire asynchronously
	case d >= cube.Nodes()/2 && bytes > 1024:
		return LP(m)
	default:
		return RSNL(m, cube, rng)
	}
}

// DefaultExperimentConfig returns the paper's experiment setup (64
// nodes, calibrated model) with a reduced sample count; set Samples to
// 50 for the paper's exact protocol.
func DefaultExperimentConfig() ExperimentConfig { return expt.DefaultConfig() }

// NewExperimentRunner returns a parallel campaign runner over cfg.
// parallelism <= 0 uses one worker per GOMAXPROCS; set the runner's
// Progress field for streaming completion callbacks. Campaign output
// is bit-identical at every parallelism, including 1.
func NewExperimentRunner(cfg ExperimentConfig, parallelism int) *ExperimentRunner {
	return &ExperimentRunner{Config: cfg, Parallelism: parallelism}
}

// NewServer returns a running scheduling service (an http.Handler):
// POST /v1/schedule and /v1/simulate execute on a bounded worker pool
// of reusable SimMachines and are memoized by a canonical content hash
// of (matrix, algorithm, topology, params), POST /v1/campaign runs
// measurement grids asynchronously, and a full queue answers 429.
// Setting ServerOptions.CacheDir persists the memoization cache to
// disk and warm-restarts from it, so a rebooted daemon serves
// previously computed responses without recomputing. Setting
// ServerOptions.Peers (plus SelfURL) joins a fleet: rendezvous hashing
// assigns every cache key an owning member, misses on non-owned keys
// try a budgeted, hedged peer fetch before computing, and locally
// computed non-owned records are pushed to their owner asynchronously;
// every peer failure degrades to local compute. Close the server to
// drain workers, cancel campaigns, flush queued cache records, and
// drain pending peer pushes.
func NewServer(opts ServerOptions) (*Server, error) { return service.NewServer(opts) }

// NewSimMachine returns a reusable simulator for the topology and
// timing model. One machine drives many runs through its Run and RunAC
// methods without reallocating per-node state — create one per
// goroutine, as a Machine must not be shared concurrently.
func NewSimMachine(net Topology, params Params) (*SimMachine, error) {
	return ipsc.NewMachine(net, params)
}

// NewRouteTable returns the route table of net, to be shared read-only
// by any number of scheduler cores, simulator machines and goroutines.
// The table picks its own mode: it precomputes every deterministic
// route when the estimated footprint, n^2 * (diameter+1)/2 hop
// entries, fits a 2^26-hop budget (~268 MB), and otherwise stays lazy,
// generating each route on the fly.
func NewRouteTable(net Topology) *RouteTable { return topo.NewRouteTable(net) }

// NewSchedCore returns a reusable scheduler core for net over
// NewRouteTable(net). Drive it through its RSNL/RSN/LP/... methods; one
// core serves an arbitrarily long schedule sequence without
// reallocating scratch state. Create one per goroutine — a core must
// not be shared concurrently. For many cores over one topology, build
// the table once with NewRouteTable and use NewSchedCoreForTable.
func NewSchedCore(net Topology) *SchedCore { return sched.NewCore(net) }

// NewSchedCoreForTable returns a reusable scheduler core over a shared
// precomputed route table.
func NewSchedCoreForTable(rt *RouteTable) *SchedCore { return sched.NewCoreForTable(rt) }
