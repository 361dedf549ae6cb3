package service

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"unsched/internal/comm"
	"unsched/internal/expt"
	"unsched/internal/hypercube"
	"unsched/internal/topo"
	"unsched/internal/workload"
)

// CampaignRequest is the body of POST /v1/campaign: a measurement grid
// in the shape of the paper's §6 protocol, run asynchronously on any
// topology and workload the service knows. The grid axis comes in two
// mutually exclusive forms: the classic densities x sizes sweep of the
// paper's uniform workload, or an explicit list of workload specs
// (uniform:D:BYTES, hotspot:D:BYTES:HOT, halo:WxH:BYTES, ... — the
// same grammar the CLI's -workload flag takes; see workload.ParseSpec).
type CampaignRequest struct {
	Densities []int   `json:"densities,omitempty"`
	Sizes     []int64 `json:"sizes,omitempty"`
	// Workloads lists the grid's cells as canonical workload specs.
	// Mutually exclusive with Densities/Sizes. Each spec participates
	// in the campaign's content hash.
	Workloads []string `json:"workloads,omitempty"`
	// Samples per grid cell; the paper uses 50.
	Samples int   `json:"samples"`
	Seed    int64 `json:"seed,omitempty"`
	// Dim is the hypercube dimension (default 6, the 64-node machine).
	// Mutually exclusive with Topology.
	Dim int `json:"dim,omitempty"`
	// Topology names the machine the grid runs on — the same wire form
	// /v1/schedule and /v1/simulate take (cube, mesh, torus, ring,
	// graph). Absent means the hypercube picked by Dim. Its identity is
	// fingerprinted into the campaign's content hash.
	Topology *WireTopology `json:"topology,omitempty"`
	// Params picks the timing model: "ipsc860" (default) or "ipsc2".
	Params string `json:"params,omitempty"`
}

// CampaignCell is one measured (algorithm, workload) result. Density
// and MsgBytes carry the workload's nominal parameters (density 0 for
// the data-dependent kinds).
type CampaignCell struct {
	Algorithm string  `json:"algorithm"`
	Workload  string  `json:"workload"`
	Density   int     `json:"density"`
	MsgBytes  int64   `json:"msg_bytes"`
	CommMS    float64 `json:"comm_ms"`
	CommStd   float64 `json:"comm_std"`
	CompMS    float64 `json:"comp_ms"`
	Iters     float64 `json:"iters"`
}

// CampaignStatus is the body of GET /v1/campaign/{id}.
type CampaignStatus struct {
	ID    string `json:"id"`
	State string `json:"state"` // running | done | failed
	// Key is the campaign's content hash — every input that determines
	// the measured numbers (grid, samples, seed, params, topology) is
	// fingerprinted into it, exactly as schedule/simulate keys are, so
	// identical campaigns are identifiable across jobs and servers.
	Key string `json:"key"`
	// Topology is the canonical name of the machine measured.
	Topology string `json:"topology"`
	Done     int    `json:"done"`
	Total    int    `json:"total"`
	Error    string `json:"error,omitempty"`
	// Cells is populated when State is done, in (density, size,
	// algorithm) order with sizes varying faster than densities.
	Cells []CampaignCell `json:"cells,omitempty"`
}

const (
	campaignRunning = "running"
	campaignDone    = "done"
	campaignFailed  = "failed"
)

// campaignJob tracks one asynchronous grid measurement.
type campaignJob struct {
	id       string
	key      string
	topology string
	done     atomic.Int64
	total    int

	mu    sync.Mutex
	state string
	err   string
	cells []CampaignCell
}

func (j *campaignJob) status() CampaignStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return CampaignStatus{
		ID:       j.id,
		State:    j.state,
		Key:      j.key,
		Topology: j.topology,
		Done:     int(j.done.Load()),
		Total:    j.total,
		Error:    j.err,
		Cells:    j.cells,
	}
}

func (j *campaignJob) finish(cells []CampaignCell, err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if err != nil {
		j.state = campaignFailed
		j.err = err.Error()
		return
	}
	// Pin the progress counter before the state flips to done: the
	// counter is written by Progress callbacks on runner goroutines,
	// and a status() racing the flip must never see state done with
	// done < total.
	j.done.Store(int64(j.total))
	j.state = campaignDone
	j.cells = cells
}

// campaignRegistry holds jobs by id, bounding both the number of
// retained jobs (oldest finished jobs are evicted first) and the
// number running concurrently (each running campaign owns a worker
// pool of its own).
type campaignRegistry struct {
	mu      sync.Mutex
	jobs    map[string]*campaignJob
	order   []string // insertion order, for eviction
	nextID  int64
	maxJobs int
	running chan struct{} // semaphore over concurrent campaigns
}

func newCampaignRegistry(maxJobs, maxRunning int) *campaignRegistry {
	return &campaignRegistry{
		jobs:    make(map[string]*campaignJob),
		maxJobs: maxJobs,
		running: make(chan struct{}, maxRunning),
	}
}

// acquire takes a run slot without blocking; false means the service
// is already running its maximum number of campaigns.
func (r *campaignRegistry) acquire() bool {
	select {
	case r.running <- struct{}{}:
		return true
	default:
		return false
	}
}

func (r *campaignRegistry) release() { <-r.running }

// add registers a new running job, evicting the oldest finished job
// when the registry is full. It fails only when every retained job is
// still running.
func (r *campaignRegistry) add(total int, key, topology string) (*campaignJob, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.order) >= r.maxJobs {
		evicted := false
		for i, id := range r.order {
			j := r.jobs[id]
			j.mu.Lock()
			finished := j.state != campaignRunning
			j.mu.Unlock()
			if finished {
				delete(r.jobs, id)
				r.order = append(r.order[:i], r.order[i+1:]...)
				evicted = true
				break
			}
		}
		if !evicted {
			return nil, &apiError{status: 429, msg: "campaign registry full; poll existing campaigns first"}
		}
	}
	r.nextID++
	j := &campaignJob{id: fmt.Sprintf("c%06d", r.nextID), key: key, topology: topology,
		state: campaignRunning, total: total}
	r.jobs[j.id] = j
	r.order = append(r.order, j.id)
	return j, nil
}

func (r *campaignRegistry) get(id string) (*campaignJob, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	j, ok := r.jobs[id]
	return j, ok
}

// campaignLimits bound what one request may ask of the service.
const (
	maxCampaignDim     = 10  // 1024 simulated nodes
	maxCampaignSamples = 200 // 4x the paper's protocol
	maxCampaignCells   = 64  // grid points per campaign
	maxCampaignBytes   = 16 << 20
)

// resolveCampaign validates the request and builds the runner config,
// point grid, and content-hash key. The topology comes from the
// request's topology field (any kind the service speaks), or from Dim
// as a hypercube; the grid comes from an explicit workload-spec list
// or from the classic densities x sizes sweep — each pair mutually
// exclusive.
func resolveCampaign(req *CampaignRequest) (expt.Config, []expt.Point, string, error) {
	fail := func(err error) (expt.Config, []expt.Point, string, error) {
		return expt.Config{}, nil, "", err
	}
	if req.Topology != nil && req.Dim != 0 {
		return fail(badRequest("dim and topology are mutually exclusive; put the cube in topology"))
	}
	var net topo.Topology
	if req.Topology != nil {
		// resolveTopology enforces the maxServiceNodes cap from the spec
		// before paying for the build.
		var err error
		if net, err = resolveTopology(req.Topology, 0); err != nil {
			return fail(err)
		}
	} else {
		dim := req.Dim
		if dim == 0 {
			dim = 6
		}
		if dim < 1 || dim > maxCampaignDim {
			return fail(badRequest("dim %d out of range [1,%d]", dim, maxCampaignDim))
		}
		net = hypercube.MustNew(dim)
	}
	nodes := net.Nodes()
	// Campaigns keep the tighter classic cap even though single
	// schedule/simulate requests now go to maxServiceNodes: a grid
	// multiplies every run by cells x samples x algorithms, and the §6
	// protocol never needs more than the dim-10 cube.
	if nodes > 1<<maxCampaignDim {
		return fail(badRequest("campaign topology %s has %d nodes, limit %d", net.Name(), nodes, 1<<maxCampaignDim))
	}
	if err := expt.FitError(nodes); err != nil {
		// The §6 grid compares all four contenders; reject here instead
		// of letting the async job fail at its first cell.
		return fail(badRequest("campaigns cannot run on topology %s: %v", net.Name(), err))
	}
	if req.Samples < 1 || req.Samples > maxCampaignSamples {
		return fail(badRequest("samples %d out of range [1,%d]", req.Samples, maxCampaignSamples))
	}
	var specs []workload.Spec
	if len(req.Workloads) > 0 {
		if len(req.Densities) != 0 || len(req.Sizes) != 0 {
			return fail(badRequest("workloads and densities/sizes are mutually exclusive; express the sweep as uniform:D:BYTES specs"))
		}
		if len(req.Workloads) > maxCampaignCells {
			return fail(badRequest("grid has %d cells, limit %d", len(req.Workloads), maxCampaignCells))
		}
		for _, s := range req.Workloads {
			sp, err := resolveWorkloadSpec(s, nodes)
			if err != nil {
				return fail(err)
			}
			specs = append(specs, sp)
		}
	} else {
		if len(req.Densities) == 0 || len(req.Sizes) == 0 {
			return fail(badRequest("need at least one density and one size (or a workloads list)"))
		}
		if cells := len(req.Densities) * len(req.Sizes); cells > maxCampaignCells {
			return fail(badRequest("grid has %d cells, limit %d", cells, maxCampaignCells))
		}
		for _, d := range req.Densities {
			if d <= 0 || d >= nodes {
				return fail(badRequest("density %d out of range (0,%d) for the %d-node %s", d, nodes, nodes, net.Name()))
			}
		}
		for _, size := range req.Sizes {
			if size <= 0 || size > maxCampaignBytes {
				return fail(badRequest("size %d out of range (0,%d]", size, maxCampaignBytes))
			}
		}
		specs = expt.UniformSpecs(req.Densities, req.Sizes)
	}
	paramsName, params, err := resolveParams(req.Params)
	if err != nil {
		return fail(err)
	}
	seed := req.Seed
	if seed == 0 {
		seed = 1994
	}
	cfg := expt.Config{
		Topology: net,
		Params:   params,
		Samples:  req.Samples,
		Seed:     seed,
	}
	key := campaignKey(req, specs, net, paramsName, seed).Hex()
	return cfg, expt.WorkloadPoints(specs), key, nil
}

// resolveWorkloadSpec parses and gates one workload spec against an
// n-node machine: grammar, structural caps (element grids, degrees),
// machine fit, and the service's own size cap — all enforced from the
// spec string BEFORE any O(n^2) matrix or O(elements) mesh build,
// matching the topo.Spec gate.
func resolveWorkloadSpec(s string, nodes int) (workload.Spec, error) {
	sp, err := workload.ParseSpec(s)
	if err != nil {
		return workload.Spec{}, badRequest("%v", err)
	}
	if err := sp.ValidateFor(nodes); err != nil {
		return workload.Spec{}, badRequest("%v", err)
	}
	// Gate the worst-case single message, not the bare per-element
	// size: an aggregating kind multiplies its Bytes parameter by the
	// partition-boundary cross section, and the classic densities x
	// sizes path enforces this same cap per message.
	if mb := sp.MaxMessageBytes(); mb > maxCampaignBytes {
		return workload.Spec{}, badRequest("workload %s: worst-case message size %d exceeds the %d-byte limit", sp, mb, int64(maxCampaignBytes))
	}
	return sp, nil
}

// campaignKey hashes everything that determines a campaign's measured
// cells: the grid, samples, seed, timing model, and — like the
// schedule/simulate keys — the topology identity. Classic
// densities x sizes requests hash exactly as they did before the
// workload axis existed, so their keys are stable across versions; a
// workloads request hashes its canonical spec strings instead.
func campaignKey(req *CampaignRequest, specs []workload.Spec, net topo.Topology, paramsName string, seed int64) *comm.Digest {
	d := comm.NewDigest()
	d.String("campaign/v1")
	if len(req.Workloads) > 0 {
		d.String("workloads")
		d.Int64(int64(len(specs)))
		for _, sp := range specs {
			// Hash the canonical form, so "dregular:8:64" and
			// "uniform:8:64" share a key as they share results.
			d.String(sp.String())
		}
	} else {
		d.Int64(int64(len(req.Densities)))
		for _, v := range req.Densities {
			d.Int64(int64(v))
		}
		d.Int64(int64(len(req.Sizes)))
		for _, v := range req.Sizes {
			d.Int64(v)
		}
	}
	d.Int64(int64(req.Samples))
	d.Int64(seed)
	d.String(paramsName)
	fingerprintTopology(d, net)
	return d
}

// runCampaign executes the grid on its own expt.Runner and stores the
// outcome on the job. It is called on a dedicated goroutine; the
// context is the server's lifetime, so shutdown cancels mid-campaign
// jobs, which then report state failed. recalibrate (when non-nil)
// runs after measurement but BEFORE the job reports done, so a client
// that polls a campaign to completion is guaranteed the quality model
// already reflects it.
func runCampaign(ctx context.Context, j *campaignJob, cfg expt.Config, points []expt.Point, parallelism int, recalibrate func()) {
	runner := &expt.Runner{
		Config:      cfg,
		Parallelism: parallelism,
		Progress:    func(done, total int) { j.done.Store(int64(done)) },
	}
	cellMaps, err := runner.MeasureCells(ctx, points)
	if err != nil {
		j.finish(nil, err)
		return
	}
	var cells []CampaignCell
	for i := range points {
		for _, alg := range expt.Algorithms {
			c := cellMaps[i][alg]
			cells = append(cells, CampaignCell{
				Algorithm: string(alg),
				Workload:  c.Workload,
				Density:   c.Density,
				MsgBytes:  c.MsgBytes,
				CommMS:    c.CommMS,
				CommStd:   c.CommStd,
				CompMS:    c.CompMS,
				Iters:     c.Iters,
			})
		}
	}
	if recalibrate != nil {
		recalibrate()
	}
	j.finish(cells, nil)
}
