package service

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"

	"unsched/internal/comm"
	"unsched/internal/costmodel"
	"unsched/internal/hypercube"
	"unsched/internal/sched"
	"unsched/internal/topo"
	"unsched/internal/workload"
)

// maxRequestBytes bounds a request body. Bodies are decoded on the
// HTTP goroutine before pool backpressure can engage, so this cap —
// sized to fit a fully dense maxServiceNodes matrix (~24 MB of
// triples) with headroom and nothing more — is the per-connection
// memory bound. Larger bodies get an explicit 413.
const maxRequestBytes = 32 << 20

// maxServiceNodes bounds the machine size one synchronous request may
// target. Simulator state is O(n^2) — ~80 MiB at this cap — so huge
// machines are built per request instead of cached (see
// worker.machine), and their route tables fall back to lazy on-the-fly
// routing instead of the precomputed dense form (see
// topo.NewRouteTable).
// Campaigns stay capped at 1 << maxCampaignDim nodes: a grid multiplies
// the per-run cost by cells x samples x algorithms.
const maxServiceNodes = 4096

// Stable machine-readable error codes, carried in every error
// response's envelope (ErrorEnvelope.Err.Code). Clients branch on
// these, never on message text: messages may be reworded, codes are a
// versioned contract.
const (
	CodeBadRequest          = "bad_request"
	CodeUnknownAlgorithm    = "unknown_algorithm"
	CodeBackpressure        = "backpressure"
	CodePayloadTooLarge     = "payload_too_large"
	CodeNotAcceptable       = "not_acceptable"
	CodeUnsupportedMedia    = "unsupported_media_type"
	CodeNotFound            = "not_found"
	CodeClientClosedRequest = "client_closed_request"
	CodeShuttingDown        = "shutting_down"
	CodeSimulationLimit     = "simulation_limit"
	CodeInternal            = "internal"
)

// codeForStatus maps an HTTP status to its default error code; errors
// carrying a more specific condition set their code explicitly.
func codeForStatus(status int) string {
	switch status {
	case http.StatusBadRequest:
		return CodeBadRequest
	case http.StatusNotAcceptable:
		return CodeNotAcceptable
	case http.StatusUnsupportedMediaType:
		return CodeUnsupportedMedia
	case http.StatusNotFound:
		return CodeNotFound
	case http.StatusRequestEntityTooLarge:
		return CodePayloadTooLarge
	case http.StatusTooManyRequests:
		return CodeBackpressure
	case statusClientClosedRequest:
		return CodeClientClosedRequest
	case http.StatusServiceUnavailable:
		return CodeShuttingDown
	default:
		return CodeInternal
	}
}

// apiError is an error with an HTTP status and a stable machine
// readable code. Handlers convert every failure into one so clients
// always get a structured error document.
type apiError struct {
	status int
	code   string // empty means codeForStatus(status)
	msg    string
}

func (e *apiError) Error() string { return e.msg }

// Code returns the error's stable machine-readable code.
func (e *apiError) Code() string {
	if e.code != "" {
		return e.code
	}
	return codeForStatus(e.status)
}

func badRequest(format string, args ...any) *apiError {
	return &apiError{status: http.StatusBadRequest, msg: fmt.Sprintf(format, args...)}
}

// codedRequest is badRequest with a specific machine-readable code.
func codedRequest(code, format string, args ...any) *apiError {
	return &apiError{status: http.StatusBadRequest, code: code, msg: fmt.Sprintf(format, args...)}
}

// --- wire types -----------------------------------------------------

// WireMatrix is the wire form of a communication matrix: the dimension
// and the nonzero entries as [src, dst, bytes] triples.
type WireMatrix struct {
	N        int         `json:"n"`
	Messages WireTriples `json:"messages"`
}

// WireTopology names the network a request targets, in either of two
// equivalent forms: the structured fields (kind "cube" uses Dim,
// "mesh"/"torus" use W x H, "ring"/"graph" use N and Edges), or the
// canonical spec string ("torus:8x8" — the same grammar the CLI's
// -topo flag takes; see topo.ParseSpec). Setting both is an error.
type WireTopology struct {
	Kind  string   `json:"kind,omitempty"`
	Dim   int      `json:"dim,omitempty"`
	W     int      `json:"w,omitempty"`
	H     int      `json:"h,omitempty"`
	N     int      `json:"n,omitempty"`
	Edges [][2]int `json:"edges,omitempty"`
	Spec  string   `json:"spec,omitempty"`
}

// ScheduleRequest is the body of POST /v1/schedule. The pattern to
// schedule comes in one of two mutually exclusive forms: an explicit
// matrix, or a workload spec the service generates server-side
// (deterministically, from the request's content hash) against an
// explicitly sized topology.
type ScheduleRequest struct {
	Matrix *WireMatrix `json:"matrix,omitempty"`
	// Workload names a generated pattern by its canonical spec
	// ("uniform:8:4096", "halo:64x64:512", ... — see
	// workload.ParseSpec). Requires an explicit topology (the spec is
	// machine-sized at build time) and excludes Matrix. The spec
	// participates in the cache key, and the generated matrix is
	// returned in the result so the client can feed /v1/simulate.
	Workload string `json:"workload,omitempty"`
	// Algorithm is a tag of the algorithm table (sched.Algorithms) or
	// "auto" (the default). Auto resolves to a concrete tag BEFORE the
	// request is fingerprinted — through the calibrated quality model
	// when the daemon has one (see Options.QualityStore), through the
	// committed fallback table otherwise — so an auto request shares
	// its cache slot, ETag, and bit-identical response with the
	// equivalent direct request.
	Algorithm string        `json:"algorithm,omitempty"`
	Topology  *WireTopology `json:"topology,omitempty"`
	// AutoRace, with algorithm "auto", additionally runs the model's
	// top-ranked candidates on free workers and answers with the one
	// whose simulated makespan plus modeled scheduling time is lowest
	// (ties broken on the tag, so the winner is deterministic). Every
	// candidate is computed under its own content key, so racing warms
	// the cache for the losers too. Ignored for concrete algorithms.
	AutoRace bool `json:"auto_race,omitempty"`
	// Seed perturbs the randomized schedulers and the generated
	// workload. It is part of the cache key; the effective RNG seed is
	// derived from the full request content, so identical requests
	// always produce identical patterns and schedules, seed field
	// present or not.
	Seed int64 `json:"seed,omitempty"`
}

// WirePhase is one schedule phase as [src, dst, bytes] triples.
type WirePhase = WireTriples

// WireSchedule is the wire form of a computed schedule, reusable as
// the input of /v1/simulate.
type WireSchedule struct {
	Algorithm string      `json:"algorithm"`
	N         int         `json:"n"`
	Ops       int64       `json:"ops"`
	Phases    []WirePhase `json:"phases"`
}

// ScheduleResult is the cached payload of a /v1/schedule response.
type ScheduleResult struct {
	// Chosen is the concrete algorithm that ran ("auto" resolves here).
	Chosen   string `json:"chosen"`
	Topology string `json:"topology"`
	// Workload is the canonical spec of a server-generated pattern
	// (requests that sent an explicit matrix omit it).
	Workload string `json:"workload,omitempty"`
	// Matrix echoes the server-generated pattern for workload requests,
	// so the client can hand it to /v1/simulate (AC runs need it) or
	// inspect what was scheduled.
	Matrix *WireMatrix `json:"matrix,omitempty"`
	// Seed is the effective RNG seed, derived from the request content.
	Seed     int64         `json:"seed"`
	LinkFree bool          `json:"link_free"`
	Schedule *WireSchedule `json:"schedule"`
}

// SimulateRequest is the body of POST /v1/simulate. Algorithm AC needs
// Matrix instead of Schedule phases; everything else needs Schedule.
type SimulateRequest struct {
	Schedule *WireSchedule `json:"schedule"`
	Matrix   *WireMatrix   `json:"matrix,omitempty"`
	Topology *WireTopology `json:"topology,omitempty"`
	// Params picks the timing model: "ipsc860" (default) or "ipsc2".
	Params string `json:"params,omitempty"`
	// Protocol is "auto" (default: the pairing the paper uses for the
	// schedule's algorithm), "S1", "S2", or "LP".
	Protocol string `json:"protocol,omitempty"`
}

// SimulateResult is the cached payload of a /v1/simulate response.
type SimulateResult struct {
	Topology       string  `json:"topology"`
	Protocol       string  `json:"protocol"`
	MakespanUS     float64 `json:"makespan_us"`
	MakespanMS     float64 `json:"makespan_ms"`
	Transfers      int     `json:"transfers"`
	Exchanges      int     `json:"exchanges"`
	ResourceWaitUS float64 `json:"resource_wait_us"`
}

// Envelope is the outer document of every synchronous response. Result
// is the memoized part: on a cache hit it is returned byte for byte as
// first computed. The daemon writes the document by hand
// (newEnvelope) in exactly json.Marshal's form of this type.
type Envelope struct {
	Key    string          `json:"key"`
	Cached bool            `json:"cached"`
	Result json.RawMessage `json:"result"`
}

// CampaignAccepted is the 202 body of POST /v1/campaign: where the
// accepted job lives. Key is the campaign's content-hash identity, so
// a client can recognize a re-submitted grid.
type CampaignAccepted struct {
	ID  string `json:"id"`
	Key string `json:"key"`
	URL string `json:"url"`
}

// HealthStatus is the body of GET /healthz.
type HealthStatus struct {
	Status  string `json:"status"`
	Workers int    `json:"workers"`
	// Peers reports per-peer reachability in fleet mode (absent solo).
	// Unreachable peers never flip Status: fleet lookups degrade to
	// local compute, so peer health is advisory, not liveness.
	Peers []PeerHealth `json:"peers,omitempty"`
}

// PeerHealth is one fleet peer's reachability as probed by /healthz.
type PeerHealth struct {
	URL       string `json:"url"`
	Reachable bool   `json:"reachable"`
}

// ErrorDetail is the structured half of an error response: a stable
// machine-readable code (one of the Code* constants) plus the human
// message.
type ErrorDetail struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// ErrorEnvelope is the body of every non-2xx response. Error is the
// legacy bare-message field, kept for one release so existing clients
// keep parsing; Err carries the versioned structured form — new
// clients should branch on Err.Code and ignore Error.
type ErrorEnvelope struct {
	Error string      `json:"error"`
	Err   ErrorDetail `json:"error_v2"`
}

// --- decoding and resolution ----------------------------------------

// bodyPool recycles request-body buffers. releaseBody drops a buffer
// grown past maxPooledBody instead: one 32 MiB upload must not stay
// pinned for the daemon's lifetime.
var bodyPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

const maxPooledBody = 1 << 20

// readBody reads the whole request body, capped at limit bytes, into a
// pooled buffer the caller hands back with releaseBody. A body over
// the cap is an explicit 413 instead of a misleading truncation error,
// whether it declares its length up front or arrives chunked.
func readBody(r *http.Request, limit int64) (*bytes.Buffer, error) {
	if r.ContentLength > limit {
		return nil, &apiError{status: http.StatusRequestEntityTooLarge,
			msg: fmt.Sprintf("request body %d bytes exceeds limit %d", r.ContentLength, limit)}
	}
	// The buffer grows only as bytes arrive, never to the declared
	// length up front: a client that declares the cap and then stalls
	// must not pin the cap's worth of memory.
	buf := bodyPool.Get().(*bytes.Buffer)
	buf.Reset()
	_, err := buf.ReadFrom(io.LimitReader(r.Body, limit+1))
	switch {
	case err != nil:
		err = badRequest("bad request body: %v", err)
	case int64(buf.Len()) > limit:
		err = &apiError{status: http.StatusRequestEntityTooLarge,
			msg: fmt.Sprintf("request body exceeds limit %d", limit)}
	}
	if err != nil {
		releaseBody(buf)
		return nil, err
	}
	return buf, nil
}

// releaseBody returns a readBody buffer to the pool.
func releaseBody(buf *bytes.Buffer) {
	if buf.Cap() <= maxPooledBody {
		bodyPool.Put(buf)
	}
}

// readJSON reads a request body within maxRequestBytes and strictly
// decodes it into v.
func readJSON(r *http.Request, v any) error {
	body, err := readBody(r, maxRequestBytes)
	if err != nil {
		return err
	}
	defer releaseBody(body)
	return decodeBody(body.Bytes(), v)
}

// decodeBody strictly decodes body, one JSON document, into v: a
// schedule or simulate request in one pass (decodeStrict), anything
// else through encoding/json (decodeStd).
func decodeBody(body []byte, v any) error {
	var err error
	if sb, ok := v.(strictBody); ok {
		err = decodeStrict(body, sb)
	} else {
		err = decodeStd(body, v)
	}
	if err != nil {
		return badRequest("bad request body: %v", err)
	}
	return nil
}

// resolveMatrix validates the wire matrix and builds the dense form.
func resolveMatrix(mj *WireMatrix) (*comm.Matrix, error) {
	if mj == nil {
		return nil, badRequest("missing matrix")
	}
	if err := mj.check(); err != nil {
		return nil, err
	}
	m, err := comm.New(mj.N)
	if err != nil {
		return nil, badRequest("%v", err)
	}
	for k, msg := range mj.Messages {
		src, dst := int(msg[0]), int(msg[1])
		if m.At(src, dst) != 0 {
			// Silently overwriting (or summing) ambiguous input would
			// hand back a 200 for a matrix the client didn't mean.
			return nil, badRequest("message %d: duplicate entry %d->%d", k, src, dst)
		}
		m.Set(src, dst, msg[2])
	}
	return m, nil
}

// check holds a wire matrix to the bounds every matrix the service
// builds must meet, short of duplicate entries: n in [2,
// maxServiceNodes], at most n(n-1) entries, each between two distinct
// nodes in range with a positive size. It builds nothing, so it also
// guards a cached result's matrix echo (checkEcho).
func (mj *WireMatrix) check() error {
	if mj.N < 2 || mj.N > maxServiceNodes {
		return badRequest("matrix n=%d out of range [2,%d]", mj.N, maxServiceNodes)
	}
	if max := mj.N * (mj.N - 1); len(mj.Messages) > max {
		return badRequest("%d messages for n=%d; a matrix holds at most %d", len(mj.Messages), mj.N, max)
	}
	for k, msg := range mj.Messages {
		src, dst, bytes := msg[0], msg[1], msg[2]
		if src < 0 || src >= int64(mj.N) || dst < 0 || dst >= int64(mj.N) {
			return badRequest("message %d: node out of range [0,%d)", k, mj.N)
		}
		if src == dst {
			return badRequest("message %d: self message %d->%d", k, src, dst)
		}
		if bytes <= 0 {
			return badRequest("message %d: size %d must be positive", k, bytes)
		}
	}
	return nil
}

// checkEcho is check for a cached result's matrix echo, which must
// also list its entries in strictly ascending row-major order, as
// NewWireMatrix does (request matrices may use any order):
// appendWireMatrix encodes the triples as they stand.
func (mj *WireMatrix) checkEcho() error {
	for k := 1; k < len(mj.Messages); k++ {
		a, b := mj.Messages[k-1], mj.Messages[k]
		if b[0] < a[0] || b[0] == a[0] && b[1] <= a[1] {
			return badRequest("message %d: matrix echo out of row-major order", k)
		}
	}
	return mj.check()
}

// NewWireMatrix converts a dense matrix back to wire form.
func NewWireMatrix(m *comm.Matrix) *WireMatrix {
	msgs := m.Messages()
	out := &WireMatrix{N: m.N(), Messages: make(WireTriples, len(msgs))}
	for i, msg := range msgs {
		out.Messages[i] = [3]int64{int64(msg.Src), int64(msg.Dst), msg.Bytes}
	}
	return out
}

// resolveTopology builds the network a schedule/simulate request
// targets; nil defaults to the hypercube sized for the matrix's n
// nodes, and an explicit topology must agree with n.
func resolveTopology(tj *WireTopology, n int) (topo.Topology, error) {
	if tj == nil {
		net, err := hypercube.ForNodes(n)
		if err != nil {
			return nil, badRequest("%v", err)
		}
		return net, nil
	}
	return buildTopology(tj, n)
}

// buildTopology converts the wire topology to a topo.Spec and builds
// it. n > 0 means the caller knows the node count (from a matrix or
// schedule): a cube may then omit dim, a ring may omit n, and the
// built topology must have exactly n nodes. n == 0 (campaigns) means
// the topology itself fixes the machine size, so every extent must be
// explicit.
func buildTopology(tj *WireTopology, n int) (topo.Topology, error) {
	var sp topo.Spec
	switch {
	case tj.Spec != "":
		if tj.Kind != "" || tj.Dim != 0 || tj.W != 0 || tj.H != 0 || tj.N != 0 || len(tj.Edges) != 0 {
			return nil, badRequest("topology spec %q excludes the structured fields", tj.Spec)
		}
		var err error
		if sp, err = topo.ParseSpec(tj.Spec); err != nil {
			return nil, badRequest("%v", err)
		}
	default:
		switch tj.Kind {
		case "", "cube":
			switch {
			case tj.Dim > 0:
				sp = topo.CubeSpec(tj.Dim)
			case n > 0:
				net, err := hypercube.ForNodes(n)
				if err != nil {
					return nil, badRequest("%v", err)
				}
				sp = topo.CubeSpec(net.Dim())
			default:
				return nil, badRequest("cube topology needs dim")
			}
		case "mesh", "torus":
			if tj.W <= 0 || tj.H <= 0 {
				return nil, badRequest("%s topology needs positive w and h", tj.Kind)
			}
			if tj.Kind == "mesh" {
				sp = topo.MeshSpec(tj.W, tj.H)
			} else {
				sp = topo.TorusSpec(tj.W, tj.H)
			}
		case "ring":
			size := tj.N
			if size == 0 {
				size = n
			}
			if size <= 0 {
				return nil, badRequest("ring topology needs n")
			}
			sp = topo.RingSpec(size)
		case "graph":
			if tj.N <= 0 {
				return nil, badRequest("graph topology needs n")
			}
			if len(tj.Edges) == 0 {
				return nil, badRequest("graph topology needs edges")
			}
			sp = topo.GraphSpec(tj.N, tj.Edges)
		default:
			return nil, badRequest("unknown topology kind %q (want cube, mesh, torus, ring, or graph)", tj.Kind)
		}
	}
	if err := sp.Validate(); err != nil {
		return nil, badRequest("%v", err)
	}
	// Reject size violations from the spec alone, BEFORE Build: a
	// graph build allocates O(n^2) routing matrices and runs n BFS
	// passes, far too much work to spend on a request that is about to
	// be answered 400.
	if n > 0 && sp.Nodes() != n {
		return nil, badRequest("topology %s has %d nodes, request has %d", sp, sp.Nodes(), n)
	}
	if sp.Nodes() > maxServiceNodes {
		return nil, badRequest("topology %s has %d nodes, limit %d", sp, sp.Nodes(), maxServiceNodes)
	}
	net, err := sp.Build()
	if err != nil {
		return nil, badRequest("%v", err)
	}
	// No route-table footprint gate here: topologies whose dense table
	// would blow topo.NewRouteTable's hop budget (high-diameter shapes
	// like long rings and big tori) get a lazy table from the shared
	// cache instead — routes generated on the fly, nothing precomputed —
	// so they are served, just without the dense fast path.
	return net, nil
}

// resolveParams picks the timing model by name.
func resolveParams(name string) (string, costmodel.Params, error) {
	switch name {
	case "", "ipsc860":
		return "ipsc860", costmodel.DefaultIPSC860(), nil
	case "ipsc2":
		return "ipsc2", costmodel.DefaultIPSC2(), nil
	default:
		return "", costmodel.Params{}, badRequest("unknown params %q (want ipsc860 or ipsc2)", name)
	}
}

// scheduleWire converts a computed schedule to wire form.
func scheduleWire(s *sched.Schedule) *WireSchedule {
	out := &WireSchedule{
		Algorithm: s.Algorithm,
		N:         s.N,
		Ops:       s.Ops,
		Phases:    make([]WirePhase, len(s.Phases)),
	}
	for k, p := range s.Phases {
		phase := make(WirePhase, 0, p.Messages())
		for i, j := range p.Send {
			if j >= 0 {
				phase = append(phase, [3]int64{int64(i), int64(j), p.Bytes[i]})
			}
		}
		out.Phases[k] = phase
	}
	return out
}

// resolveSchedule validates the wire schedule and builds the phase
// form, rejecting unknown algorithm tags, node contention, and
// out-of-range entries. The tag picks the execution protocol under
// "auto" (resolveProtocol), so an unknown tag must be a 400, not a
// silent fall-through: before the check existed, the typo "RS-NL" ran
// under S2 — the RS_N pairing — and changed the measured number
// instead of erroring.
func resolveSchedule(sj *WireSchedule) (*sched.Schedule, error) {
	if sj == nil {
		return nil, badRequest("missing schedule")
	}
	alg, ok := sched.Lookup(sj.Algorithm)
	if !ok {
		// The want-list names every table tag — AC included, even
		// though an AC schedule is rejected one gate later for carrying
		// no phases: a client that sent "ac" should learn the tag
		// exists, not that it doesn't.
		return nil, badRequest("unknown schedule algorithm %q (want %s)", sj.Algorithm, sched.WantList(sched.Tags()...))
	}
	if alg.Build == nil {
		// resolveSchedule is only reached for schedules with phases; an
		// AC run is driven by the matrix and has none.
		return nil, badRequest("an AC schedule carries no phases; send the matrix instead")
	}
	n := sj.N
	if n < 2 || n > maxServiceNodes {
		return nil, badRequest("schedule n=%d out of range [2,%d]", n, maxServiceNodes)
	}
	// Every real decomposition is far under 4n phases (LP uses n-1,
	// the randomized schedulers ~d + log d, greedy list scheduling
	// ~2d), and each phase costs O(n) dense storage even when empty —
	// so this cap is what stops a few MB of "[]," phases from
	// allocating gigabytes.
	if len(sj.Phases) > 4*n {
		return nil, badRequest("schedule has %d phases for n=%d; limit %d", len(sj.Phases), n, 4*n)
	}
	s := &sched.Schedule{Algorithm: sj.Algorithm, N: n, Ops: sj.Ops}
	for k, pj := range sj.Phases {
		p := sched.NewPhase(n)
		recvBusy := make([]bool, n)
		for _, msg := range pj {
			src, dst, bytes := msg[0], msg[1], msg[2]
			if src < 0 || src >= int64(n) || dst < 0 || dst >= int64(n) {
				return nil, badRequest("phase %d: node out of range [0,%d)", k, n)
			}
			if src == dst {
				return nil, badRequest("phase %d: self message at P%d", k, src)
			}
			if bytes <= 0 {
				return nil, badRequest("phase %d: size %d must be positive", k, bytes)
			}
			if p.Send[src] != -1 {
				return nil, badRequest("phase %d: P%d sends twice", k, src)
			}
			if recvBusy[dst] {
				return nil, badRequest("phase %d: P%d receives twice", k, dst)
			}
			p.Send[src] = int(dst)
			p.Bytes[src] = bytes
			recvBusy[dst] = true
		}
		s.Phases = append(s.Phases, p)
	}
	return s, nil
}

// --- content hashing ------------------------------------------------

// fingerprintTopology mixes the topology identity into d. Name()
// already encodes kind and extent ("hypercube-6", "mesh-8x8-torus").
func fingerprintTopology(d *comm.Digest, net topo.Topology) {
	d.String("topology")
	d.String(net.Name())
}

// scheduleKey hashes everything that determines a /v1/schedule
// response: matrix content, algorithm, topology, and the client seed.
func scheduleKey(m *comm.Matrix, algorithm string, net topo.Topology, seed int64) *comm.Digest {
	d := comm.NewDigest()
	d.String("schedule/v1")
	m.Fingerprint(d)
	d.String(algorithm)
	fingerprintTopology(d, net)
	d.Int64(seed)
	return d
}

// scheduleWorkloadKey hashes everything that determines a /v1/schedule
// response for a server-generated workload: the canonical spec (so an
// alias spelling shares the cache slot of its canonical form),
// algorithm, topology, and the client seed. The generated pattern
// itself derives from this hash, so it needs no fingerprint of its
// own.
func scheduleWorkloadKey(sp workload.Spec, algorithm string, net topo.Topology, seed int64) *comm.Digest {
	d := comm.NewDigest()
	d.String("schedule/v1")
	d.String("workload")
	d.String(sp.String())
	d.String(algorithm)
	fingerprintTopology(d, net)
	d.Int64(seed)
	return d
}

// simulateKey hashes everything that determines a /v1/simulate
// response: the schedule (or AC matrix), topology, timing model, and
// protocol.
func simulateKey(s *sched.Schedule, m *comm.Matrix, net topo.Topology, paramsName, protocol string) *comm.Digest {
	d := comm.NewDigest()
	d.String("simulate/v1")
	if s != nil {
		d.String(s.Algorithm)
		d.Int64(int64(s.N))
		for _, p := range s.Phases {
			d.String("phase")
			for i, j := range p.Send {
				if j >= 0 {
					d.Int64(int64(i))
					d.Int64(int64(j))
					d.Int64(p.Bytes[i])
				}
			}
		}
	}
	if m != nil {
		m.Fingerprint(d)
	}
	fingerprintTopology(d, net)
	d.String(paramsName)
	d.String(protocol)
	return d
}

// effectiveSeed derives the RNG seed for randomized schedulers from
// the request's content hash, so the same request draws the same
// random numbers no matter when or where it runs.
func effectiveSeed(d *comm.Digest) int64 {
	sum := d.Sum()
	return int64(binary.BigEndian.Uint64(sum[:8]))
}
