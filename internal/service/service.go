// Package service implements unschedd, the scheduling-as-a-service
// daemon: the repository's schedulers and machine simulator behind a
// long-running HTTP API.
//
// Endpoints:
//
//	POST /v1/schedule        communication matrix (or workload spec) in,
//	                         schedule out
//	POST /v1/schedule/batch  many schedule requests in, NDJSON results
//	                         streamed out as each finishes
//	POST /v1/simulate        schedule (or AC matrix) in, predicted Result out
//	POST /v1/campaign        async measurement grid (density sweep or
//	                         workload-spec list); returns a job id
//	GET  /v1/campaign/{id}   progress and, when done, the measured cells
//	GET  /healthz            liveness (plus per-peer reachability in
//	                         fleet mode)
//	GET  /metrics            Prometheus-style text counters
//	GET  /v1/cache/{key}     internal: the raw checksummed cache record
//	                         for a content-hash key (fleet peer fill)
//	PUT  /v1/cache/{key}     internal: accept a peer's write-behind
//	                         record push
//
// Requests are JSON. Synchronous responses are negotiated via Accept:
// application/json (the default) or application/x-unsched-binary, the
// compact varint envelope over the comm binary matrix codec; either
// may be gzip-compressed via Accept-Encoding. Every synchronous
// response carries a strong ETag derived from its content-hash key,
// and If-None-Match revalidation is answered 304 with zero body bytes
// — see wire.go and the README's wire-format section. Errors are
// always JSON: an ErrorEnvelope with a stable machine-readable code.
//
// Synchronous requests run on a bounded worker pool; each worker owns
// reusable simulator machines (one per topology/params pair it has
// served), so the hot path allocates no per-run machine state. When
// the queue is full the service sheds load with 429 rather than
// growing without bound. Batch items instead yield and retry, so one
// stream survives transient pressure.
//
// Results are memoized in a sharded LRU keyed by a canonical content
// hash of (matrix, algorithm, topology, params, seed) — see
// comm.Digest. Randomized schedulers draw their RNG seed from that
// same hash, so a repeated identical request is not just a cache hit:
// even after eviction it recomputes the bit-identical schedule.
//
// With Options.CacheDir set, the cache is also persisted to disk and
// warm-restarted: every computed response is written through
// asynchronously (the request path never waits on fsync) as a
// checksummed, self-describing record file, and NewServer reloads the
// newest records — up to the entry and byte bounds — before serving,
// so a restarted daemon answers previously computed requests
// byte-identically from the cache. Corrupt or truncated records are
// skipped, deleted, and counted on /metrics, never fatal; Close
// flushes the pending write batch. See persist.go for the record
// format. Only the canonical JSON form is persisted; binary
// renderings are derived from it on demand and cached in memory.
//
// With Options.Peers set, N daemons behave as one logical cache
// (fleet mode): rendezvous hashing assigns every content-hash key an
// owner, a miss on a non-owned key asks the owner for its record
// (hedged, budgeted, CRC-verified) before computing, and locally
// computed non-owned records are pushed to their owner write-behind.
// Peers can only make a daemon faster — any peer failure falls back
// to local compute. See internal/fleet and peer.go.
package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"unsched/internal/comm"
	"unsched/internal/des"
	"unsched/internal/expt"
	"unsched/internal/fleet"
	"unsched/internal/ipsc"
	"unsched/internal/quality"
	"unsched/internal/sched"
	"unsched/internal/stats"
	"unsched/internal/topo"
)

// Options configures a Server. The zero value is production-usable:
// GOMAXPROCS workers, a queue of four tasks per worker, a 4096-entry
// cache, and up to two concurrent campaigns.
type Options struct {
	// Workers is the number of worker goroutines serving synchronous
	// requests; <= 0 means runtime.GOMAXPROCS(0).
	Workers int
	// QueueDepth is the number of requests that may wait for a worker
	// before the service answers 429; <= 0 means 4 * Workers.
	QueueDepth int
	// CacheEntries bounds the memoization cache; 0 means 4096, and a
	// negative value disables caching.
	CacheEntries int
	// MaxCampaigns bounds concurrently running campaign jobs; <= 0
	// means 2.
	MaxCampaigns int
	// MaxCampaignJobs bounds retained campaign jobs (running or
	// finished); <= 0 means 64.
	MaxCampaignJobs int
	// CacheDir enables disk persistence of the memoization cache: every
	// computed response is written through (asynchronously, batched) as
	// a checksummed record file, and NewServer warm-starts the cache
	// from the newest records already there. Empty keeps today's
	// memory-only behavior. Ignored when caching is disabled
	// (CacheEntries < 0) — there is nothing to persist.
	CacheDir string
	// CacheDiskBytes bounds the total bytes retained under CacheDir;
	// the oldest records are garbage-collected past it. <= 0 means
	// 256 MB.
	CacheDiskBytes int64
	// QualityStore names the append-only calibration record file (see
	// internal/quality) behind algorithm "auto": NewServer loads the
	// selection model from it, and every finished campaign appends its
	// measured cost/quality records and reloads the model — campaigns
	// are the calibration training loop. Empty means no store:
	// "auto" still works, answered from the committed fallback table.
	// An unreadable store file fails NewServer loudly, like CacheDir.
	QualityStore string
	// Peers lists the base URLs of every daemon in this one's fleet
	// (static membership; SelfURL may appear in the list). Non-empty
	// enables fleet mode: each content-hash key is assigned an owner by
	// rendezvous hashing, cache misses on non-owned keys ask the owner
	// (with a hedged second attempt) before computing, and locally
	// computed non-owned records are pushed to their owner
	// asynchronously. Empty keeps today's solo behavior. See
	// internal/fleet and the README's fleet-mode section.
	Peers []string
	// SelfURL is this daemon's own base URL exactly as the rest of the
	// fleet reaches it; required when Peers is set (it anchors
	// ownership — every member must rank the identical URL set).
	SelfURL string
	// PeerBudget bounds one peer lookup end to end, hedge included;
	// a peer that cannot answer inside it loses to local compute.
	// <= 0 means 75ms.
	PeerBudget time.Duration
	// PeerPushQueue bounds the write-behind queue of computed records
	// awaiting push to their owner; overflow drops rather than blocks.
	// <= 0 means 256.
	PeerPushQueue int
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 4 * o.Workers
	}
	switch {
	case o.CacheEntries == 0:
		o.CacheEntries = 4096
	case o.CacheEntries < 0:
		o.CacheEntries = 0
	}
	if o.MaxCampaigns <= 0 {
		o.MaxCampaigns = 2
	}
	if o.MaxCampaignJobs <= 0 {
		o.MaxCampaignJobs = 64
	}
	if o.CacheDiskBytes <= 0 {
		o.CacheDiskBytes = 256 << 20
	}
	return o
}

// Server is the unschedd HTTP service. Create one with NewServer,
// mount it (it implements http.Handler), and Close it on shutdown to
// drain the worker pool and cancel running campaigns.
type Server struct {
	opts      Options
	mux       *http.ServeMux
	pool      *pool
	cache     *scheduleCache
	flights   *flightGroup
	campaigns *campaignRegistry
	// disk is the persistence layer under cache; nil when CacheDir is
	// unset (memory-only). Writes go through asynchronously; reads
	// happen once, at startup, to warm the memory cache.
	disk *diskStore
	// tables shares precomputed route tables daemon-wide: synchronous
	// workers and campaign runners all draw from it, so the
	// O(n^2*diameter) precompute happens once per topology per daemon.
	tables *tableCache
	// quality is the current algorithm-selection model behind "auto",
	// swapped atomically when a campaign finishes appending to the
	// store; nil answers from the committed fallback table. qstore is
	// the open store itself, nil when QualityStore is unset.
	quality atomic.Pointer[quality.Model]
	qstore  *quality.Store
	// fleet is the peer layer when Options.Peers is set: rendezvous
	// ownership, hedged record fetch on the miss path, and the
	// write-behind push queue. nil means solo. See peer.go.
	fleet *fleet.Fleet

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup // campaign goroutines

	requests  [numEndpoints]atomic.Int64 // by endpoint index below
	rejected  atomic.Int64
	totalJobs atomic.Int64

	// Cache observability. Hits and misses are per memoizing endpoint
	// (epSchedule, epSimulate) and count what actually happened: a hit
	// is a response served from the cache, a miss is a computation —
	// single-flight followers count in flightDedup and nowhere else, so
	// hits/(hits+misses) is the true cache ratio.
	cacheHits   [2]atomic.Int64
	cacheMisses [2]atomic.Int64
	flightDedup atomic.Int64
	warmLoaded  atomic.Int64 // entries restored from disk at startup

	// Wire-layer observability: If-None-Match revalidations answered
	// 304, responses and wire bytes by encoding x compression, and the
	// body bytes the wire layer avoided sending (gzip savings plus the
	// known size of 304-suppressed bodies).
	http304    atomic.Int64
	bytesSaved atomic.Int64
	respCount  [numEncodings][numCompressions]atomic.Int64
	respBytes  [numEncodings][numCompressions]atomic.Int64

	// Auto-resolution observability: what "auto" resolved to, and which
	// tag won each auto_race, per algorithm.
	autoResolved tagCounters
	autoRaceWins tagCounters
}

// endpoint indices for the requests counter.
const (
	epSchedule = iota
	epSimulate
	epCampaign
	epCampaignGet
	epBatch
	epCache
	numEndpoints
)

var endpointNames = [numEndpoints]string{"schedule", "simulate", "campaign", "campaign_status", "schedule_batch", "cache"}

// statusClientClosedRequest is the non-standard but widely used (nginx)
// status for a client that disconnected before its response was ready:
// a 4xx, because the abort is the client's, not a server fault.
const statusClientClosedRequest = 499

// NewServer returns a ready-to-serve instance with its worker pool
// started. When opts.CacheDir is set it also opens the disk store and
// warm-restarts the cache from it: the newest persisted records (up to
// the entry bound) are loaded back, corrupt or truncated ones skipped
// and counted, so a rebooted daemon serves previously computed
// responses byte-identically without recomputing. The only error path
// is an unusable cache directory — a misconfigured daemon must fail
// loudly, not silently run memory-only.
func NewServer(opts Options) (*Server, error) {
	opts = opts.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	tables := newTableCache()
	s := &Server{
		opts:      opts,
		mux:       http.NewServeMux(),
		pool:      newPool(opts.Workers, opts.QueueDepth, tables),
		cache:     newScheduleCache(opts.CacheEntries),
		flights:   newFlightGroup(),
		campaigns: newCampaignRegistry(opts.MaxCampaignJobs, opts.MaxCampaigns),
		tables:    tables,
		ctx:       ctx,
		cancel:    cancel,
	}
	if opts.CacheDir != "" && opts.CacheEntries > 0 {
		disk, err := newDiskStore(opts.CacheDir, opts.CacheEntries, opts.CacheDiskBytes)
		if err != nil {
			cancel()
			s.pool.close()
			return nil, fmt.Errorf("service: cache dir %s: %w", opts.CacheDir, err)
		}
		// Load before starting the writer so warm restart never races a
		// GC pass; loaded entries skip the hit/miss counters entirely.
		// A record whose value is not JSON is skipped as corrupt: hits
		// splice cached results into the envelope verbatim.
		s.warmLoaded.Store(int64(disk.load(func(key string, value []byte) bool {
			if !json.Valid(value) {
				return false
			}
			s.cache.put(key, value)
			return true
		})))
		disk.start()
		s.disk = disk
	}
	if opts.QualityStore != "" {
		// Load the model first (a missing file is a valid empty store),
		// then open for append. Either failing means a misconfigured
		// path — fail loudly, exactly as an unusable cache dir does.
		model, err := quality.LoadModel(opts.QualityStore)
		if err == nil {
			s.qstore, err = quality.Open(opts.QualityStore)
		}
		if err != nil {
			cancel()
			s.pool.close()
			if s.disk != nil {
				s.disk.close()
			}
			return nil, fmt.Errorf("service: quality store %s: %w", opts.QualityStore, err)
		}
		s.quality.Store(model)
	}
	fl, err := newFleetLayer(opts)
	if err != nil {
		cancel()
		s.pool.close()
		if s.disk != nil {
			s.disk.close()
		}
		if s.qstore != nil {
			_ = s.qstore.Close()
		}
		return nil, err
	}
	s.fleet = fl
	s.mux.HandleFunc("POST /v1/schedule", s.handleSchedule)
	s.mux.HandleFunc("POST /v1/schedule/batch", s.handleScheduleBatch)
	s.mux.HandleFunc("POST /v1/simulate", s.handleSimulate)
	s.mux.HandleFunc("POST /v1/campaign", s.handleCampaign)
	s.mux.HandleFunc("GET /v1/campaign/{id}", s.handleCampaignStatus)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	// Internal fleet endpoints (always mounted — a solo daemon serving
	// its records is harmless and lets fleets be grown without
	// restarting existing members). Keep them off the public edge,
	// like /metrics.
	s.mux.HandleFunc("GET /v1/cache/{key}", s.handleCacheGet)
	s.mux.HandleFunc("PUT /v1/cache/{key}", s.handleCachePut)
	return s, nil
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// Close shuts the service down: new work is refused, queued tasks
// drain, and running campaigns are cancelled. It blocks until every
// worker and campaign goroutine has exited, then flushes every queued
// cache record to disk — the durability point of a clean shutdown.
func (s *Server) Close() {
	s.cancel()
	s.pool.close()
	s.wg.Wait()
	if s.fleet != nil {
		// Drain the write-behind push queue (bounded by a deadline) so a
		// clean shutdown does not strand freshly computed records their
		// owners never saw.
		s.fleet.Close(5 * time.Second)
	}
	if s.disk != nil {
		s.disk.close()
	}
	if s.qstore != nil {
		// Campaigns have drained (wg.Wait above), so this is the last
		// append; Close syncs the calibration records to disk.
		_ = s.qstore.Close()
	}
}

// --- response plumbing ----------------------------------------------

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", ContentTypeJSON)
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v) // the client is gone if this fails; nothing to do
}

// writeError answers any failure with the JSON error envelope: the
// legacy bare string plus the versioned {code, message} detail.
// Errors are JSON regardless of the negotiated response encoding — an
// error body is small, and one parseable shape beats two.
func writeError(w http.ResponseWriter, err error) {
	ae, ok := err.(*apiError)
	if !ok {
		ae = &apiError{status: http.StatusInternalServerError, msg: err.Error()}
	}
	writeJSON(w, ae.status, ErrorEnvelope{
		Error: ae.msg,
		Err:   ErrorDetail{Code: ae.Code(), Message: ae.msg},
	})
}

// negotiate validates the request's Content-Type and resolves its
// Accept headers into a response form. It runs before the body is
// decoded: a client that cannot receive the answer (406) or mislabeled
// its payload (415) should hear so without the server parsing
// megabytes first.
func (s *Server) negotiate(r *http.Request) (conneg, error) {
	if err := checkRequestContentType(r); err != nil {
		return conneg{}, err
	}
	enc, err := negotiateEncoding(r)
	if err != nil {
		return conneg{}, err
	}
	return conneg{enc: enc, gzip: acceptsGzip(r)}, nil
}

// runTask submits fn to the pool and waits for completion.
// Backpressure surfaces here: a full queue is 429, a closing server
// 503. It deliberately does NOT abandon the wait when the submitting
// client disconnects: the computation is already claiming a worker,
// its result feeds the memoization cache and any single-flight
// followers, and writing the response to a dead connection is
// harmless — so a cancelled leader must not poison everyone else.
func (s *Server) runTask(fn func(w *worker)) error {
	t := &task{run: fn, done: make(chan struct{})}
	if err := s.pool.submit(t); err != nil {
		s.rejected.Add(1)
		status := http.StatusServiceUnavailable
		if err == errBusy {
			status = http.StatusTooManyRequests
		}
		return &apiError{status: status, msg: err.Error()}
	}
	<-t.done
	if t.panicked != nil {
		return t.panicked // -> 500 for this request; the worker survived
	}
	return nil
}

// runTaskWait is runTask for batch items: a full queue makes it yield
// and retry instead of failing, so one saturated moment does not pock
// a long stream with 429s. Retries do not touch the rejected counter —
// a retried item was not shed. The submit itself can never block
// forever on a closing pool (submit fails fast), and the wait between
// attempts watches the stream's context so a disconnected client
// stops burning the queue.
func (s *Server) runTaskWait(ctx context.Context, fn func(w *worker)) error {
	for {
		t := &task{run: fn, done: make(chan struct{})}
		err := s.pool.submit(t)
		if err == nil {
			<-t.done
			if t.panicked != nil {
				return t.panicked
			}
			return nil
		}
		if err != errBusy {
			return &apiError{status: http.StatusServiceUnavailable, msg: err.Error()}
		}
		select {
		case <-ctx.Done():
			return &apiError{status: statusClientClosedRequest, msg: "client closed request"}
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// memoized returns the response payload for key in the requested
// encoding: the raw JSON result document (enc == encJSON) or the
// binary document payload (enc == encBinary), plus whether it was
// served without computing. Concurrent misses on the same variant are
// single-flighted: one leader computes, the rest wait for its bytes.
//
// The canonical memoized representation is JSON — that is what the
// disk store persists and warm restart reloads. A binary-encoding
// miss that finds the JSON form cached re-encodes it via decodeDoc
// (cheap) instead of recomputing (expensive), and the rendering is
// cached in memory under the variant key. wait selects runTaskWait
// (batch items) over runTask (synchronous requests, which 429).
//
// ep is the endpoint index (epSchedule/epSimulate) the hit/miss
// counters are kept under. The accounting reflects what actually
// happened: a hit is a response served from cached bytes (including a
// binary rendering of cached JSON), a miss is a computation the
// leader performed, and a flight-served follower counts only in
// flightDedup.
func (s *Server) memoized(ctx context.Context, ep int, key string, enc encoding, wait bool,
	decodeDoc func([]byte) (wireDoc, error),
	compute func(wk *worker) (wireDoc, error)) (payload []byte, cached bool, err error) {
	vkey := variantKey(key, enc)
	if raw, ok := s.cache.get(vkey); ok {
		s.cacheHits[ep].Add(1)
		return raw, true, nil
	}
	if enc != encJSON {
		if jsonRaw, ok := s.cache.get(key); ok {
			doc, err := decodeDoc(jsonRaw)
			if err != nil {
				return nil, false, err
			}
			s.cacheHits[ep].Add(1)
			raw := doc.appendBinaryPayload(nil)
			s.cache.put(vkey, raw)
			return raw, true, nil
		}
	}
	call, leader := s.flights.join(vkey)
	if !leader {
		s.flightDedup.Add(1)
		select {
		case <-call.done:
		case <-ctx.Done():
			// The follower's own client hung up while waiting for the
			// leader's result. That is a client-side abort, not a server
			// failure: answer with a 4xx (499, nginx's "client closed
			// request" convention) and leave the rejection and
			// server-error metrics alone — the leader's computation is
			// unaffected and still lands in the cache.
			return nil, false, &apiError{status: statusClientClosedRequest, msg: "client closed request"}
		}
		if call.err != nil {
			return nil, false, call.err
		}
		return call.raw, true, nil
	}
	// Peer fill before computing: in fleet mode, a non-owned key may
	// already live at its rendezvous owner, and fetching its canonical
	// record under this flight slot is far cheaper than an O(n^2)
	// recompute. A successful fill is a cache hit (remote, but cached
	// bytes); only an actual computation below counts as a miss —
	// which is what keeps misses at one fleet-wide per unique key.
	if payload, ok := s.peerFill(ctx, ep, key, enc, decodeDoc); ok {
		s.flights.finish(vkey, call, payload, nil)
		return payload, true, nil
	}
	s.cacheMisses[ep].Add(1)
	raw, err := func() ([]byte, error) {
		var (
			doc     wireDoc
			docErr  error
			taskErr error
		)
		if wait {
			taskErr = s.runTaskWait(ctx, func(wk *worker) { doc, docErr = compute(wk) })
		} else {
			taskErr = s.runTask(func(wk *worker) { doc, docErr = compute(wk) })
		}
		if taskErr != nil {
			return nil, taskErr
		}
		if docErr != nil {
			return nil, docErr
		}
		jsonRaw, err := json.Marshal(doc)
		if err != nil {
			return nil, err
		}
		// Populate the cache before retiring the flight so no request
		// can slip between the two and recompute. The JSON form is
		// always cached (and write-through persisted); a binary leader
		// additionally caches its rendering, memory-only.
		s.cachePut(key, jsonRaw)
		if s.fleet != nil && !s.fleet.Owns(key) {
			// Write-behind: this daemon computed a record it does not
			// own; ship it to the owner asynchronously so the rest of
			// the fleet finds it there. Never blocks (drop-on-full).
			s.fleet.Push(key, jsonRaw)
		}
		if enc == encJSON {
			return jsonRaw, nil
		}
		bin := doc.appendBinaryPayload(nil)
		s.cache.put(vkey, bin)
		return bin, nil
	}()
	s.flights.finish(vkey, call, raw, err)
	if err != nil {
		return nil, false, err
	}
	return raw, false, nil
}

// respondMemoized is the HTTP face of memoized: revalidation first,
// then cache-or-compute, then the negotiated response envelope.
//
// The If-None-Match check runs before everything else. The response
// is a pure function of the content-hash key, so a client presenting
// the current ETag holds current bytes by construction — the 304 costs
// no cache probe for the body and no worker time, even if the entry
// was evicted everywhere.
func (s *Server) respondMemoized(w http.ResponseWriter, r *http.Request, cn conneg, ep int, key string,
	decodeDoc func([]byte) (wireDoc, error), compute func(wk *worker) (wireDoc, error)) {
	if ifNoneMatchHit(r, etagFor(key, cn.enc)) {
		known := 0
		if raw, ok := s.cache.get(variantKey(key, cn.enc)); ok {
			known = len(raw)
		}
		s.writeNotModified(w, cn, key, known)
		return
	}
	payload, cached, err := s.memoized(r.Context(), ep, key, cn.enc, false, decodeDoc, compute)
	if err != nil {
		writeError(w, err)
		return
	}
	body := make([]byte, 0, len(payload)+len(key)+64) // 64 covers either envelope's framing
	if cn.enc == encBinary {
		body = appendBinaryEnvelope(body, key, cached, payload)
	} else {
		body = appendJSONEnvelope(body, key, cached, payload)
	}
	s.writeNegotiated(w, cn, key, body)
}

// cachePut memoizes a computed response in memory and, when
// persistence is on, queues the asynchronous write-through — the hot
// path never waits on disk.
func (s *Server) cachePut(key string, raw []byte) {
	s.cache.put(key, raw)
	if s.disk != nil {
		s.disk.enqueue(key, raw)
	}
}

// decodeScheduleDoc re-types a cached JSON schedule result so the wire
// layer can render its binary form without recomputing.
func decodeScheduleDoc(raw []byte) (wireDoc, error) {
	var res ScheduleResult
	if err := json.Unmarshal(raw, &res); err != nil {
		return nil, err
	}
	return &res, nil
}

// decodeSimulateDoc is decodeScheduleDoc for simulate results.
func decodeSimulateDoc(raw []byte) (wireDoc, error) {
	var res SimulateResult
	if err := json.Unmarshal(raw, &res); err != nil {
		return nil, err
	}
	return &res, nil
}

// --- /v1/schedule ---------------------------------------------------

func (s *Server) handleSchedule(w http.ResponseWriter, r *http.Request) {
	s.requests[epSchedule].Add(1)
	cn, err := s.negotiate(r)
	if err != nil {
		writeError(w, err)
		return
	}
	var req ScheduleRequest
	if err := decodeJSON(r, &req); err != nil {
		writeError(w, err)
		return
	}
	key, compute, err := s.scheduleJob(r.Context(), &req)
	if err != nil {
		writeError(w, err)
		return
	}
	s.respondMemoized(w, r, cn, epSchedule, key, decodeScheduleDoc, compute)
}

// scheduleJob resolves a schedule request — algorithm, pattern,
// topology, caps — into its content-hash key and the compute closure
// that builds the result on a worker. It owns everything below the
// HTTP layer, which is what lets the synchronous handler and the batch
// stream share one implementation.
//
// Algorithm "auto" resolves to a concrete tag HERE, before the key is
// derived: the quality model ranks the algorithms from the matrix's
// measured features (node count, density, size variation), so the
// resolved request fingerprints — and caches, and re-seeds — exactly
// as the equivalent direct request does. The context only gates the
// optional auto_race; plain resolution never blocks on it.
func (s *Server) scheduleJob(ctx context.Context, req *ScheduleRequest) (string, func(wk *worker) (wireDoc, error), error) {
	if req.Algorithm == "" {
		req.Algorithm = "auto"
	}
	if _, ok := sched.Lookup(req.Algorithm); !ok && req.Algorithm != "auto" {
		return "", nil, unknownAlgorithm(req.Algorithm)
	}
	if req.Workload != "" {
		return s.scheduleWorkloadJob(ctx, req)
	}
	m, err := resolveMatrix(req.Matrix)
	if err != nil {
		return "", nil, err
	}
	net, err := resolveTopology(req.Topology, m.N())
	if err != nil {
		return "", nil, err
	}
	job := func(tag string) (string, func(wk *worker) (wireDoc, error)) {
		digest := scheduleKey(m, tag, net, req.Seed)
		seed := effectiveSeed(digest)
		return digest.Hex(), func(wk *worker) (wireDoc, error) {
			res, err := buildSchedule(wk.schedCore(net), m, tag, net, seed)
			if err != nil {
				return nil, err
			}
			return res, nil
		}
	}
	algorithm := req.Algorithm
	if algorithm == "auto" {
		algorithm = s.resolveAuto(ctx, net, m, sched.MeasureFeatures(m), req.AutoRace, job)
	}
	key, compute := job(algorithm)
	return key, compute, nil
}

// scheduleWorkloadJob serves /v1/schedule requests that name a
// generated workload instead of shipping a matrix. Every gate — spec
// grammar, structural caps, machine fit, size cap — is enforced from
// the spec string before the O(n^2) build, which itself runs on the
// worker pool, off the HTTP goroutine. The pattern RNG derives from
// the request's content hash, so the same request generates the same
// matrix on any server at any time.
//
// Auto resolves from the spec's ANALYTIC features (DensityHint,
// SizeCVHint), never from a built matrix: the pattern RNG derives from
// the content hash, which includes the algorithm tag — measuring a
// matrix to choose the tag that seeds the matrix would be circular.
// The analytic form keeps resolution a pure function of the spec, and
// the generated pattern identical to the direct concrete-tag request.
func (s *Server) scheduleWorkloadJob(ctx context.Context, req *ScheduleRequest) (string, func(wk *worker) (wireDoc, error), error) {
	if req.Matrix != nil {
		return "", nil, badRequest("matrix and workload are mutually exclusive")
	}
	if req.Topology == nil {
		return "", nil, badRequest("a workload request needs an explicit topology (the workload is sized by the machine)")
	}
	net, err := buildTopology(req.Topology, 0)
	if err != nil {
		return "", nil, err
	}
	sp, err := resolveWorkloadSpec(req.Workload, net.Nodes())
	if err != nil {
		return "", nil, err
	}
	job := func(tag string) (string, func(wk *worker) (wireDoc, error)) {
		digest := scheduleWorkloadKey(sp, tag, net, req.Seed)
		seed := effectiveSeed(digest)
		return digest.Hex(), func(wk *worker) (wireDoc, error) {
			patRNG := stats.NewSource(seed).StreamKeyed(sp.Key()...)
			m, err := sp.Build(net.Nodes(), patRNG)
			if err != nil {
				return nil, badRequest("workload %s: %v", sp, err)
			}
			res, err := buildSchedule(wk.schedCore(net), m, tag, net, seed)
			if err != nil {
				return nil, err
			}
			res.Workload = sp.String()
			res.Matrix = NewWireMatrix(m)
			return res, nil
		}
	}
	algorithm := req.Algorithm
	if algorithm == "auto" {
		f := sched.Features{Nodes: net.Nodes(), Density: sp.DensityHint(net.Nodes()), SizeCV: sp.SizeCVHint()}
		algorithm = s.resolveAuto(ctx, net, nil, f, req.AutoRace, job)
	}
	key, compute := job(algorithm)
	return key, compute, nil
}

// unknownAlgorithm is /v1/schedule's answer to a tag outside the
// algorithm table, listing every tag it accepts.
func unknownAlgorithm(tag string) error {
	want := sched.WantList(append([]string{"auto"}, sched.Tags()...)...)
	return codedRequest(CodeUnknownAlgorithm, "unknown algorithm %q (want %s)", tag, want)
}

// buildSchedule runs the table entry for tag on the worker's reusable
// core. It is pure in its inputs: everything it returns derives from
// (matrix, tag, topology, seed) — core reuse cannot change a
// schedule, because core methods consume the identical RNG stream as
// the package-level functions — which is what makes memoization and
// deterministic re-computation equivalent.
func buildSchedule(core *sched.Core, m *comm.Matrix, tag string, net topo.Topology, seed int64) (*ScheduleResult, error) {
	alg, ok := sched.Lookup(tag)
	if !ok {
		// Reachable through auto: a calibration store may rank a tag
		// this build does not serve.
		return nil, unknownAlgorithm(tag)
	}
	res := &ScheduleResult{Chosen: tag, Topology: net.Name(), Seed: seed}
	if alg.Build == nil {
		// Nothing to schedule: AC fires asynchronously. The wire
		// schedule carries the algorithm tag and no phases; /v1/simulate
		// accepts it together with the matrix.
		if err := m.Validate(); err != nil {
			return nil, badRequest("%v", err)
		}
		res.Schedule = &WireSchedule{Algorithm: tag, N: m.N()}
		return res, nil
	}
	sc, err := alg.Build(core, m, rand.New(rand.NewSource(seed)))
	if err != nil {
		return nil, badRequest("%s: %v", tag, err)
	}
	res.LinkFree = core.ValidateLinkFree(sc) == nil
	res.Schedule = scheduleWire(sc)
	return res, nil
}

// --- /v1/simulate ---------------------------------------------------

func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) {
	s.requests[epSimulate].Add(1)
	cn, err := s.negotiate(r)
	if err != nil {
		writeError(w, err)
		return
	}
	var req SimulateRequest
	if err := decodeJSON(r, &req); err != nil {
		writeError(w, err)
		return
	}
	paramsName, params, err := resolveParams(req.Params)
	if err != nil {
		writeError(w, err)
		return
	}

	isAC := isACRun(req.Schedule)
	var (
		sc *sched.Schedule
		m  *comm.Matrix
		n  int
	)
	if isAC {
		if req.Matrix == nil {
			writeError(w, badRequest("an AC run (or a request without a schedule) needs a matrix"))
			return
		}
		if m, err = resolveMatrix(req.Matrix); err != nil {
			writeError(w, err)
			return
		}
		n = m.N()
	} else {
		if sc, err = resolveSchedule(req.Schedule); err != nil {
			writeError(w, err)
			return
		}
		n = sc.N
		if req.Matrix != nil {
			// When the caller supplies both, check they agree — a cheap
			// integrity check that catches mismatched uploads.
			if m, err = resolveMatrix(req.Matrix); err != nil {
				writeError(w, err)
				return
			}
			if err = sc.Validate(m); err != nil {
				writeError(w, badRequest("schedule does not match matrix: %v", err))
				return
			}
		}
	}

	net, err := resolveTopology(req.Topology, n)
	if err != nil {
		writeError(w, err)
		return
	}
	protocol, err := resolveProtocol(req.Protocol, isAC, sc)
	if err != nil {
		writeError(w, err)
		return
	}

	digest := simulateKey(sc, m, net, paramsName, protocol)
	key := digest.Hex()
	s.respondMemoized(w, r, cn, epSimulate, key, decodeSimulateDoc, func(wk *worker) (wireDoc, error) {
		mach, err := wk.machine(net, paramsName, params)
		if err != nil {
			return nil, err
		}
		result, err := simulate(mach, protocol, sc, m)
		if err != nil {
			return nil, err
		}
		return &SimulateResult{
			Topology:       net.Name(),
			Protocol:       protocol,
			MakespanUS:     result.MakespanUS,
			MakespanMS:     result.MakespanUS / 1000,
			Transfers:      result.Transfers,
			Exchanges:      result.Exchanges,
			ResourceWaitUS: result.ResourceWaitUS,
		}, nil
	})
}

// isACRun reports whether a simulate request is an asynchronous run
// driven directly by the matrix: it carries no schedule, or an AC
// schedule (which has no phases).
func isACRun(ws *WireSchedule) bool {
	return ws == nil || (ws.Algorithm == "AC" && len(ws.Phases) == 0)
}

// simulate runs a resolved simulation on mach: an AC run fires the
// matrix's send order, a phased schedule runs under its protocol.
func simulate(mach *ipsc.Machine, protocol string, sc *sched.Schedule, m *comm.Matrix) (ipsc.Result, error) {
	if protocol != "AC" {
		res, err := mach.Run(protocol, sc)
		return res, simulateError(err)
	}
	order, err := sched.AC(m)
	if err != nil {
		return ipsc.Result{}, badRequest("%v", err)
	}
	res, err := mach.RunAC(order, m)
	return res, simulateError(err)
}

// simulateError maps a simulator failure onto the API error model.
// Tripping the event bound is the request's doing — an input whose
// event cascade outran nodes x 1e6 events — not a server fault, so it
// answers 422 with a stable code instead of the generic 500 the bare
// error would produce. A nil error stays nil.
func simulateError(err error) error {
	var le *des.LimitError
	if errors.As(err, &le) {
		return &apiError{
			status: http.StatusUnprocessableEntity,
			code:   CodeSimulationLimit,
			msg:    fmt.Sprintf("simulation exceeded its %d-event bound at t=%vus; the input is pathological for this machine", le.MaxEvents, le.Now),
		}
	}
	return err
}

// resolveProtocol maps the requested execution protocol to a concrete
// one, defaulting to the pairing the paper uses per algorithm.
func resolveProtocol(requested string, isAC bool, sc *sched.Schedule) (string, error) {
	if isAC {
		if requested != "" && requested != "auto" && requested != "AC" {
			return "", badRequest("AC runs do not take protocol %q", requested)
		}
		return "AC", nil
	}
	switch requested {
	case "", "auto":
		// resolveSchedule admitted only phased table entries.
		alg, _ := sched.Lookup(sc.Algorithm)
		return alg.Protocol, nil
	case "S1", "S2", "LP":
		return requested, nil
	default:
		return "", badRequest("unknown protocol %q (want auto, S1, S2, or LP)", requested)
	}
}

// --- /v1/campaign ---------------------------------------------------

func (s *Server) handleCampaign(w http.ResponseWriter, r *http.Request) {
	s.requests[epCampaign].Add(1)
	var req CampaignRequest
	if err := decodeJSON(r, &req); err != nil {
		writeError(w, err)
		return
	}
	cfg, points, key, err := resolveCampaign(&req)
	if err != nil {
		writeError(w, err)
		return
	}
	if !s.campaigns.acquire() {
		s.rejected.Add(1)
		writeError(w, &apiError{status: http.StatusTooManyRequests,
			msg: fmt.Sprintf("already running %d campaigns; retry later", s.opts.MaxCampaigns)})
		return
	}
	job, err := s.campaigns.add(len(points)*cfg.Samples*len(expt.Algorithms), key, cfg.Topology.Name())
	if err != nil {
		s.campaigns.release()
		s.rejected.Add(1) // registry full is shed load, same as the queue
		writeError(w, err)
		return
	}
	s.totalJobs.Add(1)
	s.wg.Add(1)
	// Each running campaign owns an expt.Runner pool of its own, so
	// split the worker budget across the campaign slots: even with
	// every slot busy, campaign goroutines never exceed the configured
	// worker count and starve the synchronous pool of CPU.
	parallelism := s.opts.Workers / s.opts.MaxCampaigns
	if parallelism < 1 {
		parallelism = 1
	}
	if s.qstore != nil {
		// Campaigns are the calibration training loop: every measured
		// (workload, algorithm) cell lands in the quality store as a
		// cost/quality record. The sink runs on the campaign's
		// single-goroutine aggregation pass; Append serializes across
		// concurrent campaigns itself.
		cfg.Outcomes = func(workloadSpec string, samples int, o sched.Outcome) {
			_ = s.qstore.Append(quality.Record{
				Topology: o.TopoName, Workload: workloadSpec, Algorithm: o.Algorithm,
				Nodes: o.Nodes, Density: o.Density, SizeCV: o.SizeCV,
				Phases: float64(o.Phases), EstCommUS: o.EstCommUS,
				SchedCostNS: o.SchedCostNS, Samples: samples,
			})
		}
	}
	go func() {
		defer s.wg.Done()
		defer s.campaigns.release()
		// The daemon-shared route table for this topology serves every
		// campaign and synchronous request alike; fetching it here (not
		// on the HTTP goroutine) keeps a cold-start build off the
		// request path.
		cfg.Routes = s.tables.get(cfg.Topology)
		runCampaign(s.ctx, job, cfg, points, parallelism, s.recalibrate)
	}()
	writeJSON(w, http.StatusAccepted, CampaignAccepted{
		ID:  job.id,
		Key: key,
		URL: "/v1/campaign/" + job.id,
	})
}

// recalibrate reloads the selection model from the store the campaign
// just fed and swaps it in atomically: the next "auto" request picks
// from the freshest calibration. runCampaign invokes it before the
// job reports done, so polling a campaign to completion guarantees
// the model reflects it.
func (s *Server) recalibrate() {
	if s.qstore == nil {
		return
	}
	_ = s.qstore.Sync()
	if recs, err := quality.Load(s.qstore.Path()); err == nil {
		s.quality.Store(quality.NewModel(recs))
	}
}

func (s *Server) handleCampaignStatus(w http.ResponseWriter, r *http.Request) {
	s.requests[epCampaignGet].Add(1)
	id := r.PathValue("id")
	job, ok := s.campaigns.get(id)
	if !ok {
		writeError(w, &apiError{status: http.StatusNotFound, msg: fmt.Sprintf("no campaign %q", id)})
		return
	}
	writeJSON(w, http.StatusOK, job.status())
}

// --- /healthz and /metrics ------------------------------------------

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	doc := HealthStatus{
		Status:  "ok",
		Workers: s.opts.Workers,
	}
	if s.fleet != nil {
		// Per-peer reachability: parallel short-timeout probes of each
		// remote member's /healthz. An unreachable peer does not turn
		// this daemon unhealthy — fleet misses degrade to local compute.
		for _, p := range s.fleet.Reachability(r.Context()) {
			doc.Peers = append(doc.Peers, PeerHealth{URL: p.URL, Reachable: p.Reachable})
		}
	}
	writeJSON(w, http.StatusOK, doc)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	fmt.Fprintf(w, "# TYPE unschedd_requests_total counter\n")
	for i, name := range endpointNames {
		fmt.Fprintf(w, "unschedd_requests_total{endpoint=%q} %d\n", name, s.requests[i].Load())
	}
	fmt.Fprintf(w, "# TYPE unschedd_rejected_total counter\n")
	fmt.Fprintf(w, "unschedd_rejected_total %d\n", s.rejected.Load())
	fmt.Fprintf(w, "# TYPE unschedd_cache_hits_total counter\n")
	for ep, name := range endpointNames[:2] {
		fmt.Fprintf(w, "unschedd_cache_hits_total{endpoint=%q} %d\n", name, s.cacheHits[ep].Load())
	}
	fmt.Fprintf(w, "# TYPE unschedd_cache_misses_total counter\n")
	for ep, name := range endpointNames[:2] {
		fmt.Fprintf(w, "unschedd_cache_misses_total{endpoint=%q} %d\n", name, s.cacheMisses[ep].Load())
	}
	fmt.Fprintf(w, "# TYPE unschedd_flight_dedup_total counter\n")
	fmt.Fprintf(w, "unschedd_flight_dedup_total %d\n", s.flightDedup.Load())
	autoTags, autoVals := s.autoResolved.series()
	fmt.Fprintf(w, "# TYPE unschedd_auto_resolved_total counter\n")
	for i, tag := range autoTags {
		fmt.Fprintf(w, "unschedd_auto_resolved_total{algorithm=%q} %d\n", tag, autoVals[i])
	}
	raceTags, raceVals := s.autoRaceWins.series()
	fmt.Fprintf(w, "# TYPE unschedd_auto_race_wins_total counter\n")
	for i, tag := range raceTags {
		fmt.Fprintf(w, "unschedd_auto_race_wins_total{algorithm=%q} %d\n", tag, raceVals[i])
	}
	fmt.Fprintf(w, "# TYPE unschedd_http_304_total counter\n")
	fmt.Fprintf(w, "unschedd_http_304_total %d\n", s.http304.Load())
	fmt.Fprintf(w, "# TYPE unschedd_response_encoding_total counter\n")
	for e := range s.respCount {
		for c := range s.respCount[e] {
			fmt.Fprintf(w, "unschedd_response_encoding_total{encoding=%q,compression=%q} %d\n",
				encodingNames[e], compressionNames[c], s.respCount[e][c].Load())
		}
	}
	fmt.Fprintf(w, "# TYPE unschedd_response_bytes_total counter\n")
	for e := range s.respBytes {
		for c := range s.respBytes[e] {
			fmt.Fprintf(w, "unschedd_response_bytes_total{encoding=%q,compression=%q} %d\n",
				encodingNames[e], compressionNames[c], s.respBytes[e][c].Load())
		}
	}
	fmt.Fprintf(w, "# TYPE unschedd_bytes_saved_total counter\n")
	fmt.Fprintf(w, "unschedd_bytes_saved_total %d\n", s.bytesSaved.Load())
	fmt.Fprintf(w, "# TYPE unschedd_cache_entries gauge\n")
	fmt.Fprintf(w, "unschedd_cache_entries %d\n", s.cache.len())
	fmt.Fprintf(w, "# TYPE unschedd_cache_warm_loaded_entries gauge\n")
	fmt.Fprintf(w, "unschedd_cache_warm_loaded_entries %d\n", s.warmLoaded.Load())
	// Disk persistence series are emitted even when persistence is off
	// (all zero): scrapers should not need per-deployment series sets.
	var loadErrs, writeErrs, diskRecords, diskBytes int64
	if s.disk != nil {
		loadErrs = s.disk.loadErrors.Load()
		writeErrs = s.disk.writeErrors.Load()
		diskRecords = s.disk.records.Load()
		diskBytes = s.disk.bytes.Load()
	}
	fmt.Fprintf(w, "# TYPE unschedd_disk_load_errors_total counter\n")
	fmt.Fprintf(w, "unschedd_disk_load_errors_total %d\n", loadErrs)
	fmt.Fprintf(w, "# TYPE unschedd_disk_write_errors_total counter\n")
	fmt.Fprintf(w, "unschedd_disk_write_errors_total %d\n", writeErrs)
	fmt.Fprintf(w, "# TYPE unschedd_disk_records gauge\n")
	fmt.Fprintf(w, "unschedd_disk_records %d\n", diskRecords)
	fmt.Fprintf(w, "# TYPE unschedd_disk_bytes gauge\n")
	fmt.Fprintf(w, "unschedd_disk_bytes %d\n", diskBytes)
	fmt.Fprintf(w, "# TYPE unschedd_queue_depth gauge\n")
	fmt.Fprintf(w, "unschedd_queue_depth %d\n", s.pool.depth.Load())
	fmt.Fprintf(w, "# TYPE unschedd_queue_capacity gauge\n")
	fmt.Fprintf(w, "unschedd_queue_capacity %d\n", s.opts.QueueDepth)
	fmt.Fprintf(w, "# TYPE unschedd_workers gauge\n")
	fmt.Fprintf(w, "unschedd_workers %d\n", s.opts.Workers)
	fmt.Fprintf(w, "# TYPE unschedd_campaigns_total counter\n")
	fmt.Fprintf(w, "unschedd_campaigns_total %d\n", s.totalJobs.Load())
	fmt.Fprintf(w, "# TYPE unschedd_campaigns_running gauge\n")
	fmt.Fprintf(w, "unschedd_campaigns_running %d\n", len(s.campaigns.running))
	s.emitPeerMetrics(w)
}
