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
// comm.Digest — one entry per key: the JSON result, and beside it the
// renderings responses have needed (the binary payload, each encoding's
// gzip body), which a put over the key drops together. Randomized
// schedulers draw their RNG seed from that same hash, so a repeated
// identical request is not just a cache hit: even after eviction it
// recomputes the bit-identical schedule. A second bounded table maps
// each /v1/schedule and /v1/simulate request body, by its AES-GMAC tag
// under a key drawn once per Server, to the content key it resolved
// to, so a repeated body goes straight to revalidation and the cache
// without being decoded again (see serveJob and bodyKey).
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
// format. Only the canonical JSON form is persisted; its renderings
// are derived from it on demand and kept in memory, in its entry.
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
	"crypto/aes"
	"crypto/cipher"
	crand "crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"unsched/internal/comm"
	"unsched/internal/costmodel"
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
	// CacheDir enables disk persistence of the memoization cache: every
	// computed response is written through (asynchronously, batched) as
	// a checksummed record file, and NewServer warm-starts the cache
	// from the newest records already there. Empty keeps today's
	// memory-only behavior. Ignored when caching is disabled
	// (CacheEntries < 0) — there is nothing to persist. At most 256 MB
	// of records are retained there (cacheDiskBytes); the oldest are
	// garbage-collected past it.
	CacheDir string
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
}

const (
	// maxCampaignJobs bounds retained campaign jobs, running or
	// finished.
	maxCampaignJobs = 64
	// cacheDiskBytes bounds the bytes of records retained under
	// Options.CacheDir.
	cacheDiskBytes = 256 << 20
)

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
	// bodyKeys maps a /v1/schedule or /v1/simulate request body, by
	// its bodyKey under bodyMAC, to the content key it resolved to, so
	// a repeated body skips decode, resolution and fingerprinting. It
	// is bounded like cache. See serveJob.
	bodyKeys *scheduleCache
	// bodyMAC is the AES-GCM instance under a random key, drawn in
	// NewServer, that computes every bodyKey. The key never leaves the
	// process, so body keys are valid in this process only.
	bodyMAC cipher.AEAD
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
// responses byte-identically without recomputing. An unusable cache
// directory or quality store, or a bad peer list, is an error — a
// misconfigured daemon must fail loudly, not silently run memory-only
// — and so is a body-key MAC the process cannot build (see
// newBodyMAC).
func NewServer(opts Options) (*Server, error) {
	opts = opts.withDefaults()
	bodyMAC, err := newBodyMAC()
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	tables := newTableCache()
	s := &Server{
		opts:      opts,
		mux:       http.NewServeMux(),
		pool:      newPool(opts.Workers, opts.QueueDepth, tables),
		cache:     newScheduleCache(opts.CacheEntries),
		bodyKeys:  newScheduleCache(opts.CacheEntries),
		bodyMAC:   bodyMAC,
		flights:   newFlightGroup(),
		campaigns: newCampaignRegistry(maxCampaignJobs, opts.MaxCampaigns),
		tables:    tables,
		ctx:       ctx,
		cancel:    cancel,
	}
	if opts.CacheDir != "" && opts.CacheEntries > 0 {
		disk, err := newDiskStore(opts.CacheDir, opts.CacheEntries, cacheDiskBytes)
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
	s.mux.HandleFunc("POST /v1/schedule", serveJob(s, epSchedule, s.scheduleJob))
	s.mux.HandleFunc("POST /v1/schedule/batch", s.handleScheduleBatch)
	s.mux.HandleFunc("POST /v1/simulate", serveJob(s, epSimulate, simulateJob))
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

// job is one memoized request, resolved: its content-hash key, the
// endpoint whose hit/miss counters it moves and whose result decoder
// re-types its cached JSON (epSchedule or epSimulate), and the
// computation a worker runs on a miss. /v1/schedule, /v1/simulate,
// batch items and auto_race lanes are all served as jobs, through
// memoized.
//
// auto marks a job resolved from "auto", which the body-key table
// never records: the pick depends on the calibration model, which
// recalibrate swaps, and an auto_race winner on which lanes were shed.
type job struct {
	key     string
	ep      int
	compute func(wk *worker) (wireDoc, error)
	auto    bool
}

// resultDecoders re-type a cached JSON result by the endpoint that
// produced it, so the wire layer can render the binary form without
// recomputing.
var resultDecoders = [...]func(raw []byte) (wireDoc, error){
	epSchedule: decodeDoc[ScheduleResult],
	epSimulate: decodeDoc[SimulateResult],
}

// decodeDoc decodes a cached JSON result as its document type D. The
// cache admits any CRC-valid JSON value — from PUT /v1/cache/{key},
// peer fill or a warm load — and rendering a schedule result's matrix
// echo encodes its triples as they stand, so the echo is held to the
// request bounds and to the order the service writes first.
func decodeDoc[D any, P interface {
	*D
	wireDoc
}](raw []byte) (wireDoc, error) {
	doc := P(new(D))
	if err := json.Unmarshal(raw, doc); err != nil {
		return nil, err
	}
	if res, ok := wireDoc(doc).(*ScheduleResult); ok && res.Matrix != nil {
		if err := res.Matrix.checkEcho(); err != nil {
			return nil, err
		}
	}
	return doc, nil
}

// runTask runs compute on a pool worker and returns its document.
// Backpressure surfaces here: a full queue is 429 and a closing
// server 503, each counted as rejected. With retry (batch items) a
// full queue instead yields and retries, so one saturated moment does
// not pock a long stream with 429s; the wait watches ctx, so a
// disconnected client stops burning the queue, and a batch item never
// counts as rejected. A submitted task is not abandoned when its
// client disconnects: the computation already claims a worker, its
// result feeds the cache and any single-flight followers, and writing
// to a dead connection is harmless — so a cancelled leader must not
// poison everyone else.
func (s *Server) runTask(ctx context.Context, compute func(wk *worker) (wireDoc, error), retry bool) (wireDoc, error) {
	var (
		doc wireDoc
		err error
	)
	t := &task{run: func(wk *worker) { doc, err = compute(wk) }, done: make(chan struct{})}
	for {
		submitErr := s.pool.submit(t)
		switch {
		case submitErr == nil:
			<-t.done
			if t.panicked != nil {
				return nil, t.panicked // -> 500 for this request; the worker survived
			}
			return doc, err
		case submitErr == errBusy && retry:
			select {
			case <-ctx.Done():
				return nil, &apiError{status: statusClientClosedRequest, msg: "client closed request"}
			case <-time.After(5 * time.Millisecond):
			}
		default:
			status := http.StatusServiceUnavailable
			if submitErr == errBusy {
				status = http.StatusTooManyRequests
			}
			if !retry {
				s.rejected.Add(1)
			}
			return nil, &apiError{status: status, msg: submitErr.Error()}
		}
	}
}

// memoized returns j's response payload in the requested encoding:
// the raw JSON result document (enc == encJSON) or the binary
// document payload (enc == encBinary), plus whether it was served
// without computing. Concurrent misses on one content key are
// single-flighted, whatever their encodings: one leader computes, and
// each follower renders its own form from the leader's JSON.
//
// The cache keeps one entry per content key: the canonical JSON, which
// is what the disk store persists and warm restart reloads, and beside
// it the renderings responses have needed (render, hitGzip). JSON that
// does not render in the requested encoding, whether cached,
// peer-filled or shared through a flight, is computed afresh, and the
// fresh result replaces the cached one. retry is runTask's: batch items
// retry a full queue, synchronous requests are shed with 429.
//
// The hit/miss counters are j.ep's, and they reflect what actually
// happened: a hit is a response served from cached bytes (including a
// binary rendering of cached JSON), a miss is a computation, and a
// flight-served follower counts only in flightDedup.
func (s *Server) memoized(ctx context.Context, j job, enc encoding, retry bool) (payload []byte, cached bool, err error) {
	if payload, ok := s.cached(j.key, j.ep, enc); ok {
		return payload, true, nil
	}
	call, leader := s.flights.join(j.key)
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
		if payload, err := s.render(j.ep, j.key, call.raw, enc, nil); err == nil {
			return payload, true, nil
		}
		payload, _, err = s.compute(ctx, j, enc, retry)
		return payload, false, err
	}
	// Peer fill before computing: in fleet mode, a non-owned key may
	// already live at its rendezvous owner, and fetching its canonical
	// record under this flight slot is far cheaper than an O(n^2)
	// recompute. A fill served is a cache hit (remote, but cached
	// bytes); only an actual computation counts as a miss — which is
	// what keeps misses at one fleet-wide per unique key.
	if value, ok := s.peerFill(ctx, j.key); ok {
		if payload, err := s.render(j.ep, j.key, value, enc, nil); err == nil {
			s.cacheHits[j.ep].Add(1)
			s.flights.finish(j.key, call, value, nil)
			return payload, true, nil
		}
	}
	payload, value, err := s.compute(ctx, j, enc, retry)
	// compute populated the cache before the flight retires, so no
	// request can slip between the two and recompute.
	s.flights.finish(j.key, call, value, err)
	return payload, false, err
}

// compute runs j on a pool worker, memoizes its JSON result value and
// returns it with its payload in encoding enc, rendered from the
// computed document, so a binary miss decodes no JSON. A key another
// fleet member owns is also pushed to its owner.
func (s *Server) compute(ctx context.Context, j job, enc encoding, retry bool) (payload, value []byte, err error) {
	s.cacheMisses[j.ep].Add(1)
	doc, err := s.runTask(ctx, j.compute, retry)
	if err != nil {
		return nil, nil, err
	}
	if value, err = marshalResult(doc); err != nil {
		return nil, nil, err
	}
	s.cachePut(j.key, value)
	if s.fleet != nil && !s.fleet.Owns(j.key) {
		// Write-behind: this daemon computed a record it does not own;
		// ship it to the owner asynchronously so the rest of the fleet
		// finds it there. Never blocks (drop-on-full).
		s.fleet.Push(j.key, value)
	}
	payload, err = s.render(j.ep, j.key, value, enc, doc)
	return payload, value, err
}

// cached is memoized's cache read: key's payload in encoding enc,
// rendered from the cached JSON. A hit counts on ep's hit counter; a
// miss counts nothing, because the caller decides what the miss costs.
// Cached JSON that does not render is a miss: the caller recomputes,
// and the fresh result replaces the bad entry.
func (s *Server) cached(key string, ep int, enc encoding) (payload []byte, ok bool) {
	value, ok := s.cache.get(key)
	if !ok {
		return nil, false
	}
	payload, err := s.render(ep, key, value, enc, nil)
	if err != nil {
		return nil, false
	}
	s.cacheHits[ep].Add(1)
	return payload, true
}

// render returns value, endpoint ep's JSON result for key, as its
// payload in encoding enc: value itself, or the binary payload. That is
// the one kept beside key's cache entry, or else one rendered from doc,
// value's document (nil: decode value), and kept there unless a put
// replaced value meanwhile. It fails when value does not decode.
func (s *Server) render(ep int, key string, value []byte, enc encoding, doc wireDoc) ([]byte, error) {
	if enc == encJSON {
		return value, nil
	}
	if bin := s.cache.rendering(key, value, formBinary); bin != nil {
		return bin, nil
	}
	if doc == nil {
		var err error
		if doc, err = resultDecoders[ep](value); err != nil {
			return nil, err
		}
	}
	bin := doc.appendBinaryPayload(nil)
	s.cache.keep(key, value, formBinary, bin)
	return bin, nil
}

// serveJob is the one serve path of the memoized endpoints: negotiate
// the response form and read the body. A body the body-key table
// recorded goes straight to its content key (serveRecorded). Any other
// decodes into a fresh R and resolves into a job, which the table
// records; then it is revalidated, memoized and encoded
// (respondMemoized).
//
// Decode, validation and keying are pure functions of (endpoint,
// body), except "auto", so an auto job is never recorded (see job),
// and neither is a body that fails to decode or resolve.
func serveJob[R any](s *Server, ep int, resolve func(ctx context.Context, req *R) (job, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s.requests[ep].Add(1)
		cn, err := s.negotiate(r)
		if err != nil {
			writeError(w, err)
			return
		}
		body, err := readBody(r, maxRequestBytes)
		if err != nil {
			writeError(w, err)
			return
		}
		defer releaseBody(body)
		bk := bodyKey(s.bodyMAC, ep, body.Bytes())
		if s.serveRecorded(w, r, cn, ep, bk) {
			return
		}
		var (
			req R
			j   job
		)
		err = decodeBody(body.Bytes(), &req)
		if err == nil {
			j, err = resolve(r.Context(), &req)
		}
		if err != nil {
			writeError(w, err)
			return
		}
		if !j.auto {
			s.bodyKeys.put(bk, []byte(j.key))
		}
		s.respondMemoized(w, r, cn, j)
	}
}

// newBodyMAC returns the AES-GCM instance that computes body keys,
// under a fresh random key. It fails where the process cannot draw
// the key, or where GCM with a caller-chosen nonce is refused (Go's
// GODEBUG=fips140=only).
func newBodyMAC() (cipher.AEAD, error) {
	key := make([]byte, 16)
	if _, err := crand.Read(key); err != nil {
		return nil, fmt.Errorf("service: body-key secret: %w", err)
	}
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, fmt.Errorf("service: body-key cipher: %w", err)
	}
	mac, err := cipher.NewGCM(block)
	if err != nil {
		return nil, fmt.Errorf("service: body-key MAC: %w", err)
	}
	return mac, nil
}

// bodyKey is a request body's key in the body-key table: the hex
// AES-GCM tag of an empty plaintext with the body as additional data
// (a GMAC), under mac's secret key K, with the endpoint index as the
// nonce's first byte, so the same bytes on two endpoints get unrelated
// keys. Hex, because scheduleCache shards on a key's first hex digit.
//
// A collision would answer one client's body with another's result.
// With an empty plaintext the tag is GHASH_H(body) XOR E_K(nonce‖1),
// where H = E_K(0) is secret, and GHASH under a secret H is a
// universal hash (NIST SP 800-38D): two distinct bodies fixed without
// knowledge of H share a tag with probability at most (the longer
// body's 16-byte blocks + 1) / 2^128, at most 2^-107 at the 32 MiB
// body cap. No response, header, log or metric carries a body key, so
// a client learns only hit or miss, which only a collision can change:
// its bodies are fixed without knowledge of H, and the repeated nonce
// exposes nothing, because the usual GCM nonce-reuse attack needs tags
// to read. Unlike SHA-256's computational bound, this one needs only
// that K stays in the process. One mac serves every handler at once:
// Seal reads only the key schedule and the GHASH table.
func bodyKey(mac cipher.AEAD, ep int, body []byte) string {
	var nonce [12]byte
	nonce[0] = byte(ep)
	return hex.EncodeToString(mac.Seal(nil, nonce[:], nil, body))
}

// serveRecorded answers a request whose body the body-key table
// recorded, from the content key alone: a 304, or a cache hit in the
// negotiated envelope, written by the same code as respondMemoized's
// and moving the counters a decoded repeat moves. It writes nothing
// and reports false when the body has no entry or the memo cache
// misses its key: the caller then decodes.
func (s *Server) serveRecorded(w http.ResponseWriter, r *http.Request, cn conneg, ep int, bk string) bool {
	entry, ok := s.bodyKeys.get(bk)
	if !ok {
		return false
	}
	key := string(entry)
	if ifNoneMatchHit(r, etagFor(key, cn.enc)) {
		s.writeNotModified(w, cn, key)
		return true
	}
	payload, ok := s.cached(key, ep, cn.enc)
	if ok {
		s.writeNegotiated(w, cn, key, true, payload)
	}
	return ok
}

// respondMemoized is the HTTP face of memoized: revalidation first,
// then cache-or-compute, then the negotiated response envelope.
//
// The If-None-Match check runs before everything else. The response
// is a pure function of the content-hash key, so a client presenting
// the current ETag holds current bytes by construction — the 304 costs
// no cache probe for the body and no worker time, even if the entry
// was evicted everywhere.
func (s *Server) respondMemoized(w http.ResponseWriter, r *http.Request, cn conneg, j job) {
	if ifNoneMatchHit(r, etagFor(j.key, cn.enc)) {
		s.writeNotModified(w, cn, j.key)
		return
	}
	payload, cached, err := s.memoized(r.Context(), j, cn.enc, false)
	if err != nil {
		writeError(w, err)
		return
	}
	s.writeNegotiated(w, cn, j.key, cached, payload)
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

// --- /v1/schedule ---------------------------------------------------

// scheduleJob resolves a schedule request — algorithm, pattern,
// topology, caps — into its job. It owns everything below the HTTP
// layer, which is what lets the synchronous endpoint, the batch
// stream and auto_race lanes share one implementation.
//
// Algorithm "auto" resolves to a concrete tag HERE, before the key is
// derived: the quality model ranks the algorithms from the matrix's
// measured features (node count, density, size variation), so the
// resolved request fingerprints — and caches, and re-seeds — exactly
// as the equivalent direct request does. The context only gates the
// optional auto_race; plain resolution never blocks on it.
func (s *Server) scheduleJob(ctx context.Context, req *ScheduleRequest) (job, error) {
	if req.Algorithm == "" {
		req.Algorithm = "auto"
	}
	if _, ok := sched.Lookup(req.Algorithm); !ok && req.Algorithm != "auto" {
		return job{}, unknownAlgorithm(req.Algorithm)
	}
	if req.Workload != "" {
		return s.scheduleWorkloadJob(ctx, req)
	}
	m, err := resolveMatrix(req.Matrix)
	if err != nil {
		return job{}, err
	}
	net, err := resolveTopology(req.Topology, m.N())
	if err != nil {
		return job{}, err
	}
	jobFor := func(tag string) job {
		digest := scheduleKey(m, tag, net, req.Seed)
		seed := effectiveSeed(digest)
		return job{key: digest.Hex(), ep: epSchedule,
			compute: func(wk *worker) (wireDoc, error) {
				res, err := buildSchedule(wk, m, tag, net, seed)
				if err != nil {
					return nil, err
				}
				return res, nil
			}}
	}
	if req.Algorithm == "auto" {
		return s.resolveAuto(ctx, net, m, sched.MeasureFeatures(m), req.AutoRace, jobFor), nil
	}
	return jobFor(req.Algorithm), nil
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
func (s *Server) scheduleWorkloadJob(ctx context.Context, req *ScheduleRequest) (job, error) {
	if req.Matrix != nil {
		return job{}, badRequest("matrix and workload are mutually exclusive")
	}
	if req.Topology == nil {
		return job{}, badRequest("a workload request needs an explicit topology (the workload is sized by the machine)")
	}
	net, err := resolveTopology(req.Topology, 0)
	if err != nil {
		return job{}, err
	}
	sp, err := resolveWorkloadSpec(req.Workload, net.Nodes())
	if err != nil {
		return job{}, err
	}
	jobFor := func(tag string) job {
		digest := scheduleWorkloadKey(sp, tag, net, req.Seed)
		seed := effectiveSeed(digest)
		return job{key: digest.Hex(), ep: epSchedule,
			compute: func(wk *worker) (wireDoc, error) {
				m, err := wk.workloadMatrix(net.Nodes())
				if err == nil {
					wk.patRNG = stats.NewSource(seed).Reseed(wk.patRNG, sp.Key()...)
					err = sp.BuildInto(m, wk.patRNG)
				}
				if err != nil {
					return nil, badRequest("workload %s: %v", sp, err)
				}
				res, err := buildSchedule(wk, m, tag, net, seed)
				if err != nil {
					return nil, err
				}
				res.Workload = sp.String()
				res.Matrix = NewWireMatrix(m) // a copy: m is the worker's
				return res, nil
			}}
	}
	if req.Algorithm == "auto" {
		f := sched.Features{Nodes: net.Nodes(), Density: sp.DensityHint(net.Nodes()), SizeCV: sp.SizeCVHint()}
		return s.resolveAuto(ctx, net, nil, f, req.AutoRace, jobFor), nil
	}
	return jobFor(req.Algorithm), nil
}

// unknownAlgorithm is /v1/schedule's answer to a tag outside the
// algorithm table, listing every tag it accepts.
func unknownAlgorithm(tag string) error {
	want := sched.WantList(append([]string{"auto"}, sched.Tags()...)...)
	return codedRequest(CodeUnknownAlgorithm, "unknown algorithm %q (want %s)", tag, want)
}

// buildSchedule runs the table entry for tag on the worker's reusable
// core, with the worker's generator reseeded to seed when the entry is
// Randomized. It is pure in its inputs: everything it returns derives
// from (matrix, tag, topology, seed) — core reuse cannot change a
// schedule, because core methods consume the identical RNG stream as
// the package-level functions — which is what makes memoization and
// deterministic re-computation equivalent. The result carries a wire
// copy of the schedule, so the schedule itself goes back to the core.
func buildSchedule(wk *worker, m *comm.Matrix, tag string, net topo.Topology, seed int64) (*ScheduleResult, error) {
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
	var rng *rand.Rand
	if alg.Randomized {
		rng = wk.schedRNG(seed)
	}
	core := wk.schedCore(net)
	sc, err := alg.Build(core, m, rng)
	if err != nil {
		return nil, badRequest("%s: %v", tag, err)
	}
	res.LinkFree = core.ValidateLinkFree(sc) == nil
	res.Schedule = scheduleWire(sc)
	core.Recycle(sc)
	return res, nil
}

// --- /v1/simulate ---------------------------------------------------

// simulation is a resolved simulate request: the inputs of one run.
type simulation struct {
	net        topo.Topology
	paramsName string
	params     costmodel.Params
	protocol   string
	sc         *sched.Schedule // nil on an AC run
	m          *comm.Matrix    // the AC run's matrix, or one shipped with sc
}

// simulateJob resolves a simulate request into its job. A simulation
// never races, so the context goes unused.
func simulateJob(_ context.Context, req *SimulateRequest) (job, error) {
	sim, err := resolveSimulation(req, nil, nil)
	if err != nil {
		return job{}, err
	}
	key := simulateKey(sim.sc, sim.m, sim.net, sim.paramsName, sim.protocol).Hex()
	return job{key: key, ep: epSimulate, compute: sim.run}, nil
}

// resolveSimulation resolves a simulate request — timing model,
// schedule or AC matrix, topology, protocol. An AC run (no schedule,
// or an AC schedule) is driven by the matrix; a phased schedule runs
// under its protocol, and a matrix sent along with it must match it.
// A non-nil net or m stands in for the request's topology or matrix,
// already resolved and checked by the caller: auto_race scores each
// lane on its schedule request's own network and matrix rather than
// rebuilding them.
func resolveSimulation(req *SimulateRequest, net topo.Topology, m *comm.Matrix) (*simulation, error) {
	paramsName, params, err := resolveParams(req.Params)
	if err != nil {
		return nil, err
	}
	isAC := isACRun(req.Schedule)
	var sc *sched.Schedule
	if isAC && req.Matrix == nil && m == nil {
		return nil, badRequest("an AC run (or a request without a schedule) needs a matrix")
	}
	if !isAC {
		if sc, err = resolveSchedule(req.Schedule); err != nil {
			return nil, err
		}
	}
	if m == nil && req.Matrix != nil {
		if m, err = resolveMatrix(req.Matrix); err != nil {
			return nil, err
		}
		if sc != nil {
			// When the caller supplies both, check they agree — a cheap
			// integrity check that catches mismatched uploads.
			if err = sc.Validate(m); err != nil {
				return nil, badRequest("schedule does not match matrix: %v", err)
			}
		}
	}
	var n int
	if sc != nil {
		n = sc.N
	} else {
		n = m.N()
	}
	if net == nil {
		if net, err = resolveTopology(req.Topology, n); err != nil {
			return nil, err
		}
	}
	protocol, err := resolveProtocol(req.Protocol, isAC, sc)
	if err != nil {
		return nil, err
	}
	return &simulation{net: net, paramsName: paramsName, params: params, protocol: protocol, sc: sc, m: m}, nil
}

// run simulates sim on a worker's machine for its network and timing
// model.
func (sim *simulation) run(wk *worker) (wireDoc, error) {
	mach, err := wk.machine(sim.net, sim.paramsName, sim.params)
	if err != nil {
		return nil, err
	}
	var result ipsc.Result
	if sim.protocol == "AC" {
		core := wk.schedCore(sim.net)
		var order *sched.ACOrder
		if order, err = core.AC(sim.m); err != nil {
			return nil, badRequest("%v", err)
		}
		result, err = mach.RunAC(order, sim.m)
		core.RecycleOrder(order)
	} else {
		result, err = mach.Run(sim.protocol, sim.sc)
	}
	if err != nil {
		return nil, simulateError(err)
	}
	return &SimulateResult{
		Topology:       sim.net.Name(),
		Protocol:       sim.protocol,
		MakespanUS:     result.MakespanUS,
		MakespanMS:     result.MakespanUS / 1000,
		Transfers:      result.Transfers,
		Exchanges:      result.Exchanges,
		ResourceWaitUS: result.ResourceWaitUS,
	}, nil
}

// isACRun reports whether a simulate request is an asynchronous run
// driven directly by the matrix: it carries no schedule, or an AC
// schedule (which has no phases).
func isACRun(ws *WireSchedule) bool {
	return ws == nil || (ws.Algorithm == "AC" && len(ws.Phases) == 0)
}

// simulateError maps a simulator failure onto the API error model.
// Both mapped failures are the request's doing, not server faults. A
// schedule the protocol cannot run (ipsc.ScheduleError: LP needs an LP
// schedule that pairs each node with its XOR partner) answers 400 with
// the simulator's message. Tripping the event bound — an input whose
// event cascade outran nodes x 1e6 events — answers 422 with a stable
// code. Anything else stays the generic 500.
func simulateError(err error) error {
	var (
		se *ipsc.ScheduleError
		le *des.LimitError
	)
	switch {
	case errors.As(err, &se):
		return badRequest("%s", se.Error())
	case errors.As(err, &le):
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
	if requested == "" || requested == "auto" {
		// resolveSchedule admitted only phased table entries.
		alg, _ := sched.Lookup(sc.Algorithm)
		return alg.Protocol, nil
	}
	protocols := ipsc.PhasedProtocols()
	if !slices.Contains(protocols, requested) {
		return "", badRequest("unknown protocol %q (want %s)", requested, sched.WantList(append([]string{"auto"}, protocols...)...))
	}
	return requested, nil
}

// --- /v1/campaign ---------------------------------------------------

func (s *Server) handleCampaign(w http.ResponseWriter, r *http.Request) {
	s.requests[epCampaign].Add(1)
	var req CampaignRequest
	if err := readJSON(r, &req); err != nil {
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
			_ = s.qstore.Append(quality.FromOutcome(workloadSpec, samples, o))
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
	for _, m := range s.metrics() {
		if len(m.samples) == 0 {
			continue
		}
		fmt.Fprintf(w, "# TYPE %s %s\n", m.name, m.kind)
		for _, sm := range m.samples {
			fmt.Fprintf(w, "%s%s %v\n", m.name, sm.suffix, sm.value)
		}
	}
}

// metric is one /metrics family: its name, its Prometheus type, and
// the samples it exposes on this scrape. A family with no samples is
// left out of the exposition.
type metric struct {
	name, kind string
	samples    []sample
}

// sample is one line of a family: what follows the family name (a
// label set, or a summary's _sum/_count suffix) and the value, an
// integer or a float64 (%v prints it as %g).
type sample struct {
	suffix string
	value  any
}

// metrics declares every /metrics family once, in exposition order.
// The disk and peer series report zero when persistence or the fleet
// is off, so scrapers need no per-deployment series sets; only the
// fleet's shard-balance gauge, which has no solo shape, is absent solo.
func (s *Server) metrics() []metric {
	disk := s.disk
	if disk == nil {
		disk = new(diskStore)
	}
	var fs fleet.Stats
	if s.fleet != nil {
		fs = s.fleet.Stats()
	}
	one := func(v any) []sample { return []sample{{value: v}} }
	return []metric{
		{"unschedd_requests_total", "counter", labeled("endpoint", endpointNames[:], s.requests[:])},
		{"unschedd_rejected_total", "counter", one(s.rejected.Load())},
		{"unschedd_cache_hits_total", "counter", labeled("endpoint", endpointNames[:2], s.cacheHits[:])},
		{"unschedd_cache_misses_total", "counter", labeled("endpoint", endpointNames[:2], s.cacheMisses[:])},
		{"unschedd_flight_dedup_total", "counter", one(s.flightDedup.Load())},
		{"unschedd_auto_resolved_total", "counter", s.autoResolved.samples()},
		{"unschedd_auto_race_wins_total", "counter", s.autoRaceWins.samples()},
		{"unschedd_http_304_total", "counter", one(s.http304.Load())},
		{"unschedd_response_encoding_total", "counter", perVariant(&s.respCount)},
		{"unschedd_response_bytes_total", "counter", perVariant(&s.respBytes)},
		{"unschedd_bytes_saved_total", "counter", one(s.bytesSaved.Load())},
		{"unschedd_cache_entries", "gauge", one(s.cache.len())},
		{"unschedd_cache_warm_loaded_entries", "gauge", one(s.warmLoaded.Load())},
		{"unschedd_disk_load_errors_total", "counter", one(disk.loadErrors.Load())},
		{"unschedd_disk_write_errors_total", "counter", one(disk.writeErrors.Load())},
		{"unschedd_disk_records", "gauge", one(disk.records.Load())},
		{"unschedd_disk_bytes", "gauge", one(disk.bytes.Load())},
		{"unschedd_queue_depth", "gauge", one(s.pool.depth.Load())},
		{"unschedd_queue_capacity", "gauge", one(s.opts.QueueDepth)},
		{"unschedd_workers", "gauge", one(s.opts.Workers)},
		{"unschedd_campaigns_total", "counter", one(s.totalJobs.Load())},
		{"unschedd_campaigns_running", "gauge", one(len(s.campaigns.running))},
		{"unschedd_peer_lookup_total", "counter", one(fs.Lookups)},
		{"unschedd_peer_hit_total", "counter", one(fs.Hits)},
		{"unschedd_peer_miss_total", "counter", one(fs.Misses)},
		{"unschedd_peer_error_total", "counter", one(fs.Errors)},
		{"unschedd_peer_hedge_total", "counter", one(fs.Hedges)},
		{"unschedd_peer_push_total", "counter", one(fs.Pushes)},
		{"unschedd_peer_push_error_total", "counter", one(fs.PushErrors)},
		{"unschedd_peer_push_drop_total", "counter", one(fs.PushDrops)},
		{"unschedd_peer_lookup_seconds", "summary", []sample{
			{`{quantile="0.9"}`, fs.LookupP90}, {"_sum", fs.LookupSum}, {"_count", fs.LookupCount}}},
		{"unschedd_peer_owned_keys", "gauge", s.peerOwnedKeys()},
	}
}

// labeled returns one sample per counter, labeled with its name.
func labeled(label string, names []string, counters []atomic.Int64) []sample {
	out := make([]sample, len(names))
	for i, name := range names {
		out[i] = sample{fmt.Sprintf("{%s=%q}", label, name), counters[i].Load()}
	}
	return out
}

// perVariant returns one sample per response encoding x compression.
func perVariant(counters *[numEncodings][numCompressions]atomic.Int64) []sample {
	var out []sample
	for e := range counters {
		for c := range counters[e] {
			out = append(out, sample{fmt.Sprintf("{encoding=%q,compression=%q}", encodingNames[e], compressionNames[c]),
				counters[e][c].Load()})
		}
	}
	return out
}
