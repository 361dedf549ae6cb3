// Package fleet makes a set of unschedd daemons behave as one logical
// cache. Every response the service memoizes is a pure function of a
// SHA-256 content-hash key, so identical keys yield bit-identical
// bytes on every daemon — which means fetching a peer's cached record
// is always safe, and almost always cheaper than recomputing an
// O(n^2) schedule locally.
//
// Membership is static: a list of base URLs (the -peers flag), one of
// which is this daemon itself. Each key is assigned an owner by
// rendezvous (highest-random-weight) hashing over the member URLs: no
// virtual-node configuration, and when a member joins or leaves, only
// the keys whose highest-scoring member changed move — every other
// key keeps its owner.
//
// The fleet layer is strictly an accelerator, never a dependency:
//
//   - A cache miss on a key this daemon does not own probes the
//     owner's GET /v1/cache/{key} under a short total budget, with a
//     hedged second attempt to the next-ranked peer once the probe
//     outlives the observed p90 lookup latency. Any timeout, error,
//     or corrupt record just falls back to local compute.
//   - A key this daemon computed but does not own is pushed to its
//     owner asynchronously (write-behind): a bounded queue drained by
//     one sender goroutine, dropping on overflow — the push queue can
//     never apply backpressure to the request path.
//
// All peer traffic shares one pooled http.Client with keep-alives and
// idle connections tuned for a small set of hosts, so steady-state
// lookups ride warm connections instead of re-handshaking per miss.
//
// The package is transport-and-framing only: records are opaque bytes
// validated by caller-supplied Encode/Decode hooks (the service wires
// these to its checksummed USCR cache-record codec), so fleet has no
// dependency on the service layer it accelerates.
package fleet

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

const (
	// cachePath is the internal cache endpoint's path prefix on every
	// member; the record for key lives at base + cachePath + key.
	cachePath = "/v1/cache/"
	// maxRecordBytes caps a fetched record body, the service's own
	// record cap; larger responses are treated as corrupt.
	maxRecordBytes = 64 << 20
)

// Options configures a Fleet.
type Options struct {
	// Self is this daemon's own base URL, exactly as the rest of the
	// fleet reaches it. It anchors ownership: Owns compares the
	// rendezvous ranking's winner against it. Required.
	Self string
	// Peers lists the fleet's member base URLs. Self may (and should)
	// appear in the list; it is added if absent, so every member ranks
	// over the identical set. Order does not matter.
	Peers []string
	// Budget bounds one Fetch end to end, hedge included; a peer that
	// cannot answer inside it loses to local compute. <= 0 means 75ms.
	Budget time.Duration
	// Hedge fixes the delay before the hedged second attempt; 0 means
	// adaptive (the observed p90 lookup latency, clamped to
	// [500us, Budget/2]).
	Hedge time.Duration
	// PushQueue bounds the write-behind queue of records awaiting push
	// to their owner; overflow drops (and counts) the record rather
	// than block the request path. <= 0 means 256.
	PushQueue int
	// PushTimeout bounds one push request. <= 0 means 1s.
	PushTimeout time.Duration
	// Decode validates a fetched record body and extracts the cached
	// value. It must reject corrupt or mis-keyed records with an
	// error — the service wires the checksummed USCR codec here.
	// Required.
	Decode func(key string, body []byte) (value []byte, err error)
	// Encode frames a value as the record body pushed to its owner —
	// the inverse of Decode. Required.
	Encode func(key string, value []byte) (body []byte, err error)
}

// PeerStatus is one remote member's reachability, as reported by
// Reachability (the /healthz fleet extension).
type PeerStatus struct {
	URL       string
	Reachable bool
}

// Stats is a snapshot of the fleet's counters, surfaced on /metrics.
type Stats struct {
	Lookups    int64 // Fetch calls issued (one per non-owned cache miss)
	Hits       int64 // Fetch calls answered by a valid peer record
	Misses     int64 // probes answered 404 (the peer does not have it)
	Errors     int64 // probes that failed: transport, status, or corrupt record
	Hedges     int64 // hedged second attempts fired
	Pushes     int64 // records pushed to their owner
	PushErrors int64 // pushes that failed after leaving the queue
	PushDrops  int64 // records dropped because the push queue was full

	LookupSum   float64 // total seconds across completed lookups
	LookupCount int64   // completed lookups measured
	LookupP90   float64 // current p90 lookup seconds (0 with no data)
}

// Fleet is the peer layer of one daemon: rendezvous ownership over the
// member set, hedged record fetch, and the write-behind push queue.
// All methods are safe for concurrent use.
type Fleet struct {
	self    string
	members []string // normalized, deduped, sorted; includes self
	remotes []string // members minus self
	opts    Options
	client  *http.Client

	pushCh      chan pushItem
	pushPending atomic.Int64
	pushMu      sync.Mutex
	pushClosed  bool
	pushDone    chan struct{}

	lookups, hits, misses, errs, hedges atomic.Int64
	pushes, pushErrors, pushDrops       atomic.Int64
	latMu                               sync.Mutex
	latRing                             [latWindow]float64
	latLen, latNext                     int
	latSum                              float64
	latCount                            int64
}

// latWindow is the ring of recent lookup latencies the adaptive hedge
// delay is computed over.
const latWindow = 128

type pushItem struct {
	key   string
	value []byte
}

// New validates the membership and starts the push sender. The only
// error paths are malformed URLs and missing hooks — a misconfigured
// fleet must fail daemon startup loudly, not silently run solo.
func New(opts Options) (*Fleet, error) {
	if opts.Decode == nil || opts.Encode == nil {
		return nil, errors.New("fleet: Decode and Encode hooks are required")
	}
	self, err := normalizeURL(opts.Self)
	if err != nil {
		return nil, fmt.Errorf("fleet: self %q: %w", opts.Self, err)
	}
	seen := map[string]bool{self: true}
	members := []string{self}
	for _, p := range opts.Peers {
		u, err := normalizeURL(p)
		if err != nil {
			return nil, fmt.Errorf("fleet: peer %q: %w", p, err)
		}
		if !seen[u] {
			seen[u] = true
			members = append(members, u)
		}
	}
	sort.Strings(members)
	remotes := make([]string, 0, len(members)-1)
	for _, m := range members {
		if m != self {
			remotes = append(remotes, m)
		}
	}
	if opts.Budget <= 0 {
		opts.Budget = 75 * time.Millisecond
	}
	if opts.PushQueue <= 0 {
		opts.PushQueue = 256
	}
	if opts.PushTimeout <= 0 {
		opts.PushTimeout = time.Second
	}
	f := &Fleet{
		self:    self,
		members: members,
		remotes: remotes,
		opts:    opts,
		// One pooled client for all peer traffic: lookups, pushes, and
		// health probes. The host set is tiny and fixed, so generous
		// per-host idle connections keep every steady-state lookup on a
		// warm connection — a per-fetch client would pay a TCP (and TLS)
		// handshake on every single miss.
		client: &http.Client{
			Transport: &http.Transport{
				MaxIdleConns:        4 * (len(members) + 1),
				MaxIdleConnsPerHost: 4,
				IdleConnTimeout:     90 * time.Second,
				// Records carry their own CRC and fleets are LAN/loopback
				// neighbors: transparent gzip would make every owner pay a
				// compression pass per lookup that costs more than the
				// bytes it saves, so ask for identity explicitly.
				DisableCompression: true,
			},
		},
		pushCh:   make(chan pushItem, opts.PushQueue),
		pushDone: make(chan struct{}),
	}
	go f.pushLoop()
	return f, nil
}

// normalizeURL canonicalizes a member base URL: absolute http(s),
// host required, trailing slash stripped (the cache path supplies its
// own), no query or fragment.
func normalizeURL(raw string) (string, error) {
	u, err := url.Parse(strings.TrimSpace(raw))
	if err != nil {
		return "", err
	}
	if u.Scheme != "http" && u.Scheme != "https" {
		return "", fmt.Errorf("scheme %q (want http or https)", u.Scheme)
	}
	if u.Host == "" {
		return "", errors.New("missing host")
	}
	if u.RawQuery != "" || u.Fragment != "" {
		return "", errors.New("base URL must not carry a query or fragment")
	}
	u.Path = strings.TrimRight(u.Path, "/")
	return u.String(), nil
}

// Self returns the normalized self URL.
func (f *Fleet) Self() string { return f.self }

// Members returns the normalized member set, self included, sorted.
func (f *Fleet) Members() []string { return append([]string(nil), f.members...) }

// --- rendezvous hashing ---------------------------------------------

// score is the rendezvous weight of (member, key): FNV-1a over the
// member URL, a separator, and the key. Keys are already uniform
// SHA-256 hex digests, so this cheap mix is more than enough to
// balance shards; what matters is that every member computes the
// identical ranking.
func score(member, key string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(member); i++ {
		h ^= uint64(member[i])
		h *= prime
	}
	h ^= 0xff // separator: "ab"+"c" must not collide with "a"+"bc"
	h *= prime
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime
	}
	return h
}

// Owner returns the member that owns key: the highest rendezvous
// score, ties broken toward the lexically smaller URL. Every member
// computes the same owner for the same key — that is the whole point.
func (f *Fleet) Owner(key string) string {
	best := f.members[0]
	bestScore := score(best, key)
	for _, m := range f.members[1:] {
		if s := score(m, key); s > bestScore || (s == bestScore && m < best) {
			best, bestScore = m, s
		}
	}
	return best
}

// Owns reports whether this daemon owns key.
func (f *Fleet) Owns(key string) bool { return f.Owner(key) == f.self }

// rankRemotes returns the remote members ordered by descending
// rendezvous score for key: the key's owner first (unless self owns
// it), then each successive fallback. This is the probe order of
// Fetch and the hedge target list.
func (f *Fleet) rankRemotes(key string) []string {
	type cand struct {
		url   string
		score uint64
	}
	cands := make([]cand, len(f.remotes))
	for i, m := range f.remotes {
		cands[i] = cand{url: m, score: score(m, key)}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].score != cands[j].score {
			return cands[i].score > cands[j].score
		}
		return cands[i].url < cands[j].url
	})
	ranked := make([]string, len(cands))
	for i, c := range cands {
		ranked[i] = c.url
	}
	return ranked
}

// --- fetch (peer fill) ----------------------------------------------

type probeResult struct {
	value []byte
	miss  bool // the peer answered 404: it does not have the record
	err   error
}

// Fetch asks the key's owner for its cached record, hedging to the
// next-ranked peer once the probe outlives the adaptive hedge delay,
// all under the configured budget. It returns the validated record
// value, or ok=false when no peer could answer in time — the caller
// computes locally; a peer can make it faster, never unavailable.
func (f *Fleet) Fetch(ctx context.Context, key string) (value []byte, ok bool) {
	targets := f.rankRemotes(key)
	if len(targets) == 0 {
		return nil, false
	}
	f.lookups.Add(1)
	ctx, cancel := context.WithTimeout(ctx, f.opts.Budget)
	defer cancel()
	start := time.Now()
	ch := make(chan probeResult, len(targets))
	probe := func(base string) {
		ch <- f.probe(ctx, base, key)
	}
	go probe(targets[0])
	inflight, next := 1, 1
	timer := time.NewTimer(f.hedgeDelay())
	defer timer.Stop()
	for inflight > 0 {
		select {
		case r := <-ch:
			inflight--
			switch {
			case r.err == nil && !r.miss:
				f.hits.Add(1)
				f.observe(time.Since(start))
				return r.value, true
			case r.miss:
				// An authoritative answer: the peer is healthy and does
				// not have the record. If nothing else is in flight there
				// is no point widening the search — the key is simply new.
				f.misses.Add(1)
				f.observe(time.Since(start))
				if inflight == 0 {
					return nil, false
				}
			default:
				// Transport failure or corrupt record: fail over to the
				// next-ranked peer immediately rather than waiting for the
				// hedge timer — the failed probe already spent its time.
				f.errs.Add(1)
				if inflight == 0 && next < len(targets) && ctx.Err() == nil {
					go probe(targets[next])
					next++
					inflight++
				}
			}
		case <-timer.C:
			if next < len(targets) && ctx.Err() == nil {
				f.hedges.Add(1)
				go probe(targets[next])
				next++
				inflight++
			}
		case <-ctx.Done():
			return nil, false
		}
	}
	return nil, false
}

// probe performs one GET against one member's cache endpoint and
// validates the record through the Decode hook.
func (f *Fleet) probe(ctx context.Context, base, key string) probeResult {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+cachePath+key, nil)
	if err != nil {
		return probeResult{err: err}
	}
	resp, err := f.client.Do(req)
	if err != nil {
		return probeResult{err: err}
	}
	defer func() {
		// Drain before close so the keep-alive connection returns to the
		// pool instead of being torn down with unread bytes on it.
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	switch resp.StatusCode {
	case http.StatusOK:
		body, err := io.ReadAll(io.LimitReader(resp.Body, maxRecordBytes+1))
		if err != nil {
			return probeResult{err: err}
		}
		if int64(len(body)) > maxRecordBytes {
			return probeResult{err: fmt.Errorf("fleet: record for %s exceeds %d bytes", key, maxRecordBytes)}
		}
		value, err := f.opts.Decode(key, body)
		if err != nil {
			return probeResult{err: fmt.Errorf("fleet: corrupt record from %s: %w", base, err)}
		}
		return probeResult{value: value}
	case http.StatusNotFound:
		return probeResult{miss: true}
	default:
		return probeResult{err: fmt.Errorf("fleet: %s answered %d", base, resp.StatusCode)}
	}
}

// hedgeDelay returns how long the first probe may run before the
// hedged second attempt fires: the configured override, or the
// observed p90 lookup latency clamped to [500us, Budget/2] (a quarter
// of the budget before any data exists).
func (f *Fleet) hedgeDelay() time.Duration {
	if f.opts.Hedge > 0 {
		return f.opts.Hedge
	}
	p90 := f.quantile(0.9)
	d := time.Duration(p90 * float64(time.Second))
	if d <= 0 {
		return f.opts.Budget / 4
	}
	if min := 500 * time.Microsecond; d < min {
		d = min
	}
	if max := f.opts.Budget / 2; d > max {
		d = max
	}
	return d
}

// observe records one completed lookup's latency.
func (f *Fleet) observe(d time.Duration) {
	sec := d.Seconds()
	f.latMu.Lock()
	f.latRing[f.latNext] = sec
	f.latNext = (f.latNext + 1) % latWindow
	if f.latLen < latWindow {
		f.latLen++
	}
	f.latSum += sec
	f.latCount++
	f.latMu.Unlock()
}

// quantile computes q over the recent-latency ring; 0 with no data.
func (f *Fleet) quantile(q float64) float64 {
	f.latMu.Lock()
	n := f.latLen
	buf := make([]float64, n)
	copy(buf, f.latRing[:n])
	f.latMu.Unlock()
	if n == 0 {
		return 0
	}
	sort.Float64s(buf)
	i := int(q * float64(n))
	if i >= n {
		i = n - 1
	}
	return buf[i]
}

// --- write-behind push ----------------------------------------------

// Push queues one locally computed record for asynchronous delivery
// to the key's owner. It never blocks: a full queue drops the record
// (the owner will simply recompute or be filled later) and a closed
// fleet ignores it. Call only for keys this daemon does not own.
func (f *Fleet) Push(key string, value []byte) {
	f.pushMu.Lock()
	if f.pushClosed {
		f.pushMu.Unlock()
		return
	}
	// Count under the lock so Close's drain wait cannot miss an item
	// that is incremented but not yet enqueued.
	select {
	case f.pushCh <- pushItem{key: key, value: value}:
		f.pushPending.Add(1)
		f.pushMu.Unlock()
	default:
		f.pushMu.Unlock()
		f.pushDrops.Add(1)
	}
}

// pushLoop is the single sender goroutine: it drains the queue and
// PUTs each record to its owner. It exits when the queue is closed
// AND empty, which is what lets Close drain cleanly.
func (f *Fleet) pushLoop() {
	defer close(f.pushDone)
	for item := range f.pushCh {
		f.sendPush(item)
		f.pushPending.Add(-1)
	}
}

// sendPush delivers one record to the key's current owner.
func (f *Fleet) sendPush(item pushItem) {
	owner := f.Owner(item.key)
	if owner == f.self {
		return // membership race; we already hold it
	}
	body, err := f.opts.Encode(item.key, item.value)
	if err != nil {
		f.pushErrors.Add(1)
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), f.opts.PushTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPut, owner+cachePath+item.key, strings.NewReader(string(body)))
	if err != nil {
		f.pushErrors.Add(1)
		return
	}
	resp, err := f.client.Do(req)
	if err != nil {
		f.pushErrors.Add(1)
		return
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		f.pushErrors.Add(1)
		return
	}
	f.pushes.Add(1)
}

// WaitPushes blocks until every queued push has been delivered (or
// failed), or ctx expires. Close uses it as its drain step; tests use
// it to make write-behind deterministic.
func (f *Fleet) WaitPushes(ctx context.Context) error {
	for f.pushPending.Load() > 0 {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(time.Millisecond):
		}
	}
	return nil
}

// Close drains the write-behind queue — a clean shutdown must not
// strand freshly computed records that their owners never saw — and
// stops the sender, waiting at most deadline. New pushes are dropped
// from the moment Close is called. Idempotent.
func (f *Fleet) Close(deadline time.Duration) {
	f.pushMu.Lock()
	already := f.pushClosed
	f.pushClosed = true
	if !already {
		close(f.pushCh)
	}
	f.pushMu.Unlock()
	select {
	case <-f.pushDone:
	case <-time.After(deadline):
		// Something is hung past its own PushTimeout; abandon the drain
		// rather than wedge shutdown. The sender goroutine exits when
		// its in-flight request times out.
	}
	f.client.CloseIdleConnections()
}

// --- reachability ----------------------------------------------------

// Reachability probes every remote member concurrently (250ms
// timeout each) and reports who answered. The probe targets the
// member's cache endpoint — the surface peer fill actually depends on
// — NOT its /healthz: members embed this report in their own /healthz,
// so probing /healthz would recurse fleet-wide. Any HTTP response
// counts as reachable (an all-zero hex key simply answers 404);
// unreachable means no response at all. Meant for the /healthz
// extension, not the hot path.
func (f *Fleet) Reachability(ctx context.Context) []PeerStatus {
	out := make([]PeerStatus, len(f.remotes))
	var wg sync.WaitGroup
	for i, base := range f.remotes {
		out[i].URL = base
		wg.Add(1)
		go func(i int, base string) {
			defer wg.Done()
			pctx, cancel := context.WithTimeout(ctx, 250*time.Millisecond)
			defer cancel()
			req, err := http.NewRequestWithContext(pctx, http.MethodGet, base+cachePath+"00", nil)
			if err != nil {
				return
			}
			resp, err := f.client.Do(req)
			if err != nil {
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			out[i].Reachable = true
		}(i, base)
	}
	wg.Wait()
	return out
}

// Stats snapshots the counters for /metrics.
func (f *Fleet) Stats() Stats {
	f.latMu.Lock()
	sum, count := f.latSum, f.latCount
	f.latMu.Unlock()
	return Stats{
		Lookups:     f.lookups.Load(),
		Hits:        f.hits.Load(),
		Misses:      f.misses.Load(),
		Errors:      f.errs.Load(),
		Hedges:      f.hedges.Load(),
		Pushes:      f.pushes.Load(),
		PushErrors:  f.pushErrors.Load(),
		PushDrops:   f.pushDrops.Load(),
		LookupSum:   sum,
		LookupCount: count,
		LookupP90:   f.quantile(0.9),
	}
}
