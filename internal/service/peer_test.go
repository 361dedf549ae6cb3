package service

// Fleet-mode tests: the 3-daemon property test (any daemon answers
// bit-identically to a solo daemon, with exactly one compute per
// unique key fleet-wide), peer-outage fallback, corrupt-record
// rejection, write-behind drain on Close, and the /v1/cache endpoint
// contract. All run under -race in CI.

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// swapHandler lets an httptest listener start before the Server that
// will serve it exists — fleet members need each other's URLs at
// construction time, so the listeners come up first and the daemons
// are swapped in behind them.
type swapHandler struct {
	mu sync.RWMutex
	h  http.Handler
}

func (sh *swapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	sh.mu.RLock()
	h := sh.h
	sh.mu.RUnlock()
	if h == nil {
		http.Error(w, "not ready", http.StatusServiceUnavailable)
		return
	}
	h.ServeHTTP(w, r)
}

func (sh *swapHandler) set(h http.Handler) {
	sh.mu.Lock()
	sh.h = h
	sh.mu.Unlock()
}

// newFleetServers starts n daemons behind httptest listeners that all
// know each other as peers. The generous PeerBudget keeps slow CI
// runners from turning a peer hit into a budget-expired local compute
// (which would break the one-miss-fleet-wide accounting).
func newFleetServers(t *testing.T, n int, mutate func(i int, o *Options)) ([]*Server, []*httptest.Server) {
	t.Helper()
	handlers := make([]*swapHandler, n)
	tss := make([]*httptest.Server, n)
	urls := make([]string, n)
	for i := range handlers {
		handlers[i] = &swapHandler{}
		tss[i] = httptest.NewServer(handlers[i])
		urls[i] = tss[i].URL
	}
	servers := make([]*Server, n)
	for i := range servers {
		o := Options{Workers: 2, Peers: urls, SelfURL: urls[i], PeerBudget: 2 * time.Second}
		if mutate != nil {
			mutate(i, &o)
		}
		svc, err := NewServer(o)
		if err != nil {
			t.Fatal(err)
		}
		handlers[i].set(svc)
		servers[i] = svc
	}
	t.Cleanup(func() {
		for _, ts := range tss {
			ts.Close()
		}
		for _, s := range servers {
			s.Close()
		}
	})
	return servers, tss
}

// waitFleetPushes drains every daemon's write-behind queue, making
// the asynchronous push step deterministic for the accounting checks.
func waitFleetPushes(t *testing.T, servers []*Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, s := range servers {
		if err := s.fleet.WaitPushes(ctx); err != nil {
			t.Fatalf("WaitPushes: %v", err)
		}
	}
}

// postCapture posts v as JSON and returns status, body, and ETag.
// accept overrides the Accept header (for the binary encoding).
func postCapture(t *testing.T, url string, v any, accept string) (int, []byte, string) {
	t.Helper()
	body, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", ContentTypeJSON)
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, raw, resp.Header.Get("Etag")
}

// fleetPropertyRequests is a spread of schedule and simulate requests
// whose content-hash keys land on different owners: explicit
// matrices, generated workloads, and AC simulate runs.
func fleetPropertyRequests(t *testing.T) []struct {
	path string
	body any
} {
	t.Helper()
	var reqs []struct {
		path string
		body any
	}
	add := func(path string, body any) {
		reqs = append(reqs, struct {
			path string
			body any
		}{path, body})
	}
	for i, algo := range []string{"RS_NL", "GREEDY_LF", "LP", "RS_N"} {
		add("/v1/schedule", ScheduleRequest{
			Matrix: testMatrix(t, 8, 3, 2048, int64(i+1)), Algorithm: algo, Seed: int64(i)})
	}
	for i, w := range []struct{ spec, topo, algo string }{
		{"uniform:4:1024", "cube:4", "RS_NL"},
		{"uniform:4:2048", "cube:4", "GREEDY"},
		{"halo:4x4:512", "torus:4x4", "RS_NL"},
		{"perm:512", "cube:4", "GREEDY_LF"},
	} {
		add("/v1/schedule", ScheduleRequest{
			Workload: w.spec, Algorithm: w.algo,
			Topology: &WireTopology{Spec: w.topo}, Seed: int64(i)})
	}
	for i := 0; i < 3; i++ {
		add("/v1/simulate", SimulateRequest{Matrix: testMatrix(t, 8, 3, 1024, int64(10+i))})
	}
	return reqs
}

// TestFleetBitIdenticalWithOneComputePerKey is the fleet property
// test: for a spread of schedule/simulate requests hitting arbitrary
// daemons of a 3-member fleet, every response (JSON and binary, plus
// ETag) is bit-identical to a solo daemon's, and the whole fleet
// performs exactly one compute (one cache-miss increment) per unique
// key — every other serving is a local hit or a peer fill.
func TestFleetBitIdenticalWithOneComputePerKey(t *testing.T) {
	solo, soloTS := newTestServer(t, Options{Workers: 2})
	servers, tss := newFleetServers(t, 3, nil)

	keys := map[string]bool{}
	for i, rq := range fleetPropertyRequests(t) {
		// Solo reference: the first response is the computed
		// (cached=false) form, the second the cached=true form, and the
		// binary probe renders from cache — the same progression every
		// key goes through fleet-side.
		st, soloFirst, soloTag := postCapture(t, soloTS.URL+rq.path, rq.body, "")
		if st != http.StatusOK {
			t.Fatalf("req %d: solo status %d: %s", i, st, soloFirst)
		}
		_, soloSecond, _ := postCapture(t, soloTS.URL+rq.path, rq.body, "")
		_, soloBin, soloBinTag := postCapture(t, soloTS.URL+rq.path, rq.body, ContentTypeBinary)

		// Round 1: a fresh key on daemon d1 — the fleet's one compute.
		d1 := i % 3
		st1, got1, tag1 := postCapture(t, tss[d1].URL+rq.path, rq.body, "")
		if st1 != http.StatusOK {
			t.Fatalf("req %d: fleet status %d: %s", i, st1, got1)
		}
		if !bytes.Equal(got1, soloFirst) || tag1 != soloTag {
			t.Fatalf("req %d: fresh fleet response differs from solo\nfleet: %s (etag %s)\nsolo:  %s (etag %s)",
				i, got1, tag1, soloFirst, soloTag)
		}
		var env Envelope
		if err := json.Unmarshal(got1, &env); err != nil {
			t.Fatal(err)
		}
		keys[env.Key] = true
		waitFleetPushes(t, servers)

		// Round 2: a different daemon must serve the identical bytes
		// without recomputing (local hit on the owner, or peer fill).
		d2 := (d1 + 1 + i%2) % 3
		_, got2, tag2 := postCapture(t, tss[d2].URL+rq.path, rq.body, "")
		if !bytes.Equal(got2, soloSecond) || tag2 != soloTag {
			t.Fatalf("req %d: cached fleet response differs from solo\nfleet: %s (etag %s)\nsolo:  %s (etag %s)",
				i, got2, tag2, soloSecond, soloTag)
		}

		// Binary probe on the remaining daemon: rendered from cached or
		// peer-fetched JSON, never recomputed.
		d3 := (d2 + 1) % 3
		_, gotBin, tagBin := postCapture(t, tss[d3].URL+rq.path, rq.body, ContentTypeBinary)
		if !bytes.Equal(gotBin, soloBin) || tagBin != soloBinTag {
			t.Fatalf("req %d: binary fleet response differs from solo (%d vs %d bytes, etag %s vs %s)",
				i, len(gotBin), len(soloBin), tagBin, soloBinTag)
		}
		waitFleetPushes(t, servers)
	}

	soloMisses := solo.cacheMisses[epSchedule].Load() + solo.cacheMisses[epSimulate].Load()
	if soloMisses != int64(len(keys)) {
		t.Fatalf("solo misses = %d, want one per unique key (%d)", soloMisses, len(keys))
	}
	var fleetMisses, peerHits int64
	for _, s := range servers {
		fleetMisses += s.cacheMisses[epSchedule].Load() + s.cacheMisses[epSimulate].Load()
		peerHits += s.fleet.Stats().Hits
	}
	if fleetMisses != int64(len(keys)) {
		t.Fatalf("fleet-wide misses = %d, want exactly one compute per unique key (%d)", fleetMisses, len(keys))
	}
	if peerHits == 0 {
		t.Fatal("no peer hits recorded; the fleet never exercised peer fill")
	}

	// The fleet series surface on /metrics, including the shard-balance
	// gauge with one row per member.
	_, metrics := getJSON(t, tss[0].URL+"/metrics", nil)
	for _, want := range []string{
		"unschedd_peer_lookup_total", "unschedd_peer_hit_total",
		"unschedd_peer_lookup_seconds_count", "unschedd_peer_owned_keys{peer=",
	} {
		if !strings.Contains(string(metrics), want) {
			t.Errorf("fleet /metrics missing %s", want)
		}
	}
	// Solo daemons emit the counters too (all zero), but no gauge rows.
	_, soloMetrics := getJSON(t, soloTS.URL+"/metrics", nil)
	if !strings.Contains(string(soloMetrics), "unschedd_peer_lookup_total 0") {
		t.Error("solo /metrics missing zero-valued peer counters")
	}
	if strings.Contains(string(soloMetrics), "unschedd_peer_owned_keys") {
		t.Error("solo /metrics should not emit the shard-balance gauge")
	}
}

// TestFleetKillOnePeerFallsBackToLocal: with one member down, every
// request against the survivors still answers 200 with solo-identical
// bytes — peers make a daemon faster, never unavailable — and
// /healthz reports the dead member unreachable.
func TestFleetKillOnePeer(t *testing.T) {
	_, soloTS := newTestServer(t, Options{Workers: 2})
	servers, tss := newFleetServers(t, 3, func(i int, o *Options) {
		// A short budget keeps the owner-down probes from stretching the
		// test; correctness must not depend on the budget's size.
		o.PeerBudget = 250 * time.Millisecond
	})
	tss[2].Close() // connection refused from here on

	// Keep issuing fresh requests against the survivors until at least
	// one key owned by the dead member has been served — that request
	// is forced through the refused-connection path before computing.
	deadOwned := 0
	for i := 0; i < 6 || deadOwned == 0; i++ {
		if i > 200 {
			t.Fatal("no key owned by the dead member in 200 tries")
		}
		rq := ScheduleRequest{Matrix: testMatrix(t, 8, 3, 1024, int64(100+i)), Algorithm: "RS_NL"}
		_, want, wantTag := postCapture(t, soloTS.URL+"/v1/schedule", rq, "")
		d := i % 2 // survivors only
		st, got, tag := postCapture(t, tss[d].URL+"/v1/schedule", rq, "")
		if st != http.StatusOK {
			t.Fatalf("req %d: status %d with a peer down: %s", i, st, got)
		}
		if !bytes.Equal(got, want) || tag != wantTag {
			t.Fatalf("req %d: degraded response differs from solo", i)
		}
		var env Envelope
		if err := json.Unmarshal(got, &env); err != nil {
			t.Fatal(err)
		}
		if servers[d].fleet.Owner(env.Key) == tss[2].URL {
			deadOwned++
		}
	}

	var health HealthStatus
	st, _ := getJSON(t, tss[0].URL+"/healthz", &health)
	if st != http.StatusOK || health.Status != "ok" {
		t.Fatalf("healthz with a peer down: status %d, %+v", st, health)
	}
	if len(health.Peers) != 2 {
		t.Fatalf("healthz peers = %+v, want 2 remotes", health.Peers)
	}
	for _, p := range health.Peers {
		wantReachable := p.URL == tss[1].URL
		if p.Reachable != wantReachable {
			t.Errorf("peer %s reachable = %v, want %v", p.URL, p.Reachable, wantReachable)
		}
	}
	if errs := servers[0].fleet.Stats().Errors + servers[1].fleet.Stats().Errors; errs == 0 {
		t.Error("no peer errors recorded despite serving a key the dead member owns")
	}
}

// TestFleetRejectsCorruptPeerRecords: a peer serving damaged records
// (garbage, wrong-key, bit-flipped CRC) must never poison the cache —
// the fetch fails validation, the daemon computes locally, and the
// response stays solo-identical.
func TestFleetRejectsCorruptPeerRecords(t *testing.T) {
	corruptions := []struct {
		name string
		make func(key string) []byte
	}{
		{"garbage", func(key string) []byte { return []byte("not a record at all") }},
		{"wrong key", func(key string) []byte {
			other := strings.Repeat("0", 63) + "1"
			rec, err := encodeRecord(other, []byte(`{"sneaky":true}`))
			if err != nil {
				t.Fatal(err)
			}
			return rec
		}},
		{"flipped crc", func(key string) []byte {
			rec, err := encodeRecord(key, []byte(`{"sneaky":true}`))
			if err != nil {
				t.Fatal(err)
			}
			rec[len(rec)-1] ^= 0xff
			return rec
		}},
		// Well framed, right key, valid CRC, but not JSON: hits splice
		// cached results into the envelope verbatim, so this must read
		// as a miss, never enter the cache.
		{"not json", func(key string) []byte {
			rec, err := encodeRecord(key, []byte("not json"))
			if err != nil {
				t.Fatal(err)
			}
			return rec
		}},
	}
	for _, tc := range corruptions {
		t.Run(tc.name, func(t *testing.T) {
			_, soloTS := newTestServer(t, Options{Workers: 2})
			evil := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.Method != http.MethodGet {
					w.WriteHeader(http.StatusNoContent)
					return
				}
				key := strings.TrimPrefix(r.URL.Path, "/v1/cache/")
				w.Header().Set("Content-Type", ContentTypeCacheRecord)
				_, _ = w.Write(tc.make(key))
			}))
			defer evil.Close()

			sh := &swapHandler{}
			ts := httptest.NewServer(sh)
			defer ts.Close()
			svc, err := NewServer(Options{Workers: 2,
				Peers: []string{ts.URL, evil.URL}, SelfURL: ts.URL, PeerBudget: 2 * time.Second})
			if err != nil {
				t.Fatal(err)
			}
			defer svc.Close()
			sh.set(svc)

			// Walk seeds until a request's key is owned by the evil peer,
			// so the miss path actually fetches (and must reject) the
			// corrupt record before falling back to compute.
			for seed := int64(0); ; seed++ {
				rq := ScheduleRequest{Matrix: testMatrix(t, 8, 3, 512, 7), Algorithm: "RS_NL", Seed: seed}
				_, want, _ := postCapture(t, soloTS.URL+"/v1/schedule", rq, "")
				st, got, _ := postCapture(t, ts.URL+"/v1/schedule", rq, "")
				if st != http.StatusOK {
					t.Fatalf("status %d against corrupt peer: %s", st, got)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("response differs from solo with corrupt peer\nfleet: %s\nsolo:  %s", got, want)
				}
				var env Envelope
				if err := json.Unmarshal(got, &env); err != nil {
					t.Fatal(err)
				}
				if svc.fleet.Owns(env.Key) {
					continue // the evil peer was never consulted; try another key
				}
				if st := svc.fleet.Stats(); st.Errors == 0 {
					t.Fatalf("corrupt record accepted silently: %+v", st)
				}
				// The poisoned bytes must not have entered the cache: a
				// repeat serves the locally computed result.
				if raw, ok := svc.cache.get(env.Key); !ok {
					t.Fatal("computed result not cached")
				} else if !bytes.Equal(raw, []byte(env.Result)) {
					t.Fatalf("cache holds foreign bytes: %s", raw)
				}
				break
			}
		})
	}
}

// TestFleetCloseDrainsPushes: records computed moments before a clean
// shutdown still reach their owners — Server.Close drains the
// write-behind queue before returning.
func TestFleetCloseDrainsPushes(t *testing.T) {
	sh := make([]*swapHandler, 2)
	tss := make([]*httptest.Server, 2)
	urls := make([]string, 2)
	for i := range sh {
		sh[i] = &swapHandler{}
		tss[i] = httptest.NewServer(sh[i])
		urls[i] = tss[i].URL
		defer tss[i].Close()
	}
	servers := make([]*Server, 2)
	for i := range servers {
		svc, err := NewServer(Options{Workers: 2, Peers: urls, SelfURL: urls[i], PeerBudget: 2 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		sh[i].set(svc)
		servers[i] = svc
	}
	defer servers[1].Close()

	// Post schedule requests to daemon 0 until N of them landed on keys
	// daemon 1 owns; each queues one write-behind push.
	const n = 5
	var owned []string
	for seed := int64(0); len(owned) < n; seed++ {
		rq := ScheduleRequest{Matrix: testMatrix(t, 8, 3, 256, 9), Algorithm: "GREEDY", Seed: seed}
		var env Envelope
		st, raw := postJSON(t, urls[0]+"/v1/schedule", rq, &env)
		if st != http.StatusOK {
			t.Fatalf("status %d: %s", st, raw)
		}
		if !servers[0].fleet.Owns(env.Key) {
			owned = append(owned, env.Key)
		}
	}

	// Close without waiting: the drain is Close's job.
	servers[0].Close()

	for _, key := range owned {
		if _, ok := servers[1].cache.get(key); !ok {
			t.Fatalf("owner missing pushed key %s after Close", key)
		}
		st, _ := getJSON(t, urls[1]+"/v1/cache/"+key, nil)
		if st != http.StatusOK {
			t.Fatalf("owner cache endpoint answered %d for pushed key %s", st, key)
		}
	}
}

// TestCacheEndpointContract pins the internal record endpoints: GET
// serves decodable USCR records (memory first, disk fallback), PUT
// validates before accepting, and bad keys or bodies are rejected.
func TestCacheEndpointContract(t *testing.T) {
	dir := t.TempDir()
	svc, ts := newTestServer(t, Options{Workers: 2, CacheDir: dir})

	var env Envelope
	st, _ := postJSON(t, ts.URL+"/v1/schedule",
		ScheduleRequest{Matrix: testMatrix(t, 8, 3, 512, 3), Algorithm: "RS_NL"}, &env)
	if st != http.StatusOK {
		t.Fatalf("schedule status %d", st)
	}

	// GET from the memory cache: the record must decode back to the
	// exact cached value.
	st, raw := getJSON(t, ts.URL+"/v1/cache/"+env.Key, nil)
	if st != http.StatusOK {
		t.Fatalf("cache get status %d", st)
	}
	key, value, err := decodeRecord(raw)
	if err != nil || key != env.Key {
		t.Fatalf("served record undecodable: %v (key %s)", err, key)
	}
	if !bytes.Equal(value, []byte(env.Result)) {
		t.Fatal("served record value differs from the memoized result")
	}

	// Unknown and invalid keys are 404 — never 500, never a path probe.
	for _, bad := range []string{strings.Repeat("a", 64), "../../etc/passwd", "UPPER", "zz"} {
		if st, _ := getJSON(t, ts.URL+"/v1/cache/"+bad, nil); st != http.StatusNotFound {
			t.Errorf("GET %q: status %d, want 404", bad, st)
		}
	}

	// PUT round trip: a valid record lands in the cache.
	putKey := strings.Repeat("b", 64)
	rec, err := encodeRecord(putKey, []byte(`{"pushed":true}`))
	if err != nil {
		t.Fatal(err)
	}
	doPut := func(key string, body []byte) int {
		req, err := http.NewRequest(http.MethodPut, ts.URL+"/v1/cache/"+key, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	if st := doPut(putKey, rec); st != http.StatusNoContent {
		t.Fatalf("PUT valid record: status %d", st)
	}
	if got, ok := svc.cache.get(putKey); !ok || string(got) != `{"pushed":true}` {
		t.Fatalf("pushed record not cached: %q ok=%v", got, ok)
	}
	// Mismatched path key, corrupt body: rejected before the cache.
	if st := doPut(strings.Repeat("c", 64), rec); st != http.StatusBadRequest {
		t.Errorf("PUT mismatched key: status %d, want 400", st)
	}
	broken := append([]byte(nil), rec...)
	broken[len(broken)-1] ^= 0xff
	if st := doPut(putKey, broken); st != http.StatusBadRequest {
		t.Errorf("PUT corrupt record: status %d, want 400", st)
	}

	// Disk fallback: a record evicted from memory but present on disk
	// is served verbatim from its file.
	svc.disk.close() // flush the write-behind batch
	onDisk, err := os.ReadFile(filepath.Join(dir, env.Key+recordSuffix))
	if err != nil {
		t.Fatalf("persisted record missing: %v", err)
	}
	fresh := newScheduleCache(16)
	svc.cache = fresh // drop the memory copy
	st, raw = getJSON(t, ts.URL+"/v1/cache/"+env.Key, nil)
	if st != http.StatusOK || !bytes.Equal(raw, onDisk) {
		t.Fatalf("disk-backed GET: status %d, verbatim=%v", st, bytes.Equal(raw, onDisk))
	}
}

// TestCachePutRejectsNonJSONRecord: a correctly framed record whose
// value is not JSON is refused with 400 and never cached. Before the
// check the PUT answered 204, and from then on every JSON and binary
// /v1/schedule for that key answered 500 until the entry was evicted.
func TestCachePutRejectsNonJSONRecord(t *testing.T) {
	req := ScheduleRequest{Matrix: testMatrix(t, 8, 3, 512, 5), Algorithm: "RS_NL"}
	_, refTS := newTestServer(t, Options{Workers: 1})
	_, want, _ := postCapture(t, refTS.URL+"/v1/schedule", req, "")
	var env Envelope
	if err := json.Unmarshal(want, &env); err != nil {
		t.Fatal(err)
	}

	svc, ts := newTestServer(t, Options{Workers: 1})
	rec, err := encodeRecord(env.Key, []byte("not json"))
	if err != nil {
		t.Fatal(err)
	}
	put, err := http.NewRequest(http.MethodPut, ts.URL+"/v1/cache/"+env.Key, bytes.NewReader(rec))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(put)
	if err != nil {
		t.Fatal(err)
	}
	var ee ErrorEnvelope
	err = json.NewDecoder(resp.Body).Decode(&ee)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || err != nil || ee.Err.Code != CodeBadRequest {
		t.Fatalf("PUT non-JSON record: status %d, code %q (%v), want 400 %s", resp.StatusCode, ee.Err.Code, err, CodeBadRequest)
	}
	if _, ok := svc.cache.get(env.Key); ok {
		t.Fatal("non-JSON record entered the cache")
	}
	// The key still serves, in both encodings, exactly as elsewhere.
	if st, got, _ := postCapture(t, ts.URL+"/v1/schedule", req, ""); st != http.StatusOK || !bytes.Equal(got, want) {
		t.Fatalf("JSON schedule after refused PUT: status %d\ngot:  %s\nwant: %s", st, got, want)
	}
	if st, got, _ := postCapture(t, ts.URL+"/v1/schedule", req, ContentTypeBinary); st != http.StatusOK {
		t.Fatalf("binary schedule after refused PUT: status %d: %s", st, got)
	}
}

func TestDiskStoreReadRecord(t *testing.T) {
	dir := t.TempDir()
	ds, err := newDiskStore(dir, 16, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	key := fakeKey(1)
	if err := ds.writeRecord(key, []byte("value")); err != nil {
		t.Fatal(err)
	}
	raw := ds.readRecord(key)
	if k, v, err := decodeRecord(raw); err != nil || k != key || string(v) != "value" {
		t.Fatalf("readRecord round trip: key %s value %q err %v", k, v, err)
	}
	if ds.readRecord(fakeKey(2)) != nil {
		t.Fatal("absent record should read nil")
	}
	// A damaged file reads as a miss, never ships.
	path := filepath.Join(dir, key+recordSuffix)
	if err := os.WriteFile(path, []byte("scribbled"), 0o644); err != nil {
		t.Fatal(err)
	}
	if ds.readRecord(key) != nil {
		t.Fatal("corrupt record served")
	}
}

// TestFleetOptionValidation: Peers without SelfURL, or malformed peer
// URLs, must fail NewServer loudly.
func TestFleetOptionValidation(t *testing.T) {
	if _, err := NewServer(Options{Peers: []string{"http://a:1"}}); err == nil {
		t.Fatal("Peers without SelfURL accepted")
	}
	if _, err := NewServer(Options{Peers: []string{"::bad::"}, SelfURL: "http://a:1"}); err == nil {
		t.Fatal("malformed peer URL accepted")
	}
}
