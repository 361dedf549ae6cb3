package fleet

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/http/httptrace"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// passthrough hooks: the record body IS the value. Real deployments
// wire the service's checksummed USCR codec here; for transport tests
// the identity codec keeps the fixtures readable.
func identityHooks(o *Options) {
	o.Decode = func(key string, body []byte) ([]byte, error) { return body, nil }
	o.Encode = func(key string, value []byte) ([]byte, error) { return value, nil }
}

func testKey(i int) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("key-%d", i)))
	return hex.EncodeToString(sum[:])
}

func newFleet(t *testing.T, self string, peers []string, mut ...func(*Options)) *Fleet {
	t.Helper()
	o := Options{Self: self, Peers: peers}
	identityHooks(&o)
	for _, m := range mut {
		m(&o)
	}
	f, err := New(o)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(func() { f.Close(2 * time.Second) })
	return f
}

func TestNewValidation(t *testing.T) {
	ok := Options{Self: "http://a:1", Peers: []string{"http://b:1"}}
	identityHooks(&ok)

	cases := []struct {
		name string
		mut  func(*Options)
	}{
		{"missing hooks", func(o *Options) { o.Decode = nil }},
		{"bad self", func(o *Options) { o.Self = "not a url\x00" }},
		{"self without scheme", func(o *Options) { o.Self = "a:1" }},
		{"peer without host", func(o *Options) { o.Peers = []string{"http://"} }},
		{"peer with query", func(o *Options) { o.Peers = []string{"http://b:1?x=1"} }},
	}
	for _, tc := range cases {
		o := ok
		tc.mut(&o)
		if _, err := New(o); err == nil {
			t.Errorf("%s: want error, got nil", tc.name)
		}
	}

	// Self absent from Peers is added; trailing slashes and dups collapse.
	o := ok
	o.Peers = []string{"http://b:1/", "http://b:1", "http://c:1"}
	f, err := New(o)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer f.Close(time.Second)
	want := []string{"http://a:1", "http://b:1", "http://c:1"}
	got := f.Members()
	if len(got) != len(want) {
		t.Fatalf("members = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("members = %v, want %v", got, want)
		}
	}
}

// Every member must compute the identical owner for the same key, and
// ownership must cover all members roughly evenly (HRW over uniform
// SHA-256 keys).
func TestOwnerAgreementAndBalance(t *testing.T) {
	urls := []string{"http://a:1", "http://b:1", "http://c:1"}
	fleets := make([]*Fleet, len(urls))
	for i, u := range urls {
		fleets[i] = newFleet(t, u, urls)
	}
	counts := map[string]int{}
	const n = 3000
	for i := 0; i < n; i++ {
		key := testKey(i)
		owner := fleets[0].Owner(key)
		for _, f := range fleets[1:] {
			if got := f.Owner(key); got != owner {
				t.Fatalf("key %s: owner disagreement %s vs %s", key, got, owner)
			}
		}
		counts[owner]++
		owns := 0
		for i, f := range fleets {
			if f.Owns(key) {
				owns++
				if urls[i] != owner {
					t.Fatalf("key %s: %s claims ownership but owner is %s", key, urls[i], owner)
				}
			}
		}
		if owns != 1 {
			t.Fatalf("key %s: %d members claim ownership", key, owns)
		}
	}
	for _, u := range urls {
		if c := counts[u]; c < n/6 || c > n/2 {
			t.Errorf("imbalanced shard: %s owns %d of %d", u, c, n)
		}
	}
}

// The rendezvous property: adding a member moves only the keys the
// new member now wins — every other key keeps its owner.
func TestRebalanceMinimal(t *testing.T) {
	three := []string{"http://a:1", "http://b:1", "http://c:1"}
	four := append(append([]string(nil), three...), "http://d:1")
	f3 := newFleet(t, three[0], three)
	f4 := newFleet(t, three[0], four)
	moved := 0
	const n = 2000
	for i := 0; i < n; i++ {
		key := testKey(i)
		before, after := f3.Owner(key), f4.Owner(key)
		if before != after {
			if after != "http://d:1" {
				t.Fatalf("key %s moved %s -> %s, not to the new member", key, before, after)
			}
			moved++
		}
	}
	// Expect ~1/4 of keys to move to d; anything near that is fine,
	// wholesale reshuffling is not.
	if moved == 0 || moved > n/2 {
		t.Errorf("moved %d of %d keys on membership growth", moved, n)
	}
}

func TestRankRemotesOrdersByScore(t *testing.T) {
	urls := []string{"http://a:1", "http://b:1", "http://c:1"}
	f := newFleet(t, urls[0], urls)
	for i := 0; i < 200; i++ {
		key := testKey(i)
		ranked := f.rankRemotes(key)
		if len(ranked) != 2 {
			t.Fatalf("ranked = %v", ranked)
		}
		if score(ranked[0], key) < score(ranked[1], key) {
			t.Fatalf("key %s: ranked %v out of score order", key, ranked)
		}
		if !f.Owns(key) && f.Owner(key) != ranked[0] {
			t.Fatalf("key %s: owner %s not first in %v", key, f.Owner(key), ranked)
		}
	}
}

// recordServer is a stub peer: it serves records from an in-memory
// map on GET and stores them on PUT, counting requests.
type recordServer struct {
	t       *testing.T
	gets    atomic.Int64
	puts    atomic.Int64
	records map[string][]byte // nil value = 404
	delay   time.Duration
}

func (rs *recordServer) handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if rs.delay > 0 {
			time.Sleep(rs.delay)
		}
		key := strings.TrimPrefix(r.URL.Path, "/v1/cache/")
		switch r.Method {
		case http.MethodGet:
			rs.gets.Add(1)
			if body, ok := rs.records[key]; ok {
				w.Write(body)
				return
			}
			http.NotFound(w, r)
		case http.MethodPut:
			rs.puts.Add(1)
			w.WriteHeader(http.StatusNoContent)
		}
	})
}

// Satellite regression test: all peer traffic must ride the pooled
// client's keep-alive connections. Eight sequential fetches against
// one peer should reuse a connection at least six times — a per-fetch
// client would report zero reuse.
func TestFetchReusesConnections(t *testing.T) {
	rs := &recordServer{t: t, records: map[string][]byte{}}
	for i := 0; i < 8; i++ {
		rs.records[testKey(i)] = []byte(fmt.Sprintf("value-%d", i))
	}
	srv := httptest.NewServer(rs.handler())
	defer srv.Close()

	f := newFleet(t, "http://self:1", []string{srv.URL})
	var reused atomic.Int64
	ctx := httptrace.WithClientTrace(context.Background(), &httptrace.ClientTrace{
		GotConn: func(info httptrace.GotConnInfo) {
			if info.Reused {
				reused.Add(1)
			}
		},
	})
	for i := 0; i < 8; i++ {
		key := testKey(i)
		value, ok := f.Fetch(ctx, key)
		if !ok || string(value) != fmt.Sprintf("value-%d", i) {
			t.Fatalf("fetch %d: ok=%v value=%q", i, ok, value)
		}
	}
	if got := reused.Load(); got < 6 {
		t.Fatalf("connection reused %d times across 8 fetches; pooled client not reusing", got)
	}
}

func TestFetchMissAndDecodeReject(t *testing.T) {
	rs := &recordServer{t: t, records: map[string][]byte{testKey(0): []byte("good")}}
	srv := httptest.NewServer(rs.handler())
	defer srv.Close()

	rejects := 0
	f := newFleet(t, "http://self:1", []string{srv.URL}, func(o *Options) {
		o.Decode = func(key string, body []byte) ([]byte, error) {
			if string(body) != "good" {
				rejects++
				return nil, fmt.Errorf("corrupt")
			}
			return body, nil
		}
	})

	if _, ok := f.Fetch(context.Background(), testKey(0)); !ok {
		t.Fatal("want hit for present record")
	}
	// 404 from the only remote is an authoritative miss.
	if _, ok := f.Fetch(context.Background(), testKey(1)); ok {
		t.Fatal("want miss for absent record")
	}
	// A record the Decode hook rejects must not surface as a hit.
	rs.records[testKey(2)] = []byte("evil")
	if _, ok := f.Fetch(context.Background(), testKey(2)); ok {
		t.Fatal("corrupt record surfaced as hit")
	}
	if rejects == 0 {
		t.Fatal("decode hook never consulted")
	}
	st := f.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Errors == 0 {
		t.Fatalf("stats = %+v, want 1 hit, 1 miss, >=1 error", st)
	}
	if st.LookupCount < 2 || st.LookupSum <= 0 {
		t.Fatalf("latency summary not populated: %+v", st)
	}
}

// A slow first-ranked peer must not consume the whole budget: the
// hedge fires at the configured delay and the second-ranked peer
// answers.
func TestFetchHedgesToNextRanked(t *testing.T) {
	key := ""
	slow := &recordServer{t: t, records: map[string][]byte{}, delay: 2 * time.Second}
	fast := &recordServer{t: t, records: map[string][]byte{}}
	slowSrv := httptest.NewServer(slow.handler())
	fastSrv := httptest.NewServer(fast.handler())
	defer slowSrv.Close()
	defer fastSrv.Close()

	f := newFleet(t, "http://self:1", []string{slowSrv.URL, fastSrv.URL}, func(o *Options) {
		o.hedge = 5 * time.Millisecond
		o.Budget = 3 * time.Second
	})
	// Find a key whose first-ranked remote is the slow peer.
	for i := 0; ; i++ {
		if k := testKey(i); f.rankRemotes(k)[0] == slowSrv.URL {
			key = k
			break
		}
	}
	slow.records[key] = []byte("slow-copy")
	fast.records[key] = []byte("fast-copy")

	start := time.Now()
	value, ok := f.Fetch(context.Background(), key)
	if !ok || string(value) != "fast-copy" {
		t.Fatalf("ok=%v value=%q, want hedged fast-copy", ok, value)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("hedged fetch took %v; hedge did not fire", elapsed)
	}
	if st := f.Stats(); st.Hedges != 1 {
		t.Fatalf("hedges = %d, want 1", st.Hedges)
	}
}

// A dead first-ranked peer fails over immediately (no hedge-delay
// wait), and with every peer dead Fetch returns a miss within budget.
func TestFetchFailsOverOnTransportError(t *testing.T) {
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close() // connection refused from here on

	live := &recordServer{t: t, records: map[string][]byte{}}
	liveSrv := httptest.NewServer(live.handler())
	defer liveSrv.Close()

	f := newFleet(t, "http://self:1", []string{deadURL, liveSrv.URL}, func(o *Options) {
		// A generous hedge proves failover is error-driven, not timer-driven.
		o.hedge = time.Second
		o.Budget = 2 * time.Second
	})
	var key string
	for i := 0; ; i++ {
		if k := testKey(i); f.rankRemotes(k)[0] == deadURL {
			key = k
			break
		}
	}
	live.records[key] = []byte("survivor")

	start := time.Now()
	value, ok := f.Fetch(context.Background(), key)
	if !ok || string(value) != "survivor" {
		t.Fatalf("ok=%v value=%q, want failover hit", ok, value)
	}
	if elapsed := time.Since(start); elapsed > 500*time.Millisecond {
		t.Fatalf("failover took %v; should not wait for hedge timer", elapsed)
	}

	// Whole fleet dark: budget-bounded miss, not an error to the caller.
	liveSrv.Close()
	f2 := newFleet(t, "http://self:1", []string{deadURL, liveSrv.URL}, func(o *Options) {
		o.Budget = 200 * time.Millisecond
	})
	if _, ok := f2.Fetch(context.Background(), key); ok {
		t.Fatal("hit from a fully dark fleet")
	}
}

func TestPushDropsWhenFull(t *testing.T) {
	blocked := make(chan struct{})
	release := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case blocked <- struct{}{}:
		default:
		}
		<-release
		w.WriteHeader(http.StatusNoContent)
	}))
	defer srv.Close()
	defer close(release)

	f := newFleet(t, "http://self:1", []string{srv.URL}, func(o *Options) {
		o.pushQueue = 1
		o.pushTimeout = 5 * time.Second
	})
	var key string
	for i := 0; ; i++ {
		if k := testKey(i); !f.Owns(k) {
			key = k
			break
		}
	}
	f.Push(key, []byte("v")) // sender picks this up and blocks
	<-blocked
	f.Push(key, []byte("v")) // fills the queue
	done := make(chan struct{})
	go func() {
		f.Push(key, []byte("v")) // queue full: must drop, never block
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("Push blocked on a full queue")
	}
	if st := f.Stats(); st.PushDrops == 0 {
		t.Fatalf("stats = %+v, want PushDrops > 0", st)
	}
}

// Satellite regression test: Close drains the write-behind queue, so
// records computed just before shutdown still reach their owner.
func TestCloseDrainsPushQueue(t *testing.T) {
	rs := &recordServer{t: t, records: map[string][]byte{}}
	srv := httptest.NewServer(rs.handler())
	defer srv.Close()

	o := Options{Self: "http://self:1", Peers: []string{srv.URL}, pushQueue: 64}
	identityHooks(&o)
	f, err := New(o)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	const n = 20
	queued := 0
	for i := 0; queued < n; i++ {
		if key := testKey(i); !f.Owns(key) {
			f.Push(key, []byte("v"))
			queued++
		}
	}
	f.Close(5 * time.Second)
	if got := rs.puts.Load(); got != n {
		t.Fatalf("owner received %d pushes after Close, want %d", got, n)
	}
	// Idempotent, and post-close pushes are silently dropped.
	f.Close(time.Second)
	f.Push(testKey(0), []byte("v"))
}

func TestWaitPushes(t *testing.T) {
	rs := &recordServer{t: t, records: map[string][]byte{}, delay: 20 * time.Millisecond}
	srv := httptest.NewServer(rs.handler())
	defer srv.Close()

	f := newFleet(t, "http://self:1", []string{srv.URL})
	var key string
	for i := 0; ; i++ {
		if k := testKey(i); !f.Owns(k) {
			key = k
			break
		}
	}
	for i := 0; i < 5; i++ {
		f.Push(key, []byte("v"))
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := f.WaitPushes(ctx); err != nil {
		t.Fatalf("WaitPushes: %v", err)
	}
	if got := rs.puts.Load(); got != 5 {
		t.Fatalf("puts = %d after WaitPushes, want 5", got)
	}
}

func TestReachability(t *testing.T) {
	// Any HTTP response marks a peer reachable — the probe hits the
	// cache endpoint with a key nobody has, so a healthy peer answers
	// 404. (Probing /healthz would recurse: members embed this report
	// in their own /healthz.)
	up := httptest.NewServer(http.NotFoundHandler())
	defer up.Close()
	down := httptest.NewServer(http.NotFoundHandler())
	downURL := down.URL
	down.Close()

	f := newFleet(t, "http://self:1", []string{up.URL, downURL})
	got := f.Reachability(context.Background())
	if len(got) != 2 {
		t.Fatalf("reachability = %+v", got)
	}
	byURL := map[string]bool{}
	for _, p := range got {
		byURL[p.URL] = p.Reachable
	}
	if !byURL[up.URL] {
		t.Errorf("live peer reported unreachable: %+v", got)
	}
	if byURL[downURL] {
		t.Errorf("dead peer reported reachable: %+v", got)
	}
}
