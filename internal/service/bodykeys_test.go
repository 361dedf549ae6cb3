package service

// Tests for the body-key table in front of the memo cache: a repeated
// request body skips decode, resolution and fingerprinting, so each
// test holds a repeat to what decoding the body again would answer.

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// envelopeOf decodes the envelope of a 200 reply.
func envelopeOf(t *testing.T, rec *httptest.ResponseRecorder) Envelope {
	t.Helper()
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	var env Envelope
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
		t.Fatalf("bad envelope %q: %v", rec.Body, err)
	}
	return env
}

// postEnvelope posts body to /v1/schedule on svc and decodes the 200
// reply's envelope.
func postEnvelope(t *testing.T, svc *Server, body string) Envelope {
	t.Helper()
	return envelopeOf(t, serve(svc, "/v1/schedule", body))
}

// autoBody is an "auto" request for a matrix in the calibrated bin of
// seededRecords: the fallback table picks RS_NL for it, the seeded
// model RS_N.
func autoBody(t *testing.T) string {
	t.Helper()
	raw, err := json.Marshal(ScheduleRequest{Matrix: testMatrix(t, 16, 4, 4096, 9), Algorithm: "auto"})
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// TestBodyKeysFollowModelSwap: an "auto" pick depends on the
// calibration model, so an auto body is never recorded and every
// repeat resolves again. After recalibrate swaps in a model that ranks
// RS_N first, the same body answers RS_N; a table that recorded auto
// bodies without the model would replay the stale RS_NL.
func TestBodyKeysFollowModelSwap(t *testing.T) {
	qpath := filepath.Join(t.TempDir(), "quality.usqr")
	if err := os.WriteFile(qpath, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	svc, _ := newTestServer(t, Options{Workers: 2, QualityStore: qpath})
	body := autoBody(t)
	if got := scheduleResult(t, postEnvelope(t, svc, body)).Chosen; got != "RS_NL" {
		t.Fatalf("empty store: auto chose %s, want the fallback's RS_NL", got)
	}
	if n := svc.bodyKeys.len(); n != 0 {
		t.Fatalf("the table holds %d entries after an auto post, want 0", n)
	}
	for _, r := range seededRecords {
		if err := svc.qstore.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	svc.recalibrate()
	if got := scheduleResult(t, postEnvelope(t, svc, body)).Chosen; got != "RS_N" {
		t.Fatalf("after recalibrate: auto chose %s, want the new model's RS_N", got)
	}
}

// TestAutoRepeatsCountEachResolution: unschedd_auto_resolved_total
// counts requests. A repeated auto body, 200 or 304, resolves again
// and counts again, and it never enters the table.
func TestAutoRepeatsCountEachResolution(t *testing.T) {
	svc, ts := newTestServer(t, Options{Workers: 2})
	body := autoBody(t)
	env := postEnvelope(t, svc, body)
	if again := postEnvelope(t, svc, body); !again.Cached || again.Key != env.Key {
		t.Fatalf("repeat: cached %v, key %s, want a hit on %s", again.Cached, again.Key, env.Key)
	}
	want := `unschedd_auto_resolved_total{algorithm="RS_NL"} 2`
	if got := getMetrics(t, ts); !strings.Contains(got, want+"\n") {
		t.Errorf("after two posts, metrics lack %q", want)
	}
	if rec := serve(svc, "/v1/schedule", body, "If-None-Match", etagFor(env.Key, encJSON)); rec.Code != http.StatusNotModified {
		t.Fatalf("revalidation: status %d, want 304", rec.Code)
	}
	want = `unschedd_auto_resolved_total{algorithm="RS_NL"} 3`
	if got := getMetrics(t, ts); !strings.Contains(got, want+"\n") {
		t.Errorf("after a revalidation, metrics lack %q", want)
	}
	if n := svc.bodyKeys.len(); n != 0 {
		t.Errorf("the table holds %d entries, want 0", n)
	}
}

// TestBodyKeysNeverRecordRacesOrFailures: an auto_race winner depends
// on which lanes were shed, and a body that fails to decode or resolve
// has no key, so none of them enters the table.
func TestBodyKeysNeverRecordRacesOrFailures(t *testing.T) {
	svc, _ := newTestServer(t, Options{Workers: 4, QueueDepth: 32})
	race, err := json.Marshal(ScheduleRequest{Matrix: testMatrix(t, 16, 4, 4096, 7), Algorithm: "auto", AutoRace: true})
	if err != nil {
		t.Fatal(err)
	}
	postEnvelope(t, svc, string(race))
	for _, bad := range []string{`nonsense`, `{"matrix":{"n":4,"messages":[[0,0,1]]}}`} {
		if rec := serve(svc, "/v1/schedule", bad); rec.Code != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", bad, rec.Code)
		}
	}
	if n := svc.bodyKeys.len(); n != 0 {
		t.Errorf("the table holds %d entries, want 0", n)
	}
}

// TestBodyKeyToEvictedKeyRecomputes: an entry outlives the cache entry
// it names. The key it names is still right, so a revalidation still
// answers 304; a 200 falls through to decode and recomputes the
// byte-identical answer.
func TestBodyKeyToEvictedKeyRecomputes(t *testing.T) {
	// One entry per shard: a second key in the same shard evicts the first.
	svc, _ := newTestServer(t, Options{Workers: 1, CacheEntries: cacheShards})
	body := `{"matrix":{"n":8,"messages":[[0,1,512],[1,2,512],[2,0,512]]},"algorithm":"RS_NL"}`
	first := serve(svc, "/v1/schedule", body)
	env := envelopeOf(t, first)
	svc.cache.put(env.Key[:1]+"-evictor", []byte(`{}`))
	if _, ok := svc.cache.get(env.Key); ok {
		t.Fatal("the key survived a same-shard put")
	}
	etag := first.Header().Get("ETag")
	if rec := serve(svc, "/v1/schedule", body, "If-None-Match", etag); rec.Code != http.StatusNotModified {
		t.Fatalf("revalidation of an evicted key: status %d, want 304", rec.Code)
	}
	misses := svc.cacheMisses[epSchedule].Load()
	again := serve(svc, "/v1/schedule", body)
	renv := envelopeOf(t, again)
	if renv.Cached || svc.cacheMisses[epSchedule].Load() != misses+1 {
		t.Errorf("the repeat did not recompute: cached %v", renv.Cached)
	}
	if renv.Key != env.Key || again.Header().Get("ETag") != etag || !bytes.Equal(renv.Result, env.Result) {
		t.Error("the recomputed answer differs from the first")
	}
}

// TestBodyKeysFormattingShareOneContentKey: whitespace and key order
// change the body key, not the content key. Two spellings of one
// request take two table entries and one cache entry.
func TestBodyKeysFormattingShareOneContentKey(t *testing.T) {
	svc, _ := newTestServer(t, Options{Workers: 1})
	compact := `{"matrix":{"n":8,"messages":[[0,1,512],[1,2,512]]},"algorithm":"RS_NL"}`
	spaced := "{ \"algorithm\": \"RS_NL\",\n  \"matrix\": { \"messages\": [ [0, 1, 512], [1, 2, 512] ], \"n\": 8 } }\n"
	a, b := postEnvelope(t, svc, compact), postEnvelope(t, svc, spaced)
	if b.Key != a.Key || !b.Cached || !bytes.Equal(b.Result, a.Result) {
		t.Errorf("reformatted body: key %s cached %v, want a hit on %s", b.Key, b.Cached, a.Key)
	}
	if n := svc.cache.len(); n != 1 {
		t.Errorf("the cache holds %d entries, want 1", n)
	}
	if n := svc.bodyKeys.len(); n != 2 {
		t.Errorf("the table holds %d entries, want 2", n)
	}
}

// TestBodyKeysPerServerAndEndpoint: a server keys a body the same way
// every time, under a secret of its own, so another server keys it
// differently; and the endpoint is part of the key.
func TestBodyKeysPerServerAndEndpoint(t *testing.T) {
	a, _ := newTestServer(t, Options{Workers: 1})
	b, _ := newTestServer(t, Options{Workers: 1})
	body := []byte(`{"matrix":{"n":8,"messages":[[0,1,512]]},"algorithm":"RS_NL"}`)
	key := bodyKey(a.bodyMAC, epSchedule, body)
	if len(key) != 32 || strings.Trim(key, "0123456789abcdef") != "" {
		t.Fatalf("key %q is not 32 hex digits", key)
	}
	if again := bodyKey(a.bodyMAC, epSchedule, body); again != key {
		t.Errorf("one server keyed one body %s, then %s", key, again)
	}
	if other := bodyKey(b.bodyMAC, epSchedule, body); other == key {
		t.Errorf("two servers share the key %s", key)
	}
	if sim := bodyKey(a.bodyMAC, epSimulate, body); sim == key {
		t.Errorf("/v1/schedule and /v1/simulate share the key %s", key)
	}
}

// TestBodyKeysCoverEveryByte: a recorded 256-node body, with one digit
// changed near its start, in its middle or near its end, is another
// request. Each copy must get the answer decoding it gives on a
// server that never saw the original, so a key over part of the body
// fails.
func TestBodyKeysCoverEveryByte(t *testing.T) {
	svc, _ := newTestServer(t, Options{Workers: 1})
	fresh, _ := newTestServer(t, Options{Workers: 1})
	req := ScheduleRequest{Matrix: testMatrix(t, 256, 8, 4096, 4), Algorithm: "RS_NL"}
	orig, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	recorded := postEnvelope(t, svc, string(orig))
	msgs := req.Matrix.Messages
	for _, i := range []int{0, len(msgs) / 2, len(msgs) - 1} {
		msgs[i][2]++ // 4096 -> 4097: one digit
		edited, err := json.Marshal(req)
		msgs[i][2]--
		if err != nil {
			t.Fatal(err)
		}
		if diff := differingBytes(orig, edited); diff != 1 {
			t.Fatalf("message %d: the copy differs in %d bytes, want 1", i, diff)
		}
		got, want := postEnvelope(t, svc, string(edited)), postEnvelope(t, fresh, string(edited))
		if got.Key == recorded.Key || got.Key != want.Key || got.Cached || !bytes.Equal(got.Result, want.Result) {
			t.Errorf("message %d of %d edited: key %s cached %v, want a fresh answer under %s (the original's is %s)",
				i, len(msgs), got.Key, got.Cached, want.Key, recorded.Key)
		}
	}
}

// differingBytes counts the positions at which two equal-length byte
// strings differ; -1 when their lengths differ.
func differingBytes(a, b []byte) int {
	if len(a) != len(b) {
		return -1
	}
	n := 0
	for i := range a {
		if a[i] != b[i] {
			n++
		}
	}
	return n
}

// TestStalledBodyAllocatesOnlyWhatArrives: a request that declares the
// largest body its endpoint accepts and then stalls costs the daemon
// the bytes that arrived, not the bytes it declared.
func TestStalledBodyAllocatesOnlyWhatArrives(t *testing.T) {
	svc, _ := newTestServer(t, Options{Workers: 1})
	for _, c := range []struct {
		method, path string
		declared     int64
	}{
		{http.MethodPost, "/v1/schedule", maxRequestBytes},
		{http.MethodPut, "/v1/cache/" + strings.Repeat("ab", 32), maxRecordBytes},
	} {
		t.Run(c.method, func(t *testing.T) {
			pr, pw := io.Pipe()
			req := httptest.NewRequest(c.method, c.path, pr)
			req.ContentLength = c.declared
			var before, during runtime.MemStats
			runtime.ReadMemStats(&before)
			done := make(chan struct{})
			go func() {
				defer close(done)
				svc.ServeHTTP(httptest.NewRecorder(), req)
			}()
			// The write returns once the handler has read it: the handler
			// is reading the body, and the rest never comes.
			if _, err := pw.Write([]byte("{")); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&during)
			pw.CloseWithError(io.ErrUnexpectedEOF)
			<-done
			if got := during.TotalAlloc - before.TotalAlloc; got > 1<<20 {
				t.Errorf("a stalled body declaring %d bytes allocated %d bytes", c.declared, got)
			}
		})
	}
}
