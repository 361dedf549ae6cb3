package service

// Tests for how a cache hit is rendered: a gzip hit's body is
// compressed once and kept beside its cache entry, and replacing a
// cached value replaces every rendering of it.

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// gzipDefault is the reference gzip body: a fresh gzip.Writer at the
// default level over b. It is computed at test time, so it holds on
// every Go version, where a golden file of flate output would not.
func gzipDefault(t *testing.T, b []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(b); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// metricSample reads one sample of a /metrics exposition: the value on
// the line that starts with series (name and labels).
func metricSample(t *testing.T, metrics, series string) int64 {
	t.Helper()
	for _, line := range strings.Split(metrics, "\n") {
		if v, ok := strings.CutPrefix(line, series+" "); ok {
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				t.Fatalf("sample %q: %v", line, err)
			}
			return n
		}
	}
	t.Fatalf("metrics have no sample %s", series)
	return 0
}

// TestGzipHitsKeptAndCounted: for each encoding, on a fresh server,
// every gzip hit — the first, which compresses the envelope and keeps
// the body beside the cache entry, and the repeats, which write the
// kept body — is byte for byte what gzip.NewWriter makes of the
// identity hit's body, and moves the wire counters as compressing it
// afresh did. A miss's gzip body still carries cached:false.
func TestGzipHitsKeptAndCounted(t *testing.T) {
	const hits = 3
	for _, tc := range []struct {
		name   string
		accept string
		enc    encoding
	}{
		{"json", ContentTypeJSON, encJSON},
		{"binary", ContentTypeBinary, encBinary},
	} {
		t.Run(tc.name, func(t *testing.T) {
			svc, ts := newTestServer(t, Options{Workers: 2})
			body, err := json.Marshal(ScheduleRequest{Matrix: testMatrix(t, 32, 4, 4096, 6), Algorithm: "RS_NL"})
			if err != nil {
				t.Fatal(err)
			}
			gzipHdr := map[string]string{"Accept": tc.accept, "Accept-Encoding": "gzip"}

			resp, raw := doWire(t, ts, "/v1/schedule", body, gzipHdr)
			if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Encoding") != "gzip" {
				t.Fatalf("miss: status %d, Content-Encoding %q", resp.StatusCode, resp.Header.Get("Content-Encoding"))
			}
			if cached := decodeCached(t, tc.enc, gunzip(t, raw)); cached {
				t.Fatal("gzip miss body says cached:true")
			}

			resp, identity := doWire(t, ts, "/v1/schedule", body,
				map[string]string{"Accept": tc.accept, "Accept-Encoding": "identity"})
			if resp.StatusCode != http.StatusOK || !decodeCached(t, tc.enc, identity) {
				t.Fatalf("identity hit: status %d, not a cached envelope", resp.StatusCode)
			}
			wantGz := gzipDefault(t, identity)
			key := strings.Trim(strings.TrimSuffix(resp.Header.Get("ETag"), `+b"`), `"`)

			series := func(name string) string {
				return fmt.Sprintf(`%s{encoding=%q,compression="gzip"}`, name, encodingNames[tc.enc])
			}
			before := getMetrics(t, ts)
			for i := 0; i < hits; i++ {
				resp, raw := doWire(t, ts, "/v1/schedule", body, gzipHdr)
				if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Encoding") != "gzip" {
					t.Fatalf("hit %d: status %d, Content-Encoding %q", i, resp.StatusCode, resp.Header.Get("Content-Encoding"))
				}
				if !bytes.Equal(raw, wantGz) {
					t.Fatalf("hit %d: gzip body differs from gzip.NewWriter over the identity hit", i)
				}
				if !bytes.Equal(gunzip(t, raw), identity) {
					t.Fatalf("hit %d: gzip body does not gunzip to the identity hit", i)
				}
				payload, _ := svc.cache.get(key)
				if tc.enc == encBinary {
					payload = svc.cache.rendering(key, payload, formBinary)
				}
				if kept := svc.cache.rendering(key, payload, form(tc.enc)); !bytes.Equal(kept, wantGz) {
					t.Fatalf("hit %d: no gzip body kept in %s's entry", i, key)
				}
			}
			after := getMetrics(t, ts)
			delta := func(series string) int64 {
				return metricSample(t, after, series) - metricSample(t, before, series)
			}
			if got := delta(series("unschedd_response_encoding_total")); got != hits {
				t.Errorf("gzip responses: +%d, want +%d", got, hits)
			}
			if got, want := delta(series("unschedd_response_bytes_total")), int64(hits*len(wantGz)); got != want {
				t.Errorf("gzip wire bytes: +%d, want +%d", got, want)
			}
			if got, want := delta("unschedd_bytes_saved_total"), int64(hits*(len(identity)-len(wantGz))); got != want {
				t.Errorf("bytes saved: +%d, want +%d", got, want)
			}
		})
	}
}

// decodeCached decodes a response body in encoding enc and returns its
// cached flag.
func decodeCached(t *testing.T, enc encoding, body []byte) bool {
	t.Helper()
	if enc == encBinary {
		res, err := DecodeBinaryResponse(body)
		if err != nil {
			t.Fatalf("binary body: %v", err)
		}
		return res.Cached
	}
	var env Envelope
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatalf("JSON body %q: %v", body, err)
	}
	return env.Cached
}

// replacement returns a cache record value for the schedule result
// raw with its chosen algorithm renamed, and both values' binary
// payloads.
func replacement(t *testing.T, raw []byte, chosen string) (value, oldBin, newBin []byte) {
	t.Helper()
	var res ScheduleResult
	if err := json.Unmarshal(raw, &res); err != nil {
		t.Fatal(err)
	}
	oldBin = res.appendBinaryPayload(nil)
	res.Chosen = chosen
	value, err := json.Marshal(&res)
	if err != nil {
		t.Fatal(err)
	}
	return value, oldBin, res.appendBinaryPayload(nil)
}

// putRecord replaces key's cached value through PUT /v1/cache/{key}.
func putRecord(t *testing.T, svc *Server, key string, value []byte) {
	t.Helper()
	rec, err := encodeRecord(key, value)
	if err != nil {
		t.Fatal(err)
	}
	w := httptest.NewRecorder()
	svc.ServeHTTP(w, httptest.NewRequest(http.MethodPut, "/v1/cache/"+key, bytes.NewReader(rec)))
	if w.Code != http.StatusNoContent {
		t.Fatalf("PUT /v1/cache/%s: status %d: %s", key, w.Code, w.Body)
	}
}

// TestCachePutReplacesEveryRendering: PUT /v1/cache/{key} over a value
// that was served as binary, plain and gzipped, replaces what every
// encoding answers. Before cachePut dropped the key's binary rendering,
// JSON answered the replacement while binary kept answering the old
// value under its "<key>+b" ETag.
func TestCachePutReplacesEveryRendering(t *testing.T) {
	svc, _ := newTestServer(t, Options{Workers: 2})
	body := mustJSON(t, ScheduleRequest{Matrix: testMatrix(t, 16, 4, 4096, 8), Algorithm: "RS_NL"})
	env := envelopeOf(t, serve(svc, "/v1/schedule", body))
	for _, hdr := range [][]string{
		{"Accept", ContentTypeBinary},
		{"Accept", ContentTypeBinary, "Accept-Encoding", "gzip"},
	} {
		if rec := serve(svc, "/v1/schedule", body, hdr...); rec.Code != http.StatusOK {
			t.Fatalf("binary hit %v: status %d", hdr, rec.Code)
		}
	}

	value, _, _ := replacement(t, env.Result, "RS_N")
	putRecord(t, svc, env.Key, value)

	if got := envelopeOf(t, serve(svc, "/v1/schedule", body)); !bytes.Equal(got.Result, value) {
		t.Errorf("JSON after PUT: %s, want the replacement", got.Result)
	}
	for _, hdr := range [][]string{
		{"Accept", ContentTypeBinary},
		{"Accept", ContentTypeBinary, "Accept-Encoding", "gzip"},
	} {
		rec := serve(svc, "/v1/schedule", body, hdr...)
		raw := rec.Body.Bytes()
		if rec.Header().Get("Content-Encoding") == "gzip" {
			raw = gunzip(t, raw)
		}
		res, err := DecodeBinaryResponse(raw)
		if err != nil {
			t.Fatalf("binary %v after PUT: %v", hdr, err)
		}
		if res.Schedule == nil || res.Schedule.Chosen != "RS_N" {
			t.Errorf("binary %v after PUT is not the replacement (chosen RS_N): %+v", hdr, res.Schedule)
		}
	}
}

// TestOneEntryPerKey: a key served as JSON, binary and binary+gzip
// takes one cache entry, which keeps every rendering. When the binary
// payload took an entry of its own, a key served in both encodings
// took two of the cache's slots.
func TestOneEntryPerKey(t *testing.T) {
	svc, _ := newTestServer(t, Options{Workers: 2})
	body := mustJSON(t, ScheduleRequest{Matrix: testMatrix(t, 16, 4, 4096, 10), Algorithm: "RS_NL"})
	for _, hdr := range [][]string{
		nil,
		{"Accept", ContentTypeBinary},
		{"Accept", ContentTypeBinary, "Accept-Encoding", "gzip"},
	} {
		if rec := serve(svc, "/v1/schedule", body, hdr...); rec.Code != http.StatusOK {
			t.Fatalf("%v: status %d", hdr, rec.Code)
		}
		if n := svc.cache.len(); n != 1 {
			t.Errorf("after %v: %d cache entries, want 1", hdr, n)
		}
	}
}

// TestCachePutBeatsConcurrentRender: a binary hit that renders the old
// value while a PUT replaces it must not leave its rendering behind.
// Each round sends a binary hit and a PUT at once, and then the binary
// answer must be the replacement. Before renderings were stored
// only while their source value stood, a render that read the old value
// before the PUT and stored after it served the old value from then on.
func TestCachePutBeatsConcurrentRender(t *testing.T) {
	svc, _ := newTestServer(t, Options{Workers: 2})
	body := mustJSON(t, ScheduleRequest{Matrix: testMatrix(t, 256, 8, 4096, 8), Algorithm: "RS_NL"})
	env := envelopeOf(t, serve(svc, "/v1/schedule", body))
	oldValue := []byte(env.Result)
	newValue, _, _ := replacement(t, oldValue, "RS_N")
	for round := 0; round < 100; round++ {
		putRecord(t, svc, env.Key, oldValue)
		start := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			serve(svc, "/v1/schedule", body, "Accept", ContentTypeBinary)
		}()
		close(start) // release the hit as the PUT starts
		putRecord(t, svc, env.Key, newValue)
		wg.Wait()
		res, err := DecodeBinaryResponse(serve(svc, "/v1/schedule", body, "Accept", ContentTypeBinary).Body.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		if res.Schedule == nil || res.Schedule.Chosen != "RS_N" {
			t.Fatalf("round %d: binary answers the replaced value after the PUT", round)
		}
	}
}

// TestGzipHitsRaceReplacement: gzip hits in both encodings race PUTs
// that swap the cached value back and forth. Every body must gunzip to
// one whole hit envelope of the old value or of the new one, and once a
// round's PUT and its racing hits have returned, every gzip hit must
// answer the value that PUT installed: a kept body never outlives the
// value it was compressed from into a response about the other. Run it
// under -race.
func TestGzipHitsRaceReplacement(t *testing.T) {
	svc, _ := newTestServer(t, Options{Workers: 2})
	body := mustJSON(t, ScheduleRequest{Matrix: testMatrix(t, 16, 4, 4096, 9), Algorithm: "RS_NL"})
	env := envelopeOf(t, serve(svc, "/v1/schedule", body))
	oldValue := []byte(env.Result)
	newValue, oldBin, newBin := replacement(t, oldValue, "RS_N")
	hitOf := map[string]string{ // hit envelope -> the value it answers
		string(envelopeBytes(encJSON, env.Key, true, oldValue)): "old",
		string(envelopeBytes(encJSON, env.Key, true, newValue)): "new",
		string(envelopeBytes(encBinary, env.Key, true, oldBin)): "old",
		string(envelopeBytes(encBinary, env.Key, true, newBin)): "new",
	}
	accepts := []string{ContentTypeJSON, ContentTypeBinary}
	// gzipHit sends a gzip hit in encoding accept and returns the value
	// its body answers, or "" after reporting a body that is no hit.
	gzipHit := func(accept string) string {
		rec := serve(svc, "/v1/schedule", body, "Accept", accept, "Accept-Encoding", "gzip")
		if rec.Code != http.StatusOK {
			t.Errorf("%s: status %d", accept, rec.Code)
			return ""
		}
		zr, err := gzip.NewReader(rec.Body)
		if err != nil {
			t.Errorf("%s: not gzip: %v", accept, err)
			return ""
		}
		var plain bytes.Buffer
		if _, err := plain.ReadFrom(zr); err != nil {
			t.Errorf("%s: corrupt gzip: %v", accept, err)
			return ""
		}
		answers, ok := hitOf[plain.String()]
		if !ok {
			t.Errorf("%s: body is no hit envelope of either value: %q", accept, plain.Bytes())
		}
		return answers
	}

	const clients, hits, rounds = 4, 3, 100
	for round := 0; round < rounds; round++ {
		prev, value, name := oldValue, newValue, "new"
		if round%2 == 1 {
			prev, value, name = newValue, oldValue, "old"
		}
		// A PUT drops the kept bodies, so the racing hits compress the
		// previous value while the round's PUT replaces it.
		putRecord(t, svc, env.Key, prev)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(accept string) {
				defer wg.Done()
				<-start
				for i := 0; i < hits; i++ {
					gzipHit(accept)
				}
			}(accepts[c%2])
		}
		close(start) // release the hits as the PUT starts
		putRecord(t, svc, env.Key, value)
		wg.Wait()
		for _, accept := range accepts {
			if got := gzipHit(accept); got != name {
				t.Fatalf("round %d: a %s gzip hit after the last PUT answers the %s value, want the %s one", round, accept, got, name)
			}
		}
	}
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}
