package service

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// doWire posts body to path with the given headers and returns the
// response plus its raw (not transparently decompressed) body bytes:
// setting Accept-Encoding explicitly disables the Go client's
// transparent gzip, so what we read is what crossed the wire.
func doWire(t *testing.T, ts *httptest.Server, path string, body []byte, hdr map[string]string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, ts.URL+path, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", ContentTypeJSON)
	for k, v := range hdr {
		req.Header.Set(k, v)
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
	return resp, raw
}

func gunzip(t *testing.T, raw []byte) []byte {
	t.Helper()
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("response is not gzip: %v", err)
	}
	out, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// envelopeBytes is the response body newEnvelope frames, in one slice.
func envelopeBytes(enc encoding, key string, cached bool, payload []byte) []byte {
	env := newEnvelope(enc, key, cached, payload)
	return slices.Concat(env[:]...)
}

// TestJSONEnvelopeMatchesMarshal: the spliced JSON envelope is byte for
// byte what json.Marshal makes of Envelope for any compact result, so
// clients decoding Envelope see no change.
func TestJSONEnvelopeMatchesMarshal(t *testing.T) {
	key := strings.Repeat("0f", 32)
	for _, result := range []string{
		`{}`, `null`, `"x"`, `[1,2]`, `-0.5`,
		`{"chosen":"RS_NL","seed":-3,"link_free":true,"schedule":{"phases":[[[0,1,2]],[]]}}`,
	} {
		for _, cached := range []bool{false, true} {
			want, err := json.Marshal(Envelope{Key: key, Cached: cached, Result: json.RawMessage(result)})
			if err != nil {
				t.Fatal(err)
			}
			if got := envelopeBytes(encJSON, key, cached, []byte(result)); !bytes.Equal(got, want) {
				t.Errorf("result %s cached=%v:\n got: %s\nwant: %s", result, cached, got, want)
			}
		}
	}
}

// TestContentNegotiationMatrix is the satellite table test: every
// encoding x compression x revalidation combination against one
// request, all answers agreeing with the canonical JSON result.
func TestContentNegotiationMatrix(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})
	body, err := json.Marshal(ScheduleRequest{Matrix: testMatrix(t, 16, 4, 8192, 5), Algorithm: "RS_NL"})
	if err != nil {
		t.Fatal(err)
	}

	// Canonical answer first (also warms the cache: every variant below
	// must serve the same bytes-for-bytes result from it).
	var canon Envelope
	status, raw := postJSON(t, ts.URL+"/v1/schedule", json.RawMessage(body), &canon)
	if status != http.StatusOK {
		t.Fatalf("canonical request: status %d: %s", status, raw)
	}
	var want ScheduleResult
	if err := json.Unmarshal(canon.Result, &want); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name      string
		accept    string
		acceptEnc string
		wantCT    string
		wantGzip  bool
		wantETag  string
	}{
		{"json identity", "", "identity", ContentTypeJSON, false, `"` + canon.Key + `"`},
		{"json via */*", "*/*", "identity", ContentTypeJSON, false, `"` + canon.Key + `"`},
		{"json via application/*", "application/*;q=0.9", "identity", ContentTypeJSON, false, `"` + canon.Key + `"`},
		{"json gzip", ContentTypeJSON, "gzip", ContentTypeJSON, true, `"` + canon.Key + `"`},
		{"binary identity", ContentTypeBinary, "identity", ContentTypeBinary, false, `"` + canon.Key + `+b"`},
		{"binary gzip", ContentTypeBinary + ";q=1.0, text/html", "gzip, deflate", ContentTypeBinary, true, `"` + canon.Key + `+b"`},
		{"binary wins header order", ContentTypeBinary + ", " + ContentTypeJSON, "identity", ContentTypeBinary, false, `"` + canon.Key + `+b"`},
		{"gzip q=0 means identity", ContentTypeJSON, "gzip;q=0", ContentTypeJSON, false, `"` + canon.Key + `"`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			hdr := map[string]string{"Accept-Encoding": tc.acceptEnc}
			if tc.accept != "" {
				hdr["Accept"] = tc.accept
			}
			resp, raw := doWire(t, ts, "/v1/schedule", body, hdr)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status %d: %s", resp.StatusCode, raw)
			}
			if ct := resp.Header.Get("Content-Type"); ct != tc.wantCT {
				t.Errorf("Content-Type %q, want %q", ct, tc.wantCT)
			}
			if et := resp.Header.Get("ETag"); et != tc.wantETag {
				t.Errorf("ETag %q, want %q", et, tc.wantETag)
			}
			if !strings.Contains(resp.Header.Get("Vary"), "Accept") {
				t.Errorf("missing Vary header, got %q", resp.Header.Get("Vary"))
			}
			gz := resp.Header.Get("Content-Encoding") == "gzip"
			if gz != tc.wantGzip {
				t.Fatalf("Content-Encoding gzip=%v, want %v", gz, tc.wantGzip)
			}
			plain := raw
			if gz {
				plain = gunzip(t, raw)
			}
			var got ScheduleResult
			var cached bool
			if tc.wantCT == ContentTypeBinary {
				br, err := DecodeBinaryResponse(plain)
				if err != nil {
					t.Fatalf("binary decode: %v", err)
				}
				if br.Key != canon.Key {
					t.Errorf("binary key %q, want %q", br.Key, canon.Key)
				}
				if br.Schedule == nil {
					t.Fatal("binary response has no schedule document")
				}
				got, cached = *br.Schedule, br.Cached
			} else {
				var env Envelope
				if err := json.Unmarshal(plain, &env); err != nil {
					t.Fatalf("json decode: %v (%s)", err, plain)
				}
				if env.Key != canon.Key {
					t.Errorf("key %q, want %q", env.Key, canon.Key)
				}
				if err := json.Unmarshal(env.Result, &got); err != nil {
					t.Fatal(err)
				}
				cached = env.Cached
			}
			if !cached {
				t.Error("variant of a cached result not marked cached")
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("result differs from canonical JSON answer")
			}

			// Revalidation: presenting the ETag must be a 304 with zero
			// body bytes; presenting a stale one must re-send the body.
			hdr["If-None-Match"] = tc.wantETag
			resp, raw = doWire(t, ts, "/v1/schedule", body, hdr)
			if resp.StatusCode != http.StatusNotModified {
				t.Fatalf("If-None-Match hit: status %d, want 304", resp.StatusCode)
			}
			if len(raw) != 0 {
				t.Errorf("304 carried %d body bytes", len(raw))
			}
			if et := resp.Header.Get("ETag"); et != tc.wantETag {
				t.Errorf("304 ETag %q, want %q", et, tc.wantETag)
			}
			hdr["If-None-Match"] = `"0000stale"`
			resp, raw = doWire(t, ts, "/v1/schedule", body, hdr)
			if resp.StatusCode != http.StatusOK || len(raw) == 0 {
				t.Errorf("stale If-None-Match: status %d with %d bytes, want a full 200", resp.StatusCode, len(raw))
			}
		})
	}
}

// TestNotAcceptable406 is the regression test for the silent-JSON bug:
// an Accept header matching no supported encoding must be answered 406
// with a structured error, not a JSON body the client never asked for.
func TestNotAcceptable406(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	body, _ := json.Marshal(ScheduleRequest{Matrix: testMatrix(t, 8, 3, 1024, 1)})

	for _, path := range []string{"/v1/schedule", "/v1/simulate"} {
		for _, accept := range []string{"text/html", "application/xml, text/*;q=0.5", "image/png"} {
			resp, raw := doWire(t, ts, path, body, map[string]string{"Accept": accept})
			if resp.StatusCode != http.StatusNotAcceptable {
				t.Errorf("%s Accept %q: status %d, want 406 (%s)", path, accept, resp.StatusCode, raw)
				continue
			}
			var env ErrorEnvelope
			if err := json.Unmarshal(raw, &env); err != nil || env.Err.Code != CodeNotAcceptable {
				t.Errorf("%s Accept %q: error envelope %s, want code %q", path, accept, raw, CodeNotAcceptable)
			}
		}
	}

	// The batch stream is NDJSON-only: an Accept that excludes it is
	// also a 406, up front, before any item runs.
	batch, _ := json.Marshal(BatchScheduleRequest{Requests: []ScheduleRequest{{Matrix: testMatrix(t, 8, 3, 1024, 1)}}})
	resp, raw := doWire(t, ts, "/v1/schedule/batch", batch, map[string]string{"Accept": ContentTypeJSON})
	if resp.StatusCode != http.StatusNotAcceptable {
		t.Errorf("batch Accept json: status %d, want 406 (%s)", resp.StatusCode, raw)
	}

	// Mislabeled request bodies are 415, not a confusing parse error.
	resp, raw = doWire(t, ts, "/v1/schedule", body, map[string]string{"Content-Type": "text/plain"})
	if resp.StatusCode != http.StatusUnsupportedMediaType {
		t.Errorf("text/plain body: status %d, want 415 (%s)", resp.StatusCode, raw)
	}
	var env ErrorEnvelope
	if err := json.Unmarshal(raw, &env); err != nil || env.Err.Code != CodeUnsupportedMedia {
		t.Errorf("415 envelope %s, want code %q", raw, CodeUnsupportedMedia)
	}

	// curl -d's default label must keep working: every release before
	// the 415 gate accepted it, and the README's quickstart depends
	// on it.
	resp, raw = doWire(t, ts, "/v1/schedule", body,
		map[string]string{"Content-Type": "application/x-www-form-urlencoded"})
	if resp.StatusCode != http.StatusOK {
		t.Errorf("curl-default urlencoded body: status %d, want 200 (%s)", resp.StatusCode, raw)
	}
}

// TestRevalidationAndCompression1024 is the acceptance-criteria test:
// on a 1024-node schedule response, a repeat request with
// If-None-Match transfers zero body bytes, and the binary+gzip
// encoding cuts response bytes at least 10x vs plain JSON.
func TestRevalidationAndCompression1024(t *testing.T) {
	if testing.Short() {
		t.Skip("1024-node schedule")
	}
	svc, ts := newTestServer(t, Options{Workers: 2})
	body, _ := json.Marshal(ScheduleRequest{
		Workload:  "uniform:8:1048576",
		Algorithm: "RS_NL",
		Topology:  &WireTopology{Spec: "cube:10"},
	})

	resp, rawJSON := doWire(t, ts, "/v1/schedule", body, map[string]string{"Accept-Encoding": "identity"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("schedule: status %d: %s", resp.StatusCode, rawJSON)
	}
	etag := resp.Header.Get("ETag")
	if etag == "" {
		t.Fatal("no ETag on schedule response")
	}

	// Zero-byte revalidation.
	resp, raw := doWire(t, ts, "/v1/schedule", body,
		map[string]string{"Accept-Encoding": "identity", "If-None-Match": etag})
	if resp.StatusCode != http.StatusNotModified {
		t.Fatalf("revalidation: status %d, want 304", resp.StatusCode)
	}
	if len(raw) != 0 {
		t.Fatalf("revalidation transferred %d body bytes, want 0", len(raw))
	}
	if cl := resp.Header.Get("Content-Length"); cl != "" && cl != "0" {
		t.Errorf("304 Content-Length %q", cl)
	}

	// Binary + gzip vs JSON: >= 10x smaller on the wire.
	resp, rawBin := doWire(t, ts, "/v1/schedule", body,
		map[string]string{"Accept": ContentTypeBinary, "Accept-Encoding": "gzip"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("binary schedule: status %d", resp.StatusCode)
	}
	if resp.Header.Get("Content-Encoding") != "gzip" {
		t.Fatal("binary response not gzip-compressed")
	}
	if 10*len(rawBin) > len(rawJSON) {
		t.Errorf("binary+gzip %d bytes vs JSON %d bytes: less than the required 10x win",
			len(rawBin), len(rawJSON))
	}
	// And it still decodes to the same schedule.
	br, err := DecodeBinaryResponse(gunzip(t, rawBin))
	if err != nil {
		t.Fatalf("binary decode: %v", err)
	}
	var env Envelope
	if err := json.Unmarshal(rawJSON, &env); err != nil {
		t.Fatal(err)
	}
	var want ScheduleResult
	if err := json.Unmarshal(env.Result, &want); err != nil {
		t.Fatal(err)
	}
	if br.Schedule == nil || !reflect.DeepEqual(*br.Schedule, want) {
		t.Error("binary schedule differs from JSON schedule")
	}

	// The wire metrics saw all of it.
	metrics := getMetrics(t, ts)
	for _, needle := range []string{
		"unschedd_http_304_total 1",
		`unschedd_response_encoding_total{encoding="binary",compression="gzip"} 1`,
	} {
		if !strings.Contains(metrics, needle) {
			t.Errorf("metrics missing %q", needle)
		}
	}
	if svc.bytesSaved.Load() <= 0 {
		t.Error("bytesSaved counter never moved")
	}
}

func getMetrics(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// TestRevalidationWithoutCache proves the 304 path needs no cache at
// all: the response is a pure function of the content-hash key, so a
// client presenting the current ETag holds current bytes even when
// the entry was never retained.
func TestRevalidationWithoutCache(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, CacheEntries: -1})
	body, _ := json.Marshal(ScheduleRequest{Matrix: testMatrix(t, 16, 4, 8192, 5), Algorithm: "LP"})

	resp, _ := doWire(t, ts, "/v1/schedule", body, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("schedule: status %d", resp.StatusCode)
	}
	etag := resp.Header.Get("ETag")
	resp, raw := doWire(t, ts, "/v1/schedule", body, map[string]string{"If-None-Match": etag})
	if resp.StatusCode != http.StatusNotModified || len(raw) != 0 {
		t.Fatalf("uncached revalidation: status %d with %d bytes, want empty 304", resp.StatusCode, len(raw))
	}
}

// TestBinarySimulateResponse covers the second document type: a
// simulate run negotiated to binary agrees with its JSON twin.
func TestBinarySimulateResponse(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})
	mj := testMatrix(t, 16, 4, 8192, 5)

	var env Envelope
	status, raw := postJSON(t, ts.URL+"/v1/schedule", ScheduleRequest{Matrix: mj, Algorithm: "RS_NL"}, &env)
	if status != http.StatusOK {
		t.Fatalf("schedule: status %d: %s", status, raw)
	}
	var schedRes ScheduleResult
	if err := json.Unmarshal(env.Result, &schedRes); err != nil {
		t.Fatal(err)
	}
	simBody, _ := json.Marshal(SimulateRequest{Schedule: schedRes.Schedule, Matrix: mj})

	var simEnv Envelope
	status, raw = postJSON(t, ts.URL+"/v1/simulate", json.RawMessage(simBody), &simEnv)
	if status != http.StatusOK {
		t.Fatalf("simulate: status %d: %s", status, raw)
	}
	var want SimulateResult
	if err := json.Unmarshal(simEnv.Result, &want); err != nil {
		t.Fatal(err)
	}

	resp, rawBin := doWire(t, ts, "/v1/simulate", simBody,
		map[string]string{"Accept": ContentTypeBinary, "Accept-Encoding": "identity"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("binary simulate: status %d", resp.StatusCode)
	}
	br, err := DecodeBinaryResponse(rawBin)
	if err != nil {
		t.Fatalf("binary decode: %v", err)
	}
	if br.Key != simEnv.Key || !br.Cached {
		t.Errorf("binary simulate key=%q cached=%v, want key=%q cached=true", br.Key, br.Cached, simEnv.Key)
	}
	if br.Simulate == nil || !reflect.DeepEqual(*br.Simulate, want) {
		t.Errorf("binary simulate result %+v, want %+v", br.Simulate, want)
	}
}

// TestPoisonedCacheRecordRendersAsMiss: the memo cache admits any
// CRC-valid JSON value, so a cached schedule result can carry a matrix
// echo no computation produces. Rendering one as binary used to build
// its dense matrix on the HTTP goroutine: an entry outside n or a
// negative size panicked, n = 0 panicked, and n = 40,000 asked for
// n^2 int64s. Rendering encodes the echo's triples as they stand, so
// entries out of row-major order, or repeated, would encode another
// matrix. Each must read as a miss instead: the request recomputes,
// answers byte-identically to a fresh daemon, and the fresh result
// replaces the bad entry.
func TestPoisonedCacheRecordRendersAsMiss(t *testing.T) {
	const body = `{"workload":"uniform:2:64","topology":{"spec":"cube:3"},"algorithm":"RS_N"}`
	binary := []string{"Accept", ContentTypeBinary}
	ref, _ := newTestServer(t, Options{Workers: 1})
	want := serve(ref, "/v1/schedule", body, binary...)
	if want.Code != http.StatusOK {
		t.Fatalf("fresh daemon: status %d: %s", want.Code, want.Body)
	}
	env := envelopeOf(t, serve(ref, "/v1/schedule", body))
	for _, tc := range []struct {
		name   string
		poison func(m *WireMatrix)
	}{
		{"entry outside n", func(m *WireMatrix) { m.Messages[0][0] = int64(m.N) }},
		{"n = 0", func(m *WireMatrix) { m.N = 0 }},
		{"negative size", func(m *WireMatrix) { m.Messages[0][2] = -1 }},
		{"n = 40000", func(m *WireMatrix) { m.N = 40000 }},
		{"rows out of order", func(m *WireMatrix) {
			last := len(m.Messages) - 1
			m.Messages[0], m.Messages[last] = m.Messages[last], m.Messages[0]
		}},
		{"duplicate entry", func(m *WireMatrix) { m.Messages[1] = m.Messages[0] }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var res ScheduleResult
			if err := json.Unmarshal(env.Result, &res); err != nil {
				t.Fatal(err)
			}
			if res.Matrix == nil {
				t.Fatal("workload result carries no matrix echo")
			}
			tc.poison(res.Matrix)
			value, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			rec, err := encodeRecord(env.Key, value)
			if err != nil {
				t.Fatal(err)
			}
			svc, _ := newTestServer(t, Options{Workers: 1})
			put := httptest.NewRequest(http.MethodPut, "/v1/cache/"+env.Key, bytes.NewReader(rec))
			put.Header.Set("Content-Type", ContentTypeCacheRecord)
			w := httptest.NewRecorder()
			svc.ServeHTTP(w, put)
			if w.Code != http.StatusNoContent {
				t.Fatalf("PUT poisoned record: status %d: %s", w.Code, w.Body)
			}
			got := serve(svc, "/v1/schedule", body, binary...)
			if got.Code != http.StatusOK || !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
				t.Fatalf("binary schedule over a poisoned entry: status %d, byte-identical to a fresh daemon: %v",
					got.Code, bytes.Equal(got.Body.Bytes(), want.Body.Bytes()))
			}
			if cached, _ := svc.cache.get(env.Key); !bytes.Equal(cached, env.Result) {
				t.Errorf("the recomputed result did not replace the poisoned entry: %s", cached)
			}
		})
	}
}

// TestDecodeBinaryResponseTotal: the client-side envelope decoder must
// reject malformed input with an error, never a panic.
func TestDecodeBinaryResponseTotal(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	body, _ := json.Marshal(ScheduleRequest{Matrix: testMatrix(t, 8, 3, 1024, 1), Algorithm: "GREEDY"})
	resp, good := doWire(t, ts, "/v1/schedule", body,
		map[string]string{"Accept": ContentTypeBinary, "Accept-Encoding": "identity"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if _, err := DecodeBinaryResponse(good); err != nil {
		t.Fatalf("good payload rejected: %v", err)
	}
	for i := 0; i <= len(good); i++ {
		if _, err := DecodeBinaryResponse(good[:i]); err == nil && i < len(good) {
			t.Fatalf("truncation at %d accepted", i)
		}
	}
	mutants := map[string][]byte{
		"bad magic":     append([]byte("XXXX"), good[4:]...),
		"bad version":   append([]byte{'U', 'S', 'W', 'R', 99}, good[5:]...),
		"trailing byte": append(append([]byte{}, good...), 0),
		"bad doc type":  nil,
	}
	for name, b := range mutants {
		if b == nil {
			continue
		}
		if _, err := DecodeBinaryResponse(b); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

// TestScheduleBatch drives the streaming endpoint: mixed good and bad
// items over one connection, every line a well-formed BatchItem,
// results identical to the synchronous endpoint's, failures isolated
// to their own lines with stable codes.
func TestScheduleBatch(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})
	good := testMatrix(t, 16, 4, 8192, 5)
	reqs := []ScheduleRequest{
		{Matrix: good, Algorithm: "RS_NL"},
		{Matrix: good, Algorithm: "BOGUS"},
		{Matrix: good, Algorithm: "LP"},
		{Matrix: &WireMatrix{N: 1}, Algorithm: "LP"},
		{Matrix: good, Algorithm: "RS_NL"}, // duplicate of item 0: same key
	}
	batchBody, _ := json.Marshal(BatchScheduleRequest{Requests: reqs})

	resp, raw := doWire(t, ts, "/v1/schedule/batch", batchBody, map[string]string{"Accept": ContentTypeNDJSON})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: status %d: %s", resp.StatusCode, raw)
	}
	if ct := resp.Header.Get("Content-Type"); ct != ContentTypeNDJSON {
		t.Errorf("batch Content-Type %q, want %q", ct, ContentTypeNDJSON)
	}
	items := decodeBatch(t, raw, len(reqs))

	// Synchronous twin of item 0 for comparison.
	var env Envelope
	status, _ := postJSON(t, ts.URL+"/v1/schedule", reqs[0], &env)
	if status != http.StatusOK {
		t.Fatalf("sync twin: status %d", status)
	}

	for idx, item := range items {
		switch idx {
		case 1:
			if item.Error == nil || item.Error.Code != CodeUnknownAlgorithm {
				t.Errorf("item 1: error %+v, want code %q", item.Error, CodeUnknownAlgorithm)
			}
		case 3:
			if item.Error == nil || item.Error.Code != CodeBadRequest {
				t.Errorf("item 3: error %+v, want code %q", item.Error, CodeBadRequest)
			}
		default:
			if item.Error != nil {
				t.Errorf("item %d: unexpected error %+v", idx, item.Error)
				continue
			}
			if item.Key == "" || len(item.Result) == 0 {
				t.Errorf("item %d: empty result", idx)
			}
		}
	}
	if items[0].Key != env.Key || !bytes.Equal(items[0].Result, env.Result) {
		t.Error("batch item 0 differs from the synchronous endpoint's answer")
	}
	if items[4].Key != items[0].Key {
		t.Error("duplicate requests got different keys")
	}

	// A repeat of the whole batch is all cache hits.
	resp, raw = doWire(t, ts, "/v1/schedule/batch", batchBody, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("repeat batch: status %d", resp.StatusCode)
	}
	for idx, item := range decodeBatch(t, raw, len(reqs)) {
		if item.Error == nil && !item.Cached {
			t.Errorf("repeat batch item %d not served from cache", idx)
		}
	}
}

// decodeBatch parses an NDJSON stream into items indexed by request
// position, requiring exactly one line per request.
func decodeBatch(t *testing.T, raw []byte, n int) []BatchItem {
	t.Helper()
	lines := strings.Split(strings.TrimRight(string(raw), "\n"), "\n")
	if len(lines) != n {
		t.Fatalf("batch stream has %d lines, want %d:\n%s", len(lines), n, raw)
	}
	items := make([]BatchItem, n)
	seen := make([]bool, n)
	for _, line := range lines {
		var item BatchItem
		if err := json.Unmarshal([]byte(line), &item); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", line, err)
		}
		if item.Index < 0 || item.Index >= n || seen[item.Index] {
			t.Fatalf("bad or duplicate index %d in %q", item.Index, line)
		}
		seen[item.Index] = true
		items[item.Index] = item
	}
	return items
}

// TestBatchValidation covers the request-shape gates of the batch
// endpoint.
func TestBatchValidation(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	cases := []struct {
		name string
		body string
		want int
	}{
		{"empty body", `{}`, http.StatusBadRequest},
		{"empty list", `{"requests":[]}`, http.StatusBadRequest},
		{"not json", `]`, http.StatusBadRequest},
		{"trailing brace", `{"requests":[{"matrix":{"n":4,"messages":[[0,1,10]]}}]}}`, http.StatusBadRequest},
		{"trailing bracket", `{"requests":[{"matrix":{"n":4,"messages":[[0,1,10]]}}]}]`, http.StatusBadRequest},
		{"too many", fmt.Sprintf(`{"requests":[%s]}`,
			strings.TrimRight(strings.Repeat(`{},`, maxBatchItems+1), ",")), http.StatusBadRequest},
	}
	for _, tc := range cases {
		resp, raw := doWire(t, ts, "/v1/schedule/batch", []byte(tc.body), nil)
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, resp.StatusCode, tc.want, raw)
		}
	}
}
