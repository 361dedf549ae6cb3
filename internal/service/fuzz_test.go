package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
)

// fuzzServer is shared across fuzz iterations: handlers are
// concurrency-safe, and rebuilding a worker pool per input would
// drown the fuzzer in goroutine churn.
var (
	fuzzOnce sync.Once
	fuzzSrv  *Server
)

func fuzzServer() *Server {
	fuzzOnce.Do(func() {
		var err error
		if fuzzSrv, err = NewServer(Options{Workers: 2, QueueDepth: 16, CacheEntries: 64}); err != nil {
			panic(err)
		}
	})
	return fuzzSrv
}

// serve posts body to path on svc in-process, with header name/value
// pairs, and returns the recorded reply.
func serve(svc *Server, path, body string, header ...string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	for i := 0; i+1 < len(header); i += 2 {
		req.Header.Set(header[i], header[i+1])
	}
	rec := httptest.NewRecorder()
	svc.ServeHTTP(rec, req)
	return rec
}

// serveFuzz posts body to path on the shared fuzz server twice and
// holds it to two contracts. No 5xx: whatever the body, the answer is
// a status the daemon wrote, and a malformed request is the client's
// fault — a 4xx, never a server error. 503 is the one exception: load
// shedding by a pool that is shutting down is not a verdict on the
// input. Repeats answer alike: the second post, which the body-key
// table may answer without decoding, gets the first one's status and
// error body, or for a 200 its key, ETag and result bytes, served from
// the cache.
func serveFuzz(t *testing.T, path, body string) {
	t.Helper()
	first := serve(fuzzServer(), path, body) // must not panic
	if first.Code == 0 {
		t.Fatalf("no status written for input %q", body)
	}
	if first.Code >= 500 && first.Code != http.StatusServiceUnavailable {
		t.Fatalf("input %q answered %d: %s", body, first.Code, first.Body)
	}
	second := serve(fuzzServer(), path, body)
	if second.Code != first.Code {
		t.Fatalf("input %q answered %d, then %d: %s", body, first.Code, second.Code, second.Body)
	}
	if first.Code != http.StatusOK {
		if second.Body.String() != first.Body.String() {
			t.Fatalf("input %q answered two error bodies:\n%s\n%s", body, first.Body, second.Body)
		}
		return
	}
	var a, b Envelope
	if err := json.Unmarshal(first.Body.Bytes(), &a); err != nil {
		t.Fatalf("input %q: bad envelope: %v", body, err)
	}
	if err := json.Unmarshal(second.Body.Bytes(), &b); err != nil {
		t.Fatalf("input %q: bad repeat envelope: %v", body, err)
	}
	if b.Key != a.Key || second.Header().Get("ETag") != first.Header().Get("ETag") || !bytes.Equal(b.Result, a.Result) {
		t.Fatalf("input %q: the repeat answered another key, ETag or result", body)
	}
	if !b.Cached {
		t.Fatalf("input %q: the repeat was not served from the cache", body)
	}
}

// scheduleRequestSeeds seed FuzzScheduleRequest and FuzzDecodeBody.
var scheduleRequestSeeds = []string{
	`{"matrix":{"n":8,"messages":[[0,1,512],[1,2,512]]},"algorithm":"RS_NL"}`,
	// The same request reformatted: one content key, two body keys.
	"{ \"algorithm\" : \"RS_NL\",\n\t\"matrix\" : { \"messages\" : [ [0,1,512] , [1,2,512] ], \"n\" : 8 } }\n",
	`{"matrix":{"n":4,"messages":[]}}`,
	`{"matrix":{"n":4,"messages":[[0,0,1]]}}`,
	`{"matrix":{"n":-1,"messages":null}}`,
	`{"matrix":{"n":4096,"messages":[[0,1,1]]},"algorithm":"AC"}`,
	`{"algorithm":"LP"}`,
	`{"matrix":{"n":4,"messages":[[0,1,10]]},"seed":-9223372036854775808}`,
	`{"matrix":{"n":4,"messages":[[0,1,10]]},"topology":{"kind":"torus","w":2,"h":2}}`,
	`{"workload":"uniform:2:64","topology":{"spec":"cube:3"},"algorithm":"RS_NL"}`,
	`{"workload":"halo:8x8:512","topology":{"spec":"torus:4x4"}}`,
	`{"workload":"dregular:2:64","topology":{"spec":"cube:3"},"seed":-1}`,
	`{"workload":"klein:::","topology":{"spec":"cube:3"}}`,
	`{"workload":"transpose:64"}`,
	`{"workload":"perm:64","matrix":{"n":4,"messages":[]}}`,
	`nonsense`,
	``,
	`[]`,
	`{"matrix":{"n":1e9}}`,
}

// FuzzScheduleRequest drives POST /v1/schedule with arbitrary bodies.
// The contract: malformed JSON or a malformed matrix must never panic
// the daemon or answer a server error — every input gets a JSON
// response with a status serveFuzz accepts.
func FuzzScheduleRequest(f *testing.F) {
	for _, seed := range scheduleRequestSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, body string) {
		serveFuzz(t, "/v1/schedule", body)
	})
}

// FuzzCampaignRequest drives POST /v1/campaign with arbitrary bodies,
// covering the topology field in all its forms (structured kinds,
// spec strings, graph edge lists): the decoder and topology builder
// must never panic, whatever the wire says. Accepted campaigns run
// asynchronously and are bounded by the server's campaign slots, so
// the shared fuzz server stays healthy across iterations.
func FuzzCampaignRequest(f *testing.F) {
	f.Add(`{"densities":[2],"sizes":[64],"samples":1,"dim":3}`)
	f.Add(`{"densities":[2,4],"sizes":[64,1024],"samples":2,"seed":7,"topology":{"kind":"torus","w":4,"h":4}}`)
	f.Add(`{"densities":[2],"sizes":[64],"samples":1,"topology":{"kind":"ring","n":8}}`)
	f.Add(`{"densities":[2],"sizes":[64],"samples":1,"topology":{"kind":"graph","n":4,"edges":[[0,1],[1,2],[2,3],[3,0]]}}`)
	f.Add(`{"densities":[2],"sizes":[64],"samples":1,"topology":{"spec":"cube:3"}}`)
	f.Add(`{"densities":[2],"sizes":[64],"samples":1,"topology":{"spec":"graph:4:0-1,1-2,2-3"}}`)
	f.Add(`{"densities":[2],"sizes":[64],"samples":1,"dim":3,"topology":{"kind":"cube","dim":3}}`)
	f.Add(`{"densities":[2],"sizes":[64],"samples":1,"topology":{"kind":"graph","n":4,"edges":[[0,0]]}}`)
	f.Add(`{"densities":[2],"sizes":[64],"samples":1,"topology":{"kind":"graph","n":-1,"edges":[[0,1]]}}`)
	f.Add(`{"densities":[2],"sizes":[64],"samples":1,"topology":{"kind":"ring","n":999999999}}`)
	f.Add(`{"densities":[1000000],"sizes":[-5],"samples":0}`)
	f.Add(`{"workloads":["uniform:2:64","halo:8x8:512"],"samples":1,"dim":3}`)
	f.Add(`{"workloads":["hotspot:2:64:1","stencil3d:2x2x2:8","spmv:4:8"],"samples":1,"topology":{"spec":"torus:4x4"}}`)
	f.Add(`{"workloads":["nope"],"samples":1,"dim":3}`)
	f.Add(`{"workloads":[""],"samples":1}`)
	f.Add(`{"workloads":["uniform:2:64"],"densities":[2],"sizes":[64],"samples":1}`)
	f.Add(`{"topology":{}}`)
	f.Add(`{`)
	f.Add(``)
	f.Fuzz(func(t *testing.T, body string) {
		srv := fuzzServer()
		req := httptest.NewRequest(http.MethodPost, "/v1/campaign", strings.NewReader(body))
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req) // must not panic
		if rec.Code == 0 {
			t.Fatalf("no status written for input %q", body)
		}
	})
}

// FuzzCacheRecord drives the on-disk cache-record decoder with
// arbitrary bytes: a vandalized cache directory must cost at most a
// skipped record, never a panicking daemon. When an input does decode,
// it must round-trip — re-encoding the (key, value) reproduces the
// exact input bytes, so every accepted record is one encodeRecord
// could have written.
func FuzzCacheRecord(f *testing.F) {
	if rec, err := encodeRecord(strings.Repeat("ab", 32), []byte(`{"result":1}`)); err == nil {
		f.Add(rec)
		f.Add(rec[:len(rec)-3])   // truncated
		f.Add(append(rec, 0x00))  // trailing garbage
		f.Add(bytes.ToUpper(rec)) // flipped magic/body bytes
	}
	if rec, err := encodeRecord("aa", nil); err == nil {
		f.Add(rec)
	}
	f.Add([]byte{})
	f.Add([]byte("USCR"))
	f.Add([]byte{'U', 'S', 'C', 'R', 1, 255, 255, 255, 255, 255})
	f.Fuzz(func(t *testing.T, b []byte) {
		key, value, err := decodeRecord(b) // must not panic
		if err != nil {
			return
		}
		re, err := encodeRecord(key, value)
		if err != nil {
			t.Fatalf("decoded record re-encodes with error: %v", err)
		}
		if !bytes.Equal(re, b) {
			t.Fatalf("decode/encode round trip changed the record:\n in: %x\nout: %x", b, re)
		}
	})
}

// simulateRequestSeeds seed FuzzSimulateRequest and FuzzDecodeBody.
var simulateRequestSeeds = []string{
	`{"matrix":{"n":4,"messages":[[0,1,256]]}}`,
	// The same request reformatted: one content key, two body keys.
	"{\r\n  \"matrix\": {\"messages\": [[0, 1, 256]], \"n\": 4}\r\n}",
	`{"schedule":{"algorithm":"RS_N","n":4,"ops":0,"phases":[[[0,1,256]],[[1,0,256]]]}}`,
	`{"schedule":{"algorithm":"LP","n":4,"ops":1,"phases":[[[0,1,10],[1,0,10]]]},"protocol":"LP"}`,
	`{"schedule":{"algorithm":"AC","n":4,"phases":[]},"matrix":{"n":4,"messages":[[0,1,9]]}}`,
	`{"schedule":{"algorithm":"RS_N","n":4,"phases":[[[0,2,5],[1,2,5]]]}}`,
	`{"schedule":{"algorithm":"RS_N","n":2,"phases":[[[0,1,5]]]},"params":"ipsc2","protocol":"S2"}`,
	`{"schedule":null,"matrix":null}`,
	`{`,
	`{"schedule":{"algorithm":"RS_N","n":4,"ops":0,"phases":[[[0,1,256]]]},"protocol":"LP"}`,
	`{"schedule":{"algorithm":"LP","n":4,"ops":0,"phases":[[[0,2,256]]]}}`,
}

// FuzzSimulateRequest drives POST /v1/simulate the same way; schedules
// with contention, out-of-range nodes, absurd phase counts, or a shape
// the LP protocol cannot run must be rejected with a 4xx, never
// simulated into a crash or a 500.
func FuzzSimulateRequest(f *testing.F) {
	for _, seed := range simulateRequestSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, body string) {
		serveFuzz(t, "/v1/simulate", body)
	})
}

// FuzzWireTriples holds the hand-written triple decoder to the oracle
// it replaces: for every document json.Valid accepts, decoding into
// WireTriples and into a plain [][3]int64 through encoding/json must
// both succeed or both fail, and on success agree element for
// element, nil against empty included. Called directly on arbitrary
// bytes, the decoder must never panic.
func FuzzWireTriples(f *testing.F) {
	for _, seed := range []string{
		// nulls and empties
		`null`, `[]`, `[null]`, `[[]]`, `[[null,null,null]]`,
		// short and long triples
		`[[1,2]]`, `[[1,2,3,4]]`, `[[1,2,3,"x",{"a":[1]}]]`, `[[1,2,3,"a\"]b",[1,[2]],true,null]]`,
		`[[0,1,512],[1,2,512],[2,0]]`,
		// number forms
		`[[1.5,2,3]]`, `[[1e3,2,3]]`, `[[1E3,2,3]]`, `[[-0,2,3]]`, `[[0.0,2,3]]`,
		// wrong types
		`[["1",2,3]]`, `[[true,2,3]]`, `[[false,2,3]]`, `[[[1],2,3]]`, `[[{},2,3]]`,
		`[1]`, `["x"]`, `[{}]`, `[true]`, `{}`, `"x"`, `7`, `true`,
		// int64 bounds, and one past each
		`[[9223372036854775807,-9223372036854775808,0]]`,
		`[[9223372036854775808,0,0]]`, `[[-9223372036854775809,0,0]]`,
		`[[0,0,99999999999999999999999]]`,
		// whitespace everywhere
		" \t\n[ \r[ 1 , 2 ,\n3 ] , null ,[ ] , [4,\t5,6, \"skip\" ]\n]\r\n ",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, doc string) {
		var direct WireTriples
		_ = direct.UnmarshalJSON([]byte(doc)) // must not panic, valid or not
		if !json.Valid([]byte(doc)) {
			return
		}
		var want [][3]int64
		wantErr := json.Unmarshal([]byte(doc), &want)
		var got WireTriples
		gotErr := json.Unmarshal([]byte(doc), &got)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("%q: encoding/json error %v, WireTriples error %v", doc, wantErr, gotErr)
		}
		if wantErr != nil {
			return
		}
		if (want == nil) != (got == nil) || !slices.Equal(want, [][3]int64(got)) {
			t.Fatalf("%q: encoding/json decoded %v (nil %v), WireTriples %v (nil %v)",
				doc, want, want == nil, got, got == nil)
		}
	})
}

// FuzzBinaryResponse drives the binary response decoder with arbitrary
// bytes: it must never panic. When an input decodes, the server's
// encoding of the decoded response must decode and re-encode to
// itself. The input need not come back byte for byte: the decoder
// reads only the cached bit of the flags byte.
func FuzzBinaryResponse(f *testing.F) {
	key := strings.Repeat("ab", 32)
	phases := []WirePhase{{{0, 1, 64}, {1, 0, 64}}, {{2, 3, 4096}}}
	for _, doc := range []wireDoc{
		&ScheduleResult{
			Chosen: "RS_NL", Topology: "cube:2", Workload: "uniform:1:64", Seed: -3, LinkFree: true,
			Matrix:   &WireMatrix{N: 4, Messages: WireTriples{{0, 1, 64}, {1, 0, 64}, {2, 3, 4096}}},
			Schedule: &WireSchedule{Algorithm: "RS_NL", N: 4, Ops: 12, Phases: phases},
		},
		&ScheduleResult{Chosen: "AC", Topology: "cube:2"},
		&SimulateResult{Topology: "cube:2", Protocol: "S1", MakespanUS: 1234.5, Transfers: 1, Exchanges: 1, ResourceWaitUS: 7.25},
	} {
		body := envelopeBytes(encBinary, key, true, doc.appendBinaryPayload(nil))
		f.Add(body)
		f.Add(body[:len(body)-1]) // truncated
	}
	f.Add([]byte("USWR"))
	f.Add([]byte{'U', 'S', 'W', 'R', 1, 0xff, 0, 9})
	f.Fuzz(func(t *testing.T, b []byte) {
		res, err := DecodeBinaryResponse(b) // must not panic
		if err != nil {
			return
		}
		once := encodeBinaryResponse(res)
		again, err := DecodeBinaryResponse(once)
		if err != nil {
			t.Fatalf("re-encoded response does not decode: %v\n in: %x\nout: %x", err, b, once)
		}
		if twice := encodeBinaryResponse(again); !bytes.Equal(twice, once) {
			t.Fatalf("re-encoding is not stable:\nonce: %x\ntwice: %x", once, twice)
		}
	})
}

// encodeBinaryResponse is the server's binary encoding of a decoded
// response.
func encodeBinaryResponse(res *BinaryResponse) []byte {
	var payload []byte
	if res.Schedule != nil {
		payload = res.Schedule.appendBinaryPayload(nil)
	} else {
		payload = res.Simulate.appendBinaryPayload(nil)
	}
	return envelopeBytes(encBinary, res.Key, res.Cached, payload)
}
