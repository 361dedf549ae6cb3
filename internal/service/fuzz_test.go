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

// serveFuzz posts body to path on the shared fuzz server and holds it
// to the no-5xx contract: whatever the body, the answer is a status
// the daemon wrote, and a malformed request is the client's fault — a
// 4xx, never a server error. 503 is the one exception: load shedding
// by a pool that is shutting down is not a verdict on the input.
func serveFuzz(t *testing.T, path, body string) {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	rec := httptest.NewRecorder()
	fuzzServer().ServeHTTP(rec, req) // must not panic
	if rec.Code == 0 {
		t.Fatalf("no status written for input %q", body)
	}
	if rec.Code >= 500 && rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("input %q answered %d: %s", body, rec.Code, rec.Body)
	}
}

// FuzzScheduleRequest drives POST /v1/schedule with arbitrary bodies.
// The contract: malformed JSON or a malformed matrix must never panic
// the daemon or answer a server error — every input gets a JSON
// response with a status serveFuzz accepts.
func FuzzScheduleRequest(f *testing.F) {
	f.Add(`{"matrix":{"n":8,"messages":[[0,1,512],[1,2,512]]},"algorithm":"RS_NL"}`)
	f.Add(`{"matrix":{"n":4,"messages":[]}}`)
	f.Add(`{"matrix":{"n":4,"messages":[[0,0,1]]}}`)
	f.Add(`{"matrix":{"n":-1,"messages":null}}`)
	f.Add(`{"matrix":{"n":4096,"messages":[[0,1,1]]},"algorithm":"AC"}`)
	f.Add(`{"algorithm":"LP"}`)
	f.Add(`{"matrix":{"n":4,"messages":[[0,1,10]]},"seed":-9223372036854775808}`)
	f.Add(`{"matrix":{"n":4,"messages":[[0,1,10]]},"topology":{"kind":"torus","w":2,"h":2}}`)
	f.Add(`{"workload":"uniform:2:64","topology":{"spec":"cube:3"},"algorithm":"RS_NL"}`)
	f.Add(`{"workload":"halo:8x8:512","topology":{"spec":"torus:4x4"}}`)
	f.Add(`{"workload":"dregular:2:64","topology":{"spec":"cube:3"},"seed":-1}`)
	f.Add(`{"workload":"klein:::","topology":{"spec":"cube:3"}}`)
	f.Add(`{"workload":"transpose:64"}`)
	f.Add(`{"workload":"perm:64","matrix":{"n":4,"messages":[]}}`)
	f.Add(`nonsense`)
	f.Add(``)
	f.Add(`[]`)
	f.Add(`{"matrix":{"n":1e9}}`)
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

// FuzzSimulateRequest drives POST /v1/simulate the same way; schedules
// with contention, out-of-range nodes, absurd phase counts, or a shape
// the LP protocol cannot run must be rejected with a 4xx, never
// simulated into a crash or a 500.
func FuzzSimulateRequest(f *testing.F) {
	f.Add(`{"matrix":{"n":4,"messages":[[0,1,256]]}}`)
	f.Add(`{"schedule":{"algorithm":"RS_N","n":4,"ops":0,"phases":[[[0,1,256]],[[1,0,256]]]}}`)
	f.Add(`{"schedule":{"algorithm":"LP","n":4,"ops":1,"phases":[[[0,1,10],[1,0,10]]]},"protocol":"LP"}`)
	f.Add(`{"schedule":{"algorithm":"AC","n":4,"phases":[]},"matrix":{"n":4,"messages":[[0,1,9]]}}`)
	f.Add(`{"schedule":{"algorithm":"RS_N","n":4,"phases":[[[0,2,5],[1,2,5]]]}}`)
	f.Add(`{"schedule":{"algorithm":"RS_N","n":2,"phases":[[[0,1,5]]]},"params":"ipsc2","protocol":"S2"}`)
	f.Add(`{"schedule":null,"matrix":null}`)
	f.Add(`{`)
	f.Add(`{"schedule":{"algorithm":"RS_N","n":4,"ops":0,"phases":[[[0,1,256]]]},"protocol":"LP"}`)
	f.Add(`{"schedule":{"algorithm":"LP","n":4,"ops":0,"phases":[[[0,2,256]]]}}`)
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
