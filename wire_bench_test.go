package unsched

// Wire-format benchmarks, tracked by cmd/benchgate in CI alongside the
// paper tables: the binary matrix codec against its JSON triple form,
// the JSON request decode every shipped matrix pays, and the service's
// negotiated response path end to end over HTTP — cached JSON, cached
// binary+gzip, and If-None-Match revalidation. Each reports the actual
// transfer size as wire_bytes so a regression in either speed or
// compactness trips the gate.

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	"unsched/internal/comm"
)

func wireBenchMatrix(b *testing.B, n int) *comm.Matrix {
	b.Helper()
	rng := rand.New(rand.NewSource(17))
	m, err := comm.DRegular(n, 8, 128*1024, rng)
	if err != nil {
		b.Fatal(err)
	}
	return m
}

// wireBenchDoc is wireBenchMatrix in wire form.
func wireBenchDoc(b *testing.B, n int) WireMatrix {
	m := wireBenchMatrix(b, n)
	msgs := m.Messages()
	triples := make([][3]int64, len(msgs))
	for i, msg := range msgs {
		triples[i] = [3]int64{int64(msg.Src), int64(msg.Dst), msg.Bytes}
	}
	return WireMatrix{N: m.N(), Messages: triples}
}

func benchWireEncodeJSON(b *testing.B, n int) {
	doc := wireBenchDoc(b, n)
	var enc []byte
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if enc, err = json.Marshal(doc); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(enc)), "wire_bytes")
}

func benchWireEncodeBinary(b *testing.B, n int) {
	m := wireBenchMatrix(b, n)
	var enc []byte
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc = m.EncodeBinary()
	}
	b.StopTimer()
	if _, err := DecodeMatrixBinary(enc); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(len(enc)), "wire_bytes")
}

// benchWireDecodeJSON decodes a /v1/schedule body that ships the
// matrix: the first stage of every such request, hit or miss.
func benchWireDecodeJSON(b *testing.B, n int) {
	doc := wireBenchDoc(b, n)
	body, err := json.Marshal(ScheduleRequest{Matrix: &doc, Algorithm: "RS_NL"})
	if err != nil {
		b.Fatal(err)
	}
	var req ScheduleRequest
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req = ScheduleRequest{}
		if err := json.Unmarshal(body, &req); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if req.Matrix == nil || len(req.Matrix.Messages) != len(doc.Messages) {
		b.Fatal("decoded request lost its messages")
	}
	b.ReportMetric(float64(len(body)), "wire_bytes")
}

func BenchmarkWireDecodeMatrixJSON_256(b *testing.B)  { benchWireDecodeJSON(b, 256) }
func BenchmarkWireDecodeMatrixJSON_1024(b *testing.B) { benchWireDecodeJSON(b, 1024) }

func BenchmarkWireEncodeMatrixJSON_256(b *testing.B)    { benchWireEncodeJSON(b, 256) }
func BenchmarkWireEncodeMatrixBinary_256(b *testing.B)  { benchWireEncodeBinary(b, 256) }
func BenchmarkWireEncodeMatrixJSON_1024(b *testing.B)   { benchWireEncodeJSON(b, 1024) }
func BenchmarkWireEncodeMatrixBinary_1024(b *testing.B) { benchWireEncodeBinary(b, 1024) }

// wireBenchServer starts an in-process service and primes the cache
// with one paper-scale schedule, returning the URL, the request body,
// and the response's ETag for revalidation runs.
func wireBenchServer(b *testing.B) (ts *httptest.Server, body []byte, etag string) {
	b.Helper()
	srv, err := NewServer(ServerOptions{})
	if err != nil {
		b.Fatal(err)
	}
	ts = httptest.NewServer(srv)
	b.Cleanup(func() { ts.Close(); srv.Close() })
	req := ScheduleRequest{
		Workload:  "uniform:8:65536",
		Algorithm: "RS_NL",
		Topology:  &WireTopology{Spec: "cube:8"},
	}
	if body, err = json.Marshal(req); err != nil {
		b.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/schedule", ContentTypeJSON, bytes.NewReader(body))
	if err != nil {
		b.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b.Fatalf("prime request: %d", resp.StatusCode)
	}
	return ts, body, resp.Header.Get("ETag")
}

func wireBenchDo(b *testing.B, url string, body []byte, hdr map[string]string, wantStatus int) int {
	b.Helper()
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		b.Fatal(err)
	}
	req.Header.Set("Content-Type", ContentTypeJSON)
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		b.Fatal(err)
	}
	n, err := io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if err != nil {
		b.Fatal(err)
	}
	if resp.StatusCode != wantStatus {
		b.Fatalf("status %d, want %d", resp.StatusCode, wantStatus)
	}
	return int(n)
}

// BenchmarkScheduleHTTPCachedJSON measures the default wire path: a
// cache-hit schedule response as identity-encoded JSON.
func BenchmarkScheduleHTTPCachedJSON(b *testing.B) {
	ts, body, _ := wireBenchServer(b)
	hdr := map[string]string{"Accept-Encoding": "identity"}
	var n int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n = wireBenchDo(b, ts.URL+"/v1/schedule", body, hdr, http.StatusOK)
	}
	b.ReportMetric(float64(n), "wire_bytes")
}

// BenchmarkScheduleHTTPCachedBinaryGzip measures the compact path the
// README's 10x claim rests on: the same cache hit as gzipped binary.
func BenchmarkScheduleHTTPCachedBinaryGzip(b *testing.B) {
	ts, body, _ := wireBenchServer(b)
	hdr := map[string]string{"Accept": ContentTypeBinary, "Accept-Encoding": "gzip"}
	var n int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n = wireBenchDo(b, ts.URL+"/v1/schedule", body, hdr, http.StatusOK)
	}
	b.StopTimer()
	b.ReportMetric(float64(n), "wire_bytes")
	// The compact form must actually decode: fetch once more and check.
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/schedule", bytes.NewReader(body))
	req.Header.Set("Content-Type", ContentTypeJSON)
	req.Header.Set("Accept", ContentTypeBinary)
	req.Header.Set("Accept-Encoding", "gzip")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		b.Fatal(err)
	}
	defer resp.Body.Close()
	zr, err := gzip.NewReader(resp.Body)
	if err != nil {
		b.Fatal(err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := DecodeBinaryResponse(raw); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkScheduleHTTPRevalidate304 measures the zero-body path: the
// client holds the response and only revalidates its content hash.
func BenchmarkScheduleHTTPRevalidate304(b *testing.B) {
	ts, body, etag := wireBenchServer(b)
	if etag == "" {
		b.Fatal("prime response carried no ETag")
	}
	hdr := map[string]string{"If-None-Match": etag}
	var n int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n = wireBenchDo(b, ts.URL+"/v1/schedule", body, hdr, http.StatusNotModified)
	}
	b.ReportMetric(float64(n), "wire_bytes")
}
