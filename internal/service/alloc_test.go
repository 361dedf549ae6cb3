// Allocation budget for cache hits. Excluded under the race detector:
// its instrumentation changes allocation counts.
//
//go:build !race

package service

import (
	"bytes"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"unsched/internal/comm"
)

// hitBudgetBytes bounds the bytes one repeated-body hit allocates: in
// either of the two forms perfbench's serve-hit sends with a body, and
// as binary, whose kept payload goes out between the envelope's head
// and tail. On a 256-node RS_NL schedule (2,048 messages) a hit
// measured 520 B as JSON, 536 B as binary and 552 B as binary+gzip
// (Go 1.24): the body-key tag, the key string, the envelope head and
// the response headers. Copying the 31 KB JSON envelope into a fresh
// body (33 KB a hit), compressing the binary envelope again (11 KB) or
// rendering the binary payload again (99 KB) breaks it.
const hitBudgetBytes = 4 << 10

// discardWriter is a reusable http.ResponseWriter that keeps only the
// status and the body length.
type discardWriter struct {
	header http.Header
	status int
	n      int
}

func (w *discardWriter) Header() http.Header { return w.header }

func (w *discardWriter) WriteHeader(status int) { w.status = status }

func (w *discardWriter) Write(p []byte) (int, error) {
	w.n += len(p)
	return len(p), nil
}

func TestHitAllocBudget(t *testing.T) {
	svc, err := NewServer(Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	body, err := json.Marshal(ScheduleRequest{Matrix: testMatrix(t, 256, 8, 4096, 4), Algorithm: "RS_NL"})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		header map[string]string
	}{
		{"json", map[string]string{"Accept-Encoding": "identity"}},
		{"binary", map[string]string{"Accept": ContentTypeBinary, "Accept-Encoding": "identity"}},
		{"binary+gzip", map[string]string{"Accept": ContentTypeBinary, "Accept-Encoding": "gzip"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rd := bytes.NewReader(body)
			req := httptest.NewRequest(http.MethodPost, "/v1/schedule", nil)
			req.Body = io.NopCloser(rd)
			req.ContentLength = int64(len(body))
			for k, v := range tc.header {
				req.Header.Set(k, v)
			}
			w := &discardWriter{header: make(http.Header)}
			hit := func() {
				rd.Reset(body)
				clear(w.header)
				w.status, w.n = 0, 0
				svc.ServeHTTP(w, req)
				if w.status != http.StatusOK || w.n == 0 {
					t.Fatalf("status %d with %d body bytes", w.status, w.n)
				}
			}
			// The first requests compute the schedule, record the body
			// and render the binary form and its gzip body.
			for i := 0; i < 3; i++ {
				hit()
			}
			// Enough hits that a one-off fill of a pool's slot on another P
			// (a 64 KB request buffer) stays well inside the budget.
			const hits = 200
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < hits; i++ {
				hit()
			}
			runtime.ReadMemStats(&after)
			got := (after.TotalAlloc - before.TotalAlloc) / hits
			t.Logf("%s hit allocates %d B", tc.name, got)
			if got > hitBudgetBytes {
				t.Errorf("%s hit allocates %d B, budget %d B", tc.name, got, hitBudgetBytes)
			}
		})
	}
}

// TestEchoRenderAllocBudget: rendering a workload result's matrix echo
// as binary encodes its triples, without the n x n matrix, in place in
// one buffer sized from the message count. For a 1024-node
// uniform:4:4096 echo, 15.7 KB of payload, building the dense matrix
// allocated 8.4 MB a render, and encoding the block into a second,
// unsized buffer 79,360 B; one sized buffer measured 18,432 B (Go 1.24).
func TestEchoRenderAllocBudget(t *testing.T) {
	m, err := comm.DRegular(1024, 4, 4096, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	echo := NewWireMatrix(m)
	const renders = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < renders; i++ {
		appendWireMatrix(nil, echo)
	}
	runtime.ReadMemStats(&after)
	got := (after.TotalAlloc - before.TotalAlloc) / renders
	t.Logf("a 1024-node echo render allocates %d B", got)
	if got > 24<<10 {
		t.Errorf("a 1024-node echo render allocates %d B, budget 24 KB", got)
	}
	res := &ScheduleResult{Chosen: "AC", Topology: "hypercube-10", Workload: "uniform:4:4096", Matrix: echo}
	if n := testing.AllocsPerRun(renders, func() { res.appendBinaryPayload(nil) }); n != 1 {
		t.Errorf("rendering the payload around the echo takes %v allocations, want 1", n)
	}
}

// TestLargeListDecodeAllocBudget: a list too long for the decoder's
// pooled scratch decodes straight into one list, sized from the
// brackets of its extent. For 100,000 triples, 2.4 MB decoded from a
// 1.7 MB body, growing the scratch and copying it out allocated
// 16.5 MB, and json.Decoder, which copies the body, 6.6 MB; the sized
// list measured 2,400,920 B (Go 1.24).
func TestLargeListDecodeAllocBudget(t *testing.T) {
	const triples = 100_000
	body := []byte(`{"matrix":{"n":4096,"messages":[` + strings.Repeat("[4095,17,131072],", triples-1) + `[1,2,3]]}}`)
	var req ScheduleRequest
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := decodeBody(body, &req); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if got := req.Matrix.Messages; len(got) != triples || cap(got) != triples {
		t.Fatalf("decoded %d triples into a list of cap %d, want %d and %d", len(got), cap(got), triples, triples)
	}
	got, list := after.TotalAlloc-before.TotalAlloc, uint64(triples*24)
	t.Logf("decoding a %d B body of %d triples allocates %d B", len(body), triples, got)
	if got > list+4<<10 {
		t.Errorf("decoding %d triples allocates %d B, budget %d B", triples, got, list+4<<10)
	}
}
