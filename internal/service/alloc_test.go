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
// as binary encodes its triples, without the n x n matrix. For a
// 1024-node uniform:4:4096 echo, 15.7 KB of payload, building the dense
// matrix allocated 8.4 MB a render.
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
	if got > 256<<10 {
		t.Errorf("a 1024-node echo render allocates %d B, budget 256 KB", got)
	}
}
