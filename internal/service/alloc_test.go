// Allocation budget for cache hits. Excluded under the race detector:
// its instrumentation changes allocation counts.
//
//go:build !race

package service

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
)

// hitBudgetBytes bounds the bytes one repeated-body hit allocates, in
// either of the two forms perfbench's serve-hit sends with a body. On a
// 256-node RS_NL schedule (2,048 messages) a hit measured 520 B as JSON
// and 712 B as binary+gzip (Go 1.24): the body-key tag, the key
// string, the envelope head and the response headers. Copying the
// 31 KB JSON envelope into a fresh body (33 KB a hit) or compressing
// the binary envelope again (11 KB) breaks it.
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
