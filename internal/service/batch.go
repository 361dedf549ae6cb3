package service

// POST /v1/schedule/batch: many schedule requests over one connection,
// results streamed back as NDJSON — one BatchItem per line, flushed as
// each item finishes, in completion order (Index says which request a
// line answers). The stream reuses the same worker pool, content-hash
// memoization, and single-flight dedup as the synchronous endpoint;
// where a synchronous request is shed with 429 under queue pressure, a
// batch item yields and retries instead, so one saturated moment does
// not fail a thousand-item sweep.

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
)

// maxBatchItems bounds one batch request. The body cap (32 MB) already
// bounds total payload; this bounds the goroutine fan-out and the
// smallest-possible-item count.
const maxBatchItems = 4096

// BatchScheduleRequest is the body of POST /v1/schedule/batch.
type BatchScheduleRequest struct {
	Requests []ScheduleRequest `json:"requests"`
}

// BatchItem is one line of the NDJSON stream answering a batch. Index
// is the position of the request it answers (lines arrive in
// completion order, not request order). Exactly one of Result or
// Error is set; Key and Cached mirror the synchronous Envelope.
type BatchItem struct {
	Index  int             `json:"index"`
	Key    string          `json:"key,omitempty"`
	Cached bool            `json:"cached,omitempty"`
	Result json.RawMessage `json:"result,omitempty"`
	Error  *ErrorDetail    `json:"error,omitempty"`
}

// batchAcceptable gates the stream's one response form: a client whose
// Accept excludes NDJSON gets 406 up front, not a stream it cannot
// parse.
func batchAcceptable(r *http.Request) error {
	accept := r.Header.Get("Accept")
	if strings.TrimSpace(accept) == "" {
		return nil
	}
	for _, rng := range strings.Split(accept, ",") {
		mediaType, _, _ := strings.Cut(rng, ";")
		switch strings.ToLower(strings.TrimSpace(mediaType)) {
		case "*/*", "application/*", ContentTypeNDJSON:
			return nil
		}
	}
	return &apiError{status: http.StatusNotAcceptable, code: CodeNotAcceptable,
		msg: fmt.Sprintf("batch responses are %s; Accept %q excludes it", ContentTypeNDJSON, accept)}
}

func (s *Server) handleScheduleBatch(w http.ResponseWriter, r *http.Request) {
	s.requests[epBatch].Add(1)
	if err := checkRequestContentType(r); err != nil {
		writeError(w, err)
		return
	}
	if err := batchAcceptable(r); err != nil {
		writeError(w, err)
		return
	}
	var req BatchScheduleRequest
	if err := decodeJSON(r, &req); err != nil {
		writeError(w, err)
		return
	}
	if len(req.Requests) == 0 {
		writeError(w, badRequest("empty batch: requests must hold at least one schedule request"))
		return
	}
	if len(req.Requests) > maxBatchItems {
		writeError(w, badRequest("batch has %d items; limit %d", len(req.Requests), maxBatchItems))
		return
	}

	h := w.Header()
	h.Set("Content-Type", ContentTypeNDJSON)
	h.Set("Vary", "Accept")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)

	// In-flight items are bounded by the worker count: each occupies at
	// most one worker, and extra submitters would only camp on the
	// queue that synchronous requests share.
	limit := s.opts.Workers
	if limit > len(req.Requests) {
		limit = len(req.Requests)
	}

	ctx := r.Context()
	var (
		mu      sync.Mutex
		wg      sync.WaitGroup
		written int64
		sem     = make(chan struct{}, limit)
	)
	emit := func(item BatchItem) {
		line, err := json.Marshal(item)
		if err != nil {
			return
		}
		mu.Lock()
		defer mu.Unlock()
		n1, _ := w.Write(line)
		n2, _ := w.Write([]byte{'\n'})
		written += int64(n1 + n2)
		if flusher != nil {
			// Flush per line: the stream's whole point is that a client
			// sees item k's answer while item k+1 still computes.
			flusher.Flush()
		}
	}
	for i := range req.Requests {
		if ctx.Err() != nil {
			break // client gone; stop feeding the queue
		}
		wg.Add(1)
		sem <- struct{}{}
		go func(index int, item ScheduleRequest) {
			defer wg.Done()
			defer func() { <-sem }()
			out := s.batchOne(ctx, index, &item)
			if ctx.Err() == nil {
				emit(out)
			}
		}(i, req.Requests[i])
	}
	wg.Wait()
	s.respCount[encJSON][compIdentity].Add(1)
	s.respBytes[encJSON][compIdentity].Add(written)
}

// batchOne answers a single batch item through the shared memoization
// path. Failures become the item's structured error — never the
// stream's: one bad request in a batch must not kill the other 999.
func (s *Server) batchOne(ctx context.Context, index int, req *ScheduleRequest) BatchItem {
	j, err := s.scheduleJob(ctx, req)
	if err == nil {
		var (
			raw    []byte
			cached bool
		)
		raw, cached, err = s.memoized(ctx, j, encJSON, true)
		if err == nil {
			return BatchItem{Index: index, Key: j.key, Cached: cached, Result: raw}
		}
	}
	ae, ok := err.(*apiError)
	if !ok {
		ae = &apiError{status: http.StatusInternalServerError, msg: err.Error()}
	}
	return BatchItem{Index: index, Error: &ErrorDetail{Code: ae.Code(), Message: ae.msg}}
}
