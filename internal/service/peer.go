package service

// Fleet mode: the service side of internal/fleet. Three pieces live
// here — the internal cache-record endpoints peers talk to, the
// peer-fill step the memoization miss path runs before computing, and
// the shard-balance gauge of /metrics.
//
// The wire unit is the USCR record from persist.go, verbatim: the
// same checksummed, self-describing framing the disk store writes is
// what GET /v1/cache/{key} serves and PUT /v1/cache/{key} accepts, so
// an on-disk record file can be shipped to a peer byte-for-byte with
// no re-marshaling, and every fetched record is CRC-validated (and
// key-matched) before a single byte of it enters the cache.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"

	"unsched/internal/fleet"
	"unsched/internal/frame"
)

// ContentTypeCacheRecord labels the USCR record bytes exchanged by
// the internal /v1/cache/{key} endpoints.
const ContentTypeCacheRecord = "application/x-unsched-cache-record"

// newFleetLayer builds the fleet from the service options: nil (solo)
// when no peers are configured, an error when the membership is
// malformed — a misconfigured fleet must fail startup loudly, not
// silently run solo. The Encode/Decode hooks wire the fleet's opaque
// record bytes to the USCR codec, key match included.
func newFleetLayer(opts Options) (*fleet.Fleet, error) {
	if len(opts.Peers) == 0 {
		return nil, nil
	}
	if opts.SelfURL == "" {
		return nil, errors.New("service: Peers configured without SelfURL (rendezvous ownership needs this daemon's own base URL)")
	}
	return fleet.New(fleet.Options{
		Self:   opts.SelfURL,
		Peers:  opts.Peers,
		Budget: opts.PeerBudget,
		Encode: encodeRecord,
		Decode: func(key string, body []byte) ([]byte, error) {
			k, value, err := decodeRecord(body)
			if err != nil {
				return nil, err
			}
			if k != key {
				return nil, frame.ErrKey
			}
			if !json.Valid(value) {
				return nil, errRecordJSON
			}
			return value, nil
		},
	})
}

// handleCacheGet serves the raw canonical USCR record for a key: from
// the memoization cache (framed on the fly) or, failing that, the
// disk store's record file verbatim — in both cases bypassing JSON
// marshaling entirely. This is the internal endpoint peer fill reads;
// like /metrics, deployments should keep it off the public edge.
func (s *Server) handleCacheGet(w http.ResponseWriter, r *http.Request) {
	s.requests[epCache].Add(1)
	key := r.PathValue("key")
	if !validRecordKey(key) {
		// Invalid keys 404 rather than 400: the distinction would leak
		// nothing useful, and probes treat any non-200 as a miss/error.
		writeError(w, &apiError{status: http.StatusNotFound, msg: "no record for key"})
		return
	}
	var rec []byte
	if value, ok := s.cache.get(key); ok {
		var err error
		if rec, err = encodeRecord(key, value); err != nil {
			writeError(w, err)
			return
		}
	} else if s.disk != nil {
		rec = s.disk.readRecord(key)
	}
	if rec == nil {
		writeError(w, &apiError{status: http.StatusNotFound, msg: "no record for key"})
		return
	}
	h := w.Header()
	h.Set("Content-Type", ContentTypeCacheRecord)
	if acceptsGzip(r) {
		h.Set("Content-Encoding", "gzip")
		w.WriteHeader(http.StatusOK)
		gzipTo(w, rec)
		return
	}
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(rec)
}

// handleCachePut accepts a write-behind push: a USCR record computed
// by a peer for a key this daemon owns. The record must decode, pass
// its CRC, embed the key it was addressed to, and carry a JSON value;
// anything else is rejected before touching the cache. The JSON check
// matters beyond hygiene: hits splice cached results into the response
// envelope verbatim, so a non-JSON value would be served as a 200 with
// an invalid body.
func (s *Server) handleCachePut(w http.ResponseWriter, r *http.Request) {
	s.requests[epCache].Add(1)
	key := r.PathValue("key")
	if !validRecordKey(key) {
		writeError(w, badRequest("bad record key"))
		return
	}
	body, err := readBody(r, maxRecordBytes)
	if err != nil {
		writeError(w, err)
		return
	}
	defer releaseBody(body)
	k, value, err := decodeRecord(body.Bytes())
	if err != nil {
		writeError(w, badRequest("bad record: %v", err))
		return
	}
	if k != key {
		writeError(w, badRequest("record key %s does not match path key %s", k, key))
		return
	}
	if !json.Valid(value) {
		writeError(w, badRequest("bad record: %v", errRecordJSON))
		return
	}
	// A pushed record is a computed response this daemon owns: memoize
	// it and (when persistence is on) write it through to disk, exactly
	// as if computed locally. The value is cloned out of the pooled
	// body buffer, which the next request reuses.
	s.cachePut(key, bytes.Clone(value))
	w.WriteHeader(http.StatusNoContent)
}

// readRecord returns the raw framed record bytes for key, or nil.
// The bytes are decode-validated before serving — a corrupt file must
// read as a miss here, not ship to a peer that would reject it anyway.
func (ds *diskStore) readRecord(key string) []byte {
	raw, err := os.ReadFile(filepath.Join(ds.dir, key+recordSuffix))
	if err != nil || len(raw) > maxRecordBytes {
		return nil
	}
	k, _, err := decodeRecord(raw)
	if err != nil || k != key {
		return nil
	}
	return raw
}

// peerFill serves a cache miss of key from its fleet owner: when
// fleet mode is on and this daemon does not own the key, the owner
// (hedged to the next-ranked peer) is asked for the canonical record
// under the caller's single-flight slot. The fleet's Decode hook has
// already rejected any record that is corrupt, keyed elsewhere, or not
// JSON. The fetched JSON is memoized memory-only — the owner already
// persists it; re-persisting here would double the fleet's disk
// footprint — and returned for the caller to render. ok=false on any
// failure: the caller computes locally, so a peer can never make this
// daemon unavailable.
func (s *Server) peerFill(ctx context.Context, key string) ([]byte, bool) {
	if s.fleet == nil || s.fleet.Owns(key) {
		return nil, false
	}
	value, ok := s.fleet.Fetch(ctx, key)
	if ok {
		s.cache.put(key, value)
	}
	return value, ok
}

// peerOwnedKeys is the fleet's shard-balance gauge: how many of this
// daemon's cached keys each member owns. It has no solo shape, so a
// solo daemon has no samples.
func (s *Server) peerOwnedKeys() []sample {
	if s.fleet == nil {
		return nil
	}
	members := s.fleet.Members()
	counts := make(map[string]int, len(members))
	for _, key := range s.cache.keys() {
		counts[s.fleet.Owner(key)]++
	}
	out := make([]sample, len(members))
	for i, m := range members {
		out[i] = sample{fmt.Sprintf("{peer=%q}", m), counts[m]}
	}
	return out
}
