package service

// Response wire layer: content negotiation, the binary response
// envelope, gzip compression, and content-hash revalidation.
//
// Every synchronous response is a pure function of its content-hash
// key, which makes the key a perfect strong ETag: a client presenting
// If-None-Match with the current ETag can be answered 304 — zero body
// bytes — without touching the cache or the worker pool, because the
// bytes it holds cannot be stale. The response body itself is
// negotiated via Accept: application/json (the default, and the form
// that is memoized and persisted) or application/x-unsched-binary, a
// compact varint envelope over the comm binary matrix codec; either
// can be gzip-compressed via Accept-Encoding. An Accept header
// matching no supported encoding is answered 406 with a structured
// error, never silent JSON.

import (
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"

	"unsched/internal/comm"
)

// Content types the service speaks.
const (
	// ContentTypeJSON is the default response encoding and the only
	// accepted request body encoding.
	ContentTypeJSON = "application/json"
	// ContentTypeBinary is the compact binary response encoding: the
	// "USWR" envelope over varint-coded documents (matrices ride the
	// comm "USWM" codec). Request it with an Accept header.
	ContentTypeBinary = "application/x-unsched-binary"
	// ContentTypeNDJSON is the streaming batch response encoding: one
	// JSON document per line, flushed as each item finishes.
	ContentTypeNDJSON = "application/x-ndjson"
)

// encoding indexes the negotiated response encodings, including into
// the Server's per-encoding metrics arrays.
type encoding int

const (
	encJSON encoding = iota
	encBinary
	numEncodings
)

var encodingNames = [numEncodings]string{"json", "binary"}

// compression indexes Content-Encoding variants in the metrics arrays.
const (
	compIdentity = iota
	compGzip
	numCompressions
)

var compressionNames = [numCompressions]string{"identity", "gzip"}

// conneg is the outcome of negotiating one request's response form.
type conneg struct {
	enc  encoding
	gzip bool
}

// negotiateEncoding picks the response encoding from the Accept
// header. An absent or empty header, */*, application/* and
// application/json select JSON; application/x-unsched-binary selects
// the binary envelope; the first supported media range in header order
// wins. A header that matches no supported encoding is a 406 — the
// client asked for something this API cannot produce, and answering
// JSON anyway would hand an unparseable body to a strict client.
func negotiateEncoding(r *http.Request) (encoding, error) {
	accept := r.Header.Get("Accept")
	if strings.TrimSpace(accept) == "" {
		return encJSON, nil
	}
	for _, rng := range strings.Split(accept, ",") {
		mediaType, _, _ := strings.Cut(rng, ";")
		switch strings.ToLower(strings.TrimSpace(mediaType)) {
		case "*/*", "application/*", ContentTypeJSON:
			return encJSON, nil
		case ContentTypeBinary:
			return encBinary, nil
		}
	}
	return 0, &apiError{status: http.StatusNotAcceptable, code: CodeNotAcceptable,
		msg: fmt.Sprintf("no supported encoding in Accept %q (supported: %s, %s)",
			accept, ContentTypeJSON, ContentTypeBinary)}
}

// acceptsGzip reports whether the client's Accept-Encoding allows a
// gzip response body.
func acceptsGzip(r *http.Request) bool {
	for _, tok := range strings.Split(r.Header.Get("Accept-Encoding"), ",") {
		name, params, _ := strings.Cut(tok, ";")
		if strings.ToLower(strings.TrimSpace(name)) != "gzip" {
			continue
		}
		// "gzip;q=0" explicitly forbids it.
		q := strings.ReplaceAll(strings.ToLower(strings.TrimSpace(params)), " ", "")
		return q != "q=0" && q != "q=0.0" && q != "q=0.00" && q != "q=0.000"
	}
	return false
}

// checkRequestContentType gates request bodies to JSON: the request
// grammar is JSON-only (responses are what get big; see README), so a
// body labeled anything else is a 415 instead of a confusing JSON
// parse error.
func checkRequestContentType(r *http.Request) error {
	ct := r.Header.Get("Content-Type")
	if ct == "" {
		return nil
	}
	mediaType, _, _ := strings.Cut(ct, ";")
	switch strings.ToLower(strings.TrimSpace(mediaType)) {
	case ContentTypeJSON:
		return nil
	case "application/x-www-form-urlencoded":
		// curl -d's default label. Every release before the 415 gate
		// accepted it (the body still has to parse as JSON), so keep
		// the README's bare `curl -d '{...}'` working.
		return nil
	}
	return &apiError{status: http.StatusUnsupportedMediaType, code: CodeUnsupportedMedia,
		msg: fmt.Sprintf("request bodies must be %s, got %q", ContentTypeJSON, ct)}
}

// etagFor returns the strong ETag of the (key, encoding)
// representation. The two encodings are distinct representations of
// one resource, so each carries its own validator, as strong ETags
// require.
func etagFor(key string, enc encoding) string {
	if enc == encBinary {
		return `"` + key + `+b"`
	}
	return `"` + key + `"`
}

// ifNoneMatchHit reports whether the request's If-None-Match header
// matches etag. Comparison is weak (a W/ prefix is ignored): the
// response is a pure function of the key, so a client holding any
// prior representation of it holds current bytes.
func ifNoneMatchHit(r *http.Request, etag string) bool {
	header := r.Header.Get("If-None-Match")
	if header == "" {
		return false
	}
	for _, candidate := range strings.Split(header, ",") {
		candidate = strings.TrimSpace(candidate)
		candidate = strings.TrimPrefix(candidate, "W/")
		if candidate == etag || candidate == "*" {
			return true
		}
	}
	return false
}

// variantKey returns the cache key of the (key, encoding) variant.
// JSON is the canonical representation and keeps the bare content-hash
// key — that is what the disk store persists and what warm restart
// reloads; the binary rendering is cached in memory under a suffixed
// key and is always re-derivable from the JSON bytes.
func variantKey(key string, enc encoding) string {
	if enc == encBinary {
		return key + "#b"
	}
	return key
}

// --- binary response envelope ---------------------------------------

// Binary response layout (the "USWR" format, version 1):
//
//	offset size  field
//	0      4     magic "USWR"
//	4      1     format version (1)
//	5      1     flags (bit 0: served from cache)
//	6      ...   uvarint key length, then the key (hex content hash)
//	...    ...   document payload (see below)
//
// The payload starts with a one-byte document type (1 = schedule
// result, 2 = simulate result) followed by the document's fields.
// Strings are uvarint-length-prefixed; integers are uvarints (zigzag
// for signed); floats are 8-byte big-endian IEEE-754 bit patterns;
// matrices are uvarint-length-prefixed comm "USWM" blocks. The
// payload (type byte included) is what the binary response cache
// memoizes; the envelope prefix is stamped per response, because the
// cached flag differs between the first answer and replays.
const (
	binaryWireVersion = 1

	docTypeSchedule = 1
	docTypeSimulate = 2
)

var binaryWireMagic = [4]byte{'U', 'S', 'W', 'R'}

// appendBinaryEnvelope wraps an encoded document payload in the
// response envelope.
func appendBinaryEnvelope(dst []byte, key string, cached bool, payload []byte) []byte {
	dst = append(dst, binaryWireMagic[:]...)
	dst = append(dst, binaryWireVersion)
	var flags byte
	if cached {
		flags |= 1
	}
	dst = append(dst, flags)
	dst = comm.AppendUvarint(dst, uint64(len(key)))
	dst = append(dst, key...)
	return append(dst, payload...)
}

// appendJSONEnvelope writes the JSON response envelope around a cached
// result: the Envelope document, spliced by hand so a hit costs one copy
// of the result instead of json.Marshal's validating re-scan of it. The
// result goes out verbatim, which is safe because every cached JSON
// result is valid: computed here by json.Marshal, or checked with
// json.Valid where a record from a peer or the disk enters the cache.
// Keys are hex content hashes and need no escaping.
func appendJSONEnvelope(dst []byte, key string, cached bool, result []byte) []byte {
	dst = append(dst, `{"key":"`...)
	dst = append(dst, key...)
	dst = append(dst, `","cached":`...)
	dst = strconv.AppendBool(dst, cached)
	dst = append(dst, `,"result":`...)
	dst = append(dst, result...)
	return append(dst, '}')
}

func appendString(dst []byte, s string) []byte {
	dst = comm.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func appendBool(dst []byte, v bool) []byte {
	if v {
		return append(dst, 1)
	}
	return append(dst, 0)
}

func appendZigzag(dst []byte, v int64) []byte {
	return comm.AppendUvarint(dst, uint64(v<<1)^uint64(v>>63))
}

func appendFloat(dst []byte, v float64) []byte {
	return binary.BigEndian.AppendUint64(dst, math.Float64bits(v))
}

// wireDoc is a response document that knows its binary payload form.
// Both memoizable documents (schedule and simulate results) implement
// it, which is what lets the wire layer render a cached JSON document
// into the binary encoding without recomputing anything.
type wireDoc interface {
	appendBinaryPayload(dst []byte) []byte
}

func (res *ScheduleResult) appendBinaryPayload(dst []byte) []byte {
	dst = append(dst, docTypeSchedule)
	dst = appendString(dst, res.Chosen)
	dst = appendString(dst, res.Topology)
	dst = appendString(dst, res.Workload)
	dst = appendZigzag(dst, res.Seed)
	dst = appendBool(dst, res.LinkFree)
	if res.Matrix == nil {
		dst = appendBool(dst, false)
	} else {
		dst = appendBool(dst, true)
		dst = appendWireMatrix(dst, res.Matrix)
	}
	if res.Schedule == nil {
		return appendBool(dst, false)
	}
	dst = appendBool(dst, true)
	dst = appendString(dst, res.Schedule.Algorithm)
	dst = comm.AppendUvarint(dst, uint64(res.Schedule.N))
	dst = appendZigzag(dst, res.Schedule.Ops)
	dst = comm.AppendUvarint(dst, uint64(len(res.Schedule.Phases)))
	for _, p := range res.Schedule.Phases {
		dst = appendWirePhase(dst, p)
	}
	return dst
}

// appendWirePhase writes one phase column-oriented: every source
// (zigzag delta — the server emits them ascending, so these are tiny),
// then every destination, then every size. Grouping like values is
// what makes the gzip layer effective: the size column of a uniform
// workload is a run of identical varints, and the source deltas are
// almost all 1 — both nearly free after compression, leaving the
// irreducible destination entropy as the wire cost.
func appendWirePhase(dst []byte, p WirePhase) []byte {
	dst = comm.AppendUvarint(dst, uint64(len(p)))
	prev := int64(0)
	for _, msg := range p {
		dst = appendZigzag(dst, msg[0]-prev)
		prev = msg[0]
	}
	for _, msg := range p {
		dst = appendZigzag(dst, msg[1])
	}
	for _, msg := range p {
		dst = appendZigzag(dst, msg[2])
	}
	return dst
}

// appendWireMatrix writes a length-prefixed comm binary matrix block.
// The wire matrix is a workload echo: the service computed it, or
// decodeDoc checked it when it re-typed the cached JSON.
func appendWireMatrix(dst []byte, mj *WireMatrix) []byte {
	m := comm.MustNew(mj.N)
	for _, msg := range mj.Messages {
		m.Set(int(msg[0]), int(msg[1]), msg[2])
	}
	block := m.EncodeBinary()
	dst = comm.AppendUvarint(dst, uint64(len(block)))
	return append(dst, block...)
}

func (res *SimulateResult) appendBinaryPayload(dst []byte) []byte {
	dst = append(dst, docTypeSimulate)
	dst = appendString(dst, res.Topology)
	dst = appendString(dst, res.Protocol)
	dst = appendFloat(dst, res.MakespanUS)
	dst = comm.AppendUvarint(dst, uint64(res.Transfers))
	dst = comm.AppendUvarint(dst, uint64(res.Exchanges))
	return appendFloat(dst, res.ResourceWaitUS)
}

// --- binary response decoding ---------------------------------------

// BinaryResponse is a decoded binary response envelope: the memoized
// key, the cached flag, and exactly one of the document fields.
type BinaryResponse struct {
	Key      string
	Cached   bool
	Schedule *ScheduleResult
	Simulate *SimulateResult
}

var errBinaryResponse = errors.New("service: malformed binary response")

// binReader is a bounds-checked cursor over a binary payload; the
// first failed read poisons it, so decoders check err once at the end.
type binReader struct {
	b   []byte
	err error
}

func (r *binReader) fail() {
	if r.err == nil {
		r.err = errBinaryResponse
	}
}

func (r *binReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, k, err := comm.ReadUvarint(r.b)
	if err != nil {
		r.fail()
		return 0
	}
	r.b = r.b[k:]
	return v
}

func (r *binReader) zigzag() int64 {
	v := r.uvarint()
	return int64(v>>1) ^ -int64(v&1)
}

func (r *binReader) str() string {
	n := r.uvarint()
	if r.err != nil || uint64(len(r.b)) < n {
		r.fail()
		return ""
	}
	s := string(r.b[:n])
	r.b = r.b[n:]
	return s
}

func (r *binReader) bytes() []byte {
	n := r.uvarint()
	if r.err != nil || uint64(len(r.b)) < n {
		r.fail()
		return nil
	}
	b := r.b[:n]
	r.b = r.b[n:]
	return b
}

func (r *binReader) boolean() bool {
	if r.err != nil || len(r.b) < 1 {
		r.fail()
		return false
	}
	v := r.b[0]
	r.b = r.b[1:]
	if v > 1 {
		r.fail()
	}
	return v == 1
}

func (r *binReader) float() float64 {
	if r.err != nil || len(r.b) < 8 {
		r.fail()
		return 0
	}
	v := math.Float64frombits(binary.BigEndian.Uint64(r.b[:8]))
	r.b = r.b[8:]
	return v
}

// DecodeBinaryResponse parses a binary ("USWR") response body. The
// decoder is total: malformed input yields an error, never a panic.
// Clients (cmd/unsched -binary, the wireclient example) use it to read
// what the service serves under Accept: application/x-unsched-binary.
func DecodeBinaryResponse(b []byte) (*BinaryResponse, error) {
	if len(b) < 6 {
		return nil, errBinaryResponse
	}
	if [4]byte(b[:4]) != binaryWireMagic {
		return nil, errBinaryResponse
	}
	if b[4] != binaryWireVersion {
		return nil, fmt.Errorf("service: unsupported binary response version %d", b[4])
	}
	flags := b[5]
	r := &binReader{b: b[6:]}
	out := &BinaryResponse{Key: r.str(), Cached: flags&1 != 0}
	if r.err != nil || len(r.b) < 1 {
		return nil, errBinaryResponse
	}
	docType := r.b[0]
	r.b = r.b[1:]
	switch docType {
	case docTypeSchedule:
		out.Schedule = decodeSchedulePayload(r)
	case docTypeSimulate:
		out.Simulate = &SimulateResult{
			Topology:       r.str(),
			Protocol:       r.str(),
			MakespanUS:     r.float(),
			Transfers:      int(r.uvarint()),
			Exchanges:      int(r.uvarint()),
			ResourceWaitUS: r.float(),
		}
		if out.Simulate != nil {
			out.Simulate.MakespanMS = out.Simulate.MakespanUS / 1000
		}
	default:
		return nil, fmt.Errorf("service: unknown binary document type %d", docType)
	}
	if r.err != nil {
		return nil, r.err
	}
	if len(r.b) != 0 {
		return nil, errBinaryResponse
	}
	return out, nil
}

func decodeSchedulePayload(r *binReader) *ScheduleResult {
	res := &ScheduleResult{
		Chosen:   r.str(),
		Topology: r.str(),
		Workload: r.str(),
		Seed:     r.zigzag(),
		LinkFree: r.boolean(),
	}
	if r.boolean() { // matrix present
		block := r.bytes()
		if r.err == nil {
			m, err := comm.DecodeMatrixBinary(block)
			if err != nil {
				r.fail()
			} else {
				res.Matrix = NewWireMatrix(m)
			}
		}
	}
	if !r.boolean() { // no schedule (AC never reaches here, but stay total)
		return res
	}
	sj := &WireSchedule{
		Algorithm: r.str(),
		N:         int(r.uvarint()),
		Ops:       r.zigzag(),
	}
	phases := r.uvarint()
	if r.err != nil || phases > uint64(len(r.b)) {
		r.fail()
		return res
	}
	sj.Phases = make([]WirePhase, 0, phases)
	for p := uint64(0); p < phases && r.err == nil; p++ {
		count := r.uvarint()
		if r.err != nil || count > uint64(len(r.b)) {
			r.fail()
			return res
		}
		phase := make(WirePhase, count)
		prev := int64(0)
		for e := range phase {
			prev += r.zigzag()
			phase[e][0] = prev
		}
		for e := range phase {
			phase[e][1] = r.zigzag()
		}
		for e := range phase {
			phase[e][2] = r.zigzag()
		}
		sj.Phases = append(sj.Phases, phase)
	}
	res.Schedule = sj
	return res
}

// --- response writing -----------------------------------------------

// gzipPool recycles gzip writers: compressing every large response
// must not allocate a fresh 256 KB deflate state per request.
var gzipPool = sync.Pool{
	New: func() any { return gzip.NewWriter(nil) },
}

// countingWriter tallies the bytes that actually reach the wire, so
// the bytes-saved metrics can compare them with the logical body size.
type countingWriter struct {
	w http.ResponseWriter
	n int64
}

func (cw *countingWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.n += int64(n)
	return n, err
}

// writeNegotiated writes body (the complete response document in cn's
// encoding) with the negotiated headers and compression, and records
// the encoding/bytes metrics. body is the logical representation;
// what hits the wire may be its gzip form.
func (s *Server) writeNegotiated(w http.ResponseWriter, cn conneg, key string, body []byte) {
	h := w.Header()
	h.Set("Vary", "Accept, Accept-Encoding")
	h.Set("ETag", etagFor(key, cn.enc))
	if cn.enc == encBinary {
		h.Set("Content-Type", ContentTypeBinary)
	} else {
		h.Set("Content-Type", ContentTypeJSON)
	}
	comp := compIdentity
	if cn.gzip {
		comp = compGzip
		h.Set("Content-Encoding", "gzip")
	}
	w.WriteHeader(http.StatusOK)
	cw := &countingWriter{w: w}
	if cn.gzip {
		gz := gzipPool.Get().(*gzip.Writer)
		gz.Reset(cw)
		_, _ = gz.Write(body)
		_ = gz.Close() // the client is gone if either fails; nothing to do
		gzipPool.Put(gz)
		if saved := int64(len(body)) - cw.n; saved > 0 {
			s.bytesSaved.Add(saved)
		}
	} else {
		_, _ = cw.Write(body)
	}
	s.respCount[cn.enc][comp].Add(1)
	s.respBytes[cn.enc][comp].Add(cw.n)
}

// writeNotModified answers an If-None-Match revalidation with 304 and
// zero body bytes. The cached representation's size, when the cache
// still holds it, counts as bytes saved.
func (s *Server) writeNotModified(w http.ResponseWriter, cn conneg, key string) {
	h := w.Header()
	h.Set("Vary", "Accept, Accept-Encoding")
	h.Set("ETag", etagFor(key, cn.enc))
	w.WriteHeader(http.StatusNotModified)
	s.http304.Add(1)
	if raw, ok := s.cache.get(variantKey(key, cn.enc)); ok {
		s.bytesSaved.Add(int64(len(raw)))
	}
}
