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
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"slices"
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

// envelope is a 200 response body as the three parts the wire writes in
// order: the framing before the memoized payload, the payload, and the
// framing after it. The payload is the cached slice itself, so an
// identity response writes it without a copy.
type envelope [3][]byte

var jsonEnvelopeTail = []byte{'}'}

// newEnvelope frames payload, key's memoized document in encoding enc.
//
// The JSON envelope is the Envelope document, spliced by hand so a hit
// costs no json.Marshal validating re-scan of the result. The result
// goes out verbatim, which is safe because every cached JSON result is
// valid: computed here by json.Marshal, or checked with json.Valid
// where a record from a peer or the disk enters the cache. Keys are hex
// content hashes and need no escaping.
func newEnvelope(enc encoding, key string, cached bool, payload []byte) envelope {
	head := make([]byte, 0, len(key)+40) // 40 covers either envelope's framing
	if enc == encBinary {
		head = append(head, binaryWireMagic[:]...)
		head = append(head, binaryWireVersion)
		var flags byte
		if cached {
			flags |= 1
		}
		head = append(head, flags)
		head = comm.AppendUvarint(head, uint64(len(key)))
		return envelope{append(head, key...), payload, nil}
	}
	head = append(head, `{"key":"`...)
	head = append(head, key...)
	head = append(head, `","cached":`...)
	head = strconv.AppendBool(head, cached)
	return envelope{append(head, `,"result":`...), payload, jsonEnvelopeTail}
}

// size is the envelope's length in bytes.
func (e *envelope) size() int64 {
	return int64(len(e[0]) + len(e[1]) + len(e[2]))
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
	dst = slices.Grow(dst, res.binarySizeHint())
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

// binarySizeHint is the room to reserve for res's binary payload,
// estimated from its strings and its message and phase counts as
// comm.BinarySizeHint estimates a matrix block, so the payload renders
// into one buffer in the common case.
func (res *ScheduleResult) binarySizeHint() int {
	size := 64 + len(res.Chosen) + len(res.Topology) + len(res.Workload)
	if mj := res.Matrix; mj != nil {
		size += binary.MaxVarintLen64 + comm.BinarySizeHint(mj.N, len(mj.Messages))
	}
	if sj := res.Schedule; sj != nil {
		// A phase's count, then a source delta, a destination and a
		// size per message: 1, 2 and 3 bytes for the paper's sizes.
		size += len(sj.Algorithm)
		for _, p := range sj.Phases {
			size += 2 + 6*len(p)
		}
	}
	return size
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

// appendWireMatrix writes a length-prefixed comm binary matrix block,
// encoded from the triples without building the dense matrix. The wire
// matrix is a workload echo: NewWireMatrix made it from the computed
// matrix, or decodeDoc checked it when it re-typed the cached JSON.
//
// The block is encoded in place, behind room for the longest length
// prefix, and moved down over the room its prefix leaves.
func appendWireMatrix(dst []byte, mj *WireMatrix) []byte {
	const room = binary.MaxVarintLen64
	start := len(dst)
	dst = slices.Grow(dst, room+comm.BinarySizeHint(mj.N, len(mj.Messages)))
	dst = comm.AppendBinaryTriples(dst[:start+room], mj.N, mj.Messages)
	block := len(dst) - start - room
	k := binary.PutUvarint(dst[start:], uint64(block))
	copy(dst[start+k:], dst[start+room:])
	return dst[:start+k+block]
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

// gzipTo writes the gzip form of parts, concatenated, to w at the
// default level and returns the compressed bytes written. Deflate
// output does not depend on how its input is split across writes, so
// the parts are the same body as their concatenation.
func gzipTo(w io.Writer, parts ...[]byte) int64 {
	cw := &countingWriter{w: w}
	gz := gzipPool.Get().(*gzip.Writer)
	gz.Reset(cw)
	for _, p := range parts {
		_, _ = gz.Write(p)
	}
	_ = gz.Close() // the client is gone if either fails; nothing to do
	gzipPool.Put(gz)
	return cw.n
}

// countingWriter tallies the bytes that actually reach the wire, so
// the bytes-saved metrics can compare them with the logical body size.
type countingWriter struct {
	w io.Writer
	n int64
}

func (cw *countingWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.n += int64(n)
	return n, err
}

// writeNegotiated answers 200 with key's memoized payload in cn's
// envelope and compression, and records the encoding/bytes metrics.
// After the headers it writes one of three bodies:
//
//   - a cache hit's gzip body, compressed on the key's first gzip hit
//     in cn's encoding and kept in its cache entry (hitGzip);
//   - a miss's cached:false envelope, compressed on the fly;
//   - the identity envelope, part by part, so the payload is not
//     copied.
func (s *Server) writeNegotiated(w http.ResponseWriter, cn conneg, key string, cached bool, payload []byte) {
	env := newEnvelope(cn.enc, key, cached, payload)
	var kept []byte
	if cn.gzip && cached {
		kept = s.hitGzip(key, cn.enc, &env)
	}
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
	var n int64
	switch {
	case kept != nil:
		k, _ := w.Write(kept) // the client is gone if this fails; nothing to do
		n = int64(k)
	case cn.gzip:
		n = gzipTo(w, env[:]...)
	default:
		for _, part := range env {
			k, _ := w.Write(part)
			n += int64(k)
		}
	}
	if cn.gzip {
		if saved := env.size() - n; saved > 0 {
			s.bytesSaved.Add(saved)
		}
	}
	s.respCount[cn.enc][comp].Add(1)
	s.respBytes[cn.enc][comp].Add(n)
}

// hitGzip returns the gzip body of env, a cache hit's envelope for key
// in encoding enc: the body kept in key's entry, or a fresh one, which
// is then kept there. A hit's envelope depends only on the key, the
// encoding and the payload, so the kept body is what compressing the
// envelope again would produce. The payload is the entry's JSON value
// or its kept binary payload; keep drops the body if a put replaced
// the value meanwhile.
func (s *Server) hitGzip(key string, enc encoding, env *envelope) []byte {
	if gz := s.cache.rendering(key, env[1], form(enc)); gz != nil {
		return gz
	}
	var buf bytes.Buffer
	gzipTo(&buf, env[:]...)
	gz := bytes.Clone(buf.Bytes()) // without the buffer's growth slack
	s.cache.keep(key, env[1], form(enc), gz)
	return gz
}

// writeNotModified answers an If-None-Match revalidation with 304 and
// zero body bytes. The cached representation's size, when the cache
// still holds it (for binary, when the entry keeps its binary payload),
// counts as bytes saved.
func (s *Server) writeNotModified(w http.ResponseWriter, cn conneg, key string) {
	h := w.Header()
	h.Set("Vary", "Accept, Accept-Encoding")
	h.Set("ETag", etagFor(key, cn.enc))
	w.WriteHeader(http.StatusNotModified)
	s.http304.Add(1)
	if value, ok := s.cache.get(key); ok {
		if cn.enc == encBinary {
			value = s.cache.rendering(key, value, formBinary)
		}
		s.bytesSaved.Add(int64(len(value)))
	}
}
