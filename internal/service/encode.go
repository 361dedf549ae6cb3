package service

import (
	"encoding/json"
	"strconv"
	"sync"
)

// marshalResult returns doc's JSON, byte for byte json.Marshal's. A
// schedule result, whose matrix echo and phases are most of a miss's
// work outside the scheduler, is written by hand (appendJSON) into a
// pooled buffer and copied out at its exact length, so the cached value
// carries no slack; a simulate result, a few scalars, is marshaled.
func marshalResult(doc wireDoc) ([]byte, error) {
	res, ok := doc.(*ScheduleResult)
	if !ok {
		return json.Marshal(doc)
	}
	bp := resultBuf.Get().(*[]byte)
	buf := res.appendJSON((*bp)[:0])
	value := make([]byte, len(buf))
	copy(value, buf)
	if cap(buf) <= maxPooledBody {
		*bp = buf
		resultBuf.Put(bp)
	}
	return value, nil
}

// resultBuf recycles marshalResult's buffers; one grown past
// maxPooledBody is dropped, as releaseBody drops a large body.
var resultBuf = sync.Pool{New: func() any { return new([]byte) }}

// appendJSON appends json.Marshal's encoding of res to dst
// (FuzzScheduleResultJSON holds the two equal).
func (res *ScheduleResult) appendJSON(dst []byte) []byte {
	dst = append(dst, `{"chosen":`...)
	dst = appendJSONString(dst, res.Chosen)
	dst = append(dst, `,"topology":`...)
	dst = appendJSONString(dst, res.Topology)
	if res.Workload != "" {
		dst = append(dst, `,"workload":`...)
		dst = appendJSONString(dst, res.Workload)
	}
	if mj := res.Matrix; mj != nil {
		dst = append(dst, `,"matrix":{"n":`...)
		dst = strconv.AppendInt(dst, int64(mj.N), 10)
		dst = append(dst, `,"messages":`...)
		dst = appendJSONTriples(dst, mj.Messages)
		dst = append(dst, '}')
	}
	dst = append(dst, `,"seed":`...)
	dst = strconv.AppendInt(dst, res.Seed, 10)
	dst = append(dst, `,"link_free":`...)
	dst = strconv.AppendBool(dst, res.LinkFree)
	dst = append(dst, `,"schedule":`...)
	sj := res.Schedule
	if sj == nil {
		dst = append(dst, "null"...)
		return append(dst, '}')
	}
	dst = append(dst, `{"algorithm":`...)
	dst = appendJSONString(dst, sj.Algorithm)
	dst = append(dst, `,"n":`...)
	dst = strconv.AppendInt(dst, int64(sj.N), 10)
	dst = append(dst, `,"ops":`...)
	dst = strconv.AppendInt(dst, sj.Ops, 10)
	dst = append(dst, `,"phases":`...)
	if sj.Phases == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for k, p := range sj.Phases {
			if k > 0 {
				dst = append(dst, ',')
			}
			dst = appendJSONTriples(dst, p)
		}
		dst = append(dst, ']')
	}
	return append(dst, "}}"...)
}

// appendJSONTriples appends json.Marshal's encoding of t.
func appendJSONTriples(dst []byte, t WireTriples) []byte {
	if t == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, '[')
	for k, tr := range t {
		if k > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, '[')
		dst = strconv.AppendInt(dst, tr[0], 10)
		dst = append(dst, ',')
		dst = strconv.AppendInt(dst, tr[1], 10)
		dst = append(dst, ',')
		dst = strconv.AppendInt(dst, tr[2], 10)
		dst = append(dst, ']')
	}
	return append(dst, ']')
}

// appendJSONString appends json.Marshal's encoding of s: quoted as it
// stands when every byte is printable ASCII that needs no escape, and
// by json.Marshal itself otherwise (escapes, HTML-safe <, > and &,
// control bytes, invalid UTF-8, U+2028 and U+2029).
func appendJSONString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < ' ' || c > '~' || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			quoted, _ := json.Marshal(s) // a string always marshals
			return append(dst, quoted...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}
