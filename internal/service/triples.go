package service

import (
	"bytes"
	"errors"
	"fmt"
)

// WireTriples is a list of [src, dst, bytes] triples: the messages of a
// WireMatrix, or one schedule phase. It is the bulk of every request
// that ships a matrix or a schedule, so it decodes by hand instead of
// through encoding/json's reflection, which cost more than the rest of
// a cache hit together.
//
// Any [][3]int64 converts to it, and it encodes exactly as one.
type WireTriples [][3]int64

var errTripleSyntax = errors.New("triples: malformed JSON")

// UnmarshalJSON decodes the triples with the semantics encoding/json
// gives a plain [][3]int64 (FuzzWireTriples holds the two equal):
//
//   - null is a nil slice, [] an empty non-nil one;
//   - a null element, a null inside a triple, and a short triple all
//     leave zeros; elements past the third are skipped, whatever they
//     hold;
//   - anything else in the first three slots — a fraction, an exponent,
//     an integer outside int64, a string, a bool, an object or an
//     array — is an error, as is an element that is not an array.
//
// encoding/json validates the whole document before it calls an
// Unmarshaler, so b is well-formed JSON; the scan below stays total
// anyway and answers malformed input with an error, never a panic. The
// read offset is threaded through plain functions, not kept in a
// scanner struct, so the hot loops hold it in a register.
func (t *WireTriples) UnmarshalJSON(b []byte) error {
	i := jsonSpace(b, 0)
	if jsonNull(b, i) {
		*t = nil
		return jsonEnd(b, i+4)
	}
	if i == len(b) || b[i] != '[' {
		return fmt.Errorf("triples: want an array of [src, dst, bytes], got %s", jsonKind(b, i))
	}
	// Every triple opens one bracket, so counting them sizes the slice
	// exactly for any real request. The cap keeps a body of nested
	// brackets from reserving more than its own element count allows:
	// the smallest element, "[],", is three bytes.
	n := bytes.Count(b, []byte{'['}) - 1
	if limit := len(b) / 3; n > limit {
		n = limit
	}
	out := make(WireTriples, 0, n)
	if i = jsonSpace(b, i+1); i < len(b) && b[i] == ']' {
		*t = out
		return jsonEnd(b, i+1)
	}
	for {
		var tr [3]int64
		var err error
		if i, err = decodeTriple(b, i, len(out), &tr); err != nil {
			return err
		}
		out = append(out, tr)
		switch i = jsonSpace(b, i); {
		case i < len(b) && b[i] == ',':
			i = jsonSpace(b, i+1)
		case i < len(b) && b[i] == ']':
			*t = out
			return jsonEnd(b, i+1)
		default:
			return errTripleSyntax
		}
	}
}

// decodeTriple decodes element k, which starts at b[i], into tr: null,
// or an array whose first three slots are integers or null. It returns
// the offset just past the element.
func decodeTriple(b []byte, i, k int, tr *[3]int64) (int, error) {
	if i == len(b) || b[i] != '[' {
		if jsonNull(b, i) {
			return i + 4, nil
		}
		return 0, fmt.Errorf("triples: element %d: want an array, got %s", k, jsonKind(b, i))
	}
	if i = jsonSpace(b, i+1); i < len(b) && b[i] == ']' {
		return i + 1, nil
	}
	for slot := 0; ; slot++ {
		if slot < len(tr) {
			v, next, ok := jsonInt64(b, i)
			if !ok {
				return 0, fmt.Errorf("triples: element %d, slot %d: want an int64 integer, got %s", k, slot, jsonKind(b, i))
			}
			tr[slot], i = v, next
		} else if i = jsonSkip(b, i); i < 0 {
			return 0, errTripleSyntax
		}
		switch i = jsonSpace(b, i); {
		case i < len(b) && b[i] == ',':
			i = jsonSpace(b, i+1)
		case i < len(b) && b[i] == ']':
			return i + 1, nil
		default:
			return 0, errTripleSyntax
		}
	}
}

// jsonInt64 reads null (as 0) or a JSON integer in int64 range at b[i],
// returning the value and the offset past it. A number with a fraction
// or an exponent, and anything else, reports false.
func jsonInt64(b []byte, i int) (int64, int, bool) {
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	digits := i
	var u uint64
	for ; i < len(b) && b[i]-'0' <= 9; i++ {
		u = u*10 + uint64(b[i]-'0')
	}
	if i == digits {
		if neg || !jsonNull(b, i) {
			return 0, 0, false
		}
		return 0, i + 4, true
	}
	// JSON integers have no leading zeros, so more than 19 digits is
	// past int64, and 19 cannot overflow u. The magnitude may reach
	// 1<<63 only as MinInt64.
	const limit = uint64(1) << 63
	if i-digits > 19 || u > limit || (u == limit && !neg) ||
		(i < len(b) && (b[i] == '.' || b[i] == 'e' || b[i] == 'E')) {
		return 0, 0, false
	}
	if neg {
		return -int64(u), i, true // -int64(1<<63) wraps to MinInt64, as intended
	}
	return int64(u), i, true
}

// jsonSkip passes over one JSON value of any type at b[i], up to the
// comma or bracket that ends it at its own depth, and returns that
// offset: -1 when the input ends first.
func jsonSkip(b []byte, i int) int {
	depth := 0
	for ; i < len(b); i++ {
		switch b[i] {
		case '"':
			for i++; i < len(b) && b[i] != '"'; i++ {
				if b[i] == '\\' {
					i++
				}
			}
		case '[', '{':
			depth++
		case ']', '}':
			if depth == 0 {
				return i
			}
			depth--
		case ',':
			if depth == 0 {
				return i
			}
		}
	}
	return -1
}

// jsonSpace returns the offset of the first non-whitespace byte at or
// after b[i].
func jsonSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\n' || b[i] == '\r') {
		i++
	}
	return i
}

// jsonNull reports whether the literal null starts at b[i].
func jsonNull(b []byte, i int) bool {
	return bytes.HasPrefix(b[i:], []byte("null"))
}

// jsonEnd checks that nothing but whitespace follows offset i.
func jsonEnd(b []byte, i int) error {
	if jsonSpace(b, i) != len(b) {
		return errTripleSyntax
	}
	return nil
}

// jsonKind names the JSON value starting at b[i], for errors.
func jsonKind(b []byte, i int) string {
	if i >= len(b) {
		return "nothing"
	}
	switch c := b[i]; {
	case c == '"':
		return "a string"
	case c == 't' || c == 'f':
		return "a bool"
	case c == '{':
		return "an object"
	case c == '[':
		return "an array"
	case c == '-' || c >= '0' && c <= '9':
		return "a non-integer or out-of-range number"
	}
	return "malformed JSON"
}
