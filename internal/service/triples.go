package service

import (
	"bytes"
	"encoding/json"
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

// UnmarshalJSON decodes the triples with the semantics encoding/json
// gives a plain [][3]int64 (FuzzWireTriples holds the two equal):
//
//   - null is a nil slice, [] an empty non-nil one;
//   - a null element, a null inside a triple, and a short triple all
//     leave zeros; elements past the third are skipped, whatever valid
//     JSON they hold;
//   - anything else in the first three slots — a fraction, an exponent,
//     an integer outside int64, a string, a bool, an object or an
//     array — is an error, as is an element that is not an array.
//
// It is a thin wrapper over decodeTriples, the scan the request
// decoder (decodeStrict) runs over the same bytes inside a body.
func (t *WireTriples) UnmarshalJSON(b []byte) error {
	// b is the value's own bytes, so the list is sized before it
	// decodes.
	out, i, err := decodeTriples(b, jsonSpace(b, 0), 0, make(WireTriples, 0, tripleCap(b)))
	if err != nil {
		return err
	}
	if i = jsonSpace(b, i); i != len(b) {
		return syntaxError(b, i)
	}
	*t = out
	return nil
}

// tripleCap returns the capacity to reserve for the triples list b
// holds. Every triple opens one bracket, so counting them sizes the
// list exactly for any real request. The cap keeps a list of nested
// brackets from reserving more than its own element count allows: the
// smallest element, "[],", is three bytes.
func tripleCap(b []byte) int {
	return max(min(bytes.Count(b, []byte{'['})-1, len(b)/3), 0)
}

// decodeTriples decodes the triples value at b[i], which depth JSON
// containers enclose: null, or an array of triples. It appends the
// triples to dst[:0] and returns the list, nil for null, and the offset
// just past the value.
//
// Nothing has validated b, so the scan checks every byte it passes and
// answers malformed input with an error, never a panic. The read offset
// is threaded through plain functions, not kept in a scanner struct, so
// the hot loops hold it in a register.
func decodeTriples(b []byte, i, depth int, dst WireTriples) (WireTriples, int, error) {
	if jsonNull(b, i) {
		return nil, i + 4, nil
	}
	if i == len(b) || b[i] != '[' {
		return nil, 0, fmt.Errorf("triples: want an array of [src, dst, bytes], got %s", jsonKind(b, i))
	}
	if i = jsonSpace(b, i+1); i < len(b) && b[i] == ']' {
		return WireTriples{}, i + 1, nil
	}
	out := dst[:0]
	for {
		var tr [3]int64
		var err error
		if i, err = decodeTriple(b, i, depth+1, len(out), &tr); err != nil {
			return nil, 0, err
		}
		out = append(out, tr)
		switch i = jsonSpace(b, i); {
		case i < len(b) && b[i] == ',':
			i = jsonSpace(b, i+1)
		case i < len(b) && b[i] == ']':
			return out, i + 1, nil
		default:
			return nil, 0, syntaxError(b, i)
		}
	}
}

// decodeTriple decodes element k, which starts at b[i] inside depth
// containers, into tr: null, or an array whose first three slots are
// integers or null. It returns the offset just past the element.
func decodeTriple(b []byte, i, depth, k int, tr *[3]int64) (int, error) {
	*tr = [3]int64{}
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
		} else {
			// encoding/json skips the slot, but only after it checked
			// the value's syntax and depth with the rest of the body.
			end, nesting := jsonSkip(b, i)
			if end < 0 || depth+1+nesting > maxNestingDepth || !json.Valid(b[i:end]) {
				return 0, fmt.Errorf("triples: element %d, slot %d: malformed JSON", k, slot)
			}
			i = end
		}
		switch i = jsonSpace(b, i); {
		case i < len(b) && b[i] == ',':
			i = jsonSpace(b, i+1)
		case i < len(b) && b[i] == ']':
			return i + 1, nil
		default:
			return 0, syntaxError(b, i)
		}
	}
}

// jsonInt64 reads null (as 0) or a JSON integer in int64 range at b[i],
// returning the value and the offset past it. A number with a fraction,
// an exponent or a leading zero, and anything else, reports false.
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
	// Without leading zeros, more than 19 digits is past int64, and 19
	// cannot overflow u. The magnitude may reach 1<<63 only as
	// MinInt64.
	const limit = uint64(1) << 63
	if i-digits > 19 || (b[digits] == '0' && i-digits > 1) || u > limit || (u == limit && !neg) ||
		(i < len(b) && (b[i] == '.' || b[i] == 'e' || b[i] == 'E')) {
		return 0, 0, false
	}
	if neg {
		return -int64(u), i, true // -int64(1<<63) wraps to MinInt64, as intended
	}
	return int64(u), i, true
}

// maxNestingDepth is encoding/json's bound on open arrays and objects:
// a value nested deeper than this anywhere in a body is an error.
const maxNestingDepth = 10000

// jsonSkip passes over one JSON value of any type at b[i], up to the
// comma or bracket that ends it at its own depth, and returns that
// offset (-1 when the input ends first) and the most arrays and objects
// the value holds open at once. It does not check syntax: where the
// value is valid JSON, both answers are exact.
func jsonSkip(b []byte, i int) (end, nesting int) {
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
			if depth++; depth > nesting {
				nesting = depth
			}
		case ']', '}':
			if depth == 0 {
				return i, nesting
			}
			depth--
		case ',':
			if depth == 0 {
				return i, nesting
			}
		}
	}
	return -1, nesting
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

// errUnexpectedEnd is the error of a body that ends inside its
// document.
var errUnexpectedEnd = errors.New("unexpected end of JSON input")

// syntaxError describes the malformed JSON at b[i].
func syntaxError(b []byte, i int) error {
	if i >= len(b) {
		return errUnexpectedEnd
	}
	return fmt.Errorf("invalid character %q at offset %d", b[i], i)
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
		return "a number"
	}
	return "malformed JSON"
}
