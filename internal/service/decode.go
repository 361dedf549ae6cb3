package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"unicode/utf8"
)

// Request bodies decode strictly: one JSON document, nothing but
// whitespace after it, and no member the request type does not
// declare. /v1/schedule and /v1/simulate bodies, which carry a matrix
// or a schedule as their bulk, decode in one pass by hand
// (decodeStrict); the batch and campaign bodies, and the small
// WireTopology inside the others, go through encoding/json
// (decodeStd). The two accept and reject the same bodies and produce
// equal values (FuzzDecodeBody), because decodeStrict follows
// encoding/json's rules:
//
//   - a key selects the field whose name it equals, or else the one it
//     matches under case folding (bytes.EqualFold: "PARAMS", "ſchedule");
//   - when a key repeats, the last value wins, and an object decodes
//     into the one an earlier key made, so their members merge;
//   - null leaves a string, integer or bool field alone and clears a
//     pointer or a slice;
//   - an integer field takes no fraction, exponent, leading zero or
//     value outside its type;
//   - no value, skipped or not, nests more than maxNestingDepth deep.

// errTrailingData is the error of a body with more than whitespace
// after its document.
var errTrailingData = errors.New("trailing data after JSON document")

// strictBody is a request type decodeStrict decodes.
type strictBody interface {
	// decodeJSON decodes the object at d.b[i], the body's document,
	// into the request and returns the offset past it.
	decodeJSON(d *decoder, i int) (int, error)
}

// decodeStrict decodes body, one JSON document, into v in one pass.
func decodeStrict(body []byte, v strictBody) error {
	d := decoder{b: body, scratch: tripleScratch.Get().(*WireTriples)}
	defer tripleScratch.Put(d.scratch)
	i := jsonSpace(body, 0)
	if i == len(body) {
		return errUnexpectedEnd
	}
	var err error
	if jsonNull(body, i) {
		i += 4 // a null document leaves the request as it is
	} else if i, err = v.decodeJSON(&d, i); err != nil {
		return err
	}
	if i = jsonSpace(body, i); i != len(body) {
		return errTrailingData
	}
	return nil
}

// decodeStd decodes body, one JSON document, into v through
// encoding/json, refusing members v does not declare.
func decodeStd(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	// Decode stops where the document ends, and More reports false
	// before a ']' or a '}', so the rest is checked byte by byte.
	if jsonSpace(body, int(dec.InputOffset())) != len(body) {
		return errTrailingData
	}
	return nil
}

// decoder holds a body decodeStrict reads and the scratch its triples
// decode into. Its methods decode one value each, starting at offset
// i, and return the offset past it. depth counts the arrays and
// objects open around the value.
type decoder struct {
	b       []byte
	scratch *WireTriples
}

// tripleScratch recycles the decoders' scratch lists, up to
// maxPooledTriples (1.5 MiB) each.
var tripleScratch = sync.Pool{New: func() any { return new(WireTriples) }}

const maxPooledTriples = 1 << 16

// triples decodes the triples value at b[i] inside depth containers. A
// list's length is known only at its closing bracket, so a list decodes
// into the scratch and is copied out at its exact length. Only where
// more is left of the body than maxPooledTriples of the smallest
// element, "[],", can the list outgrow the scratch. Such a list is
// sized first by counting the brackets of its extent, as UnmarshalJSON
// does, and decodes straight into its own slice: a near-cap body then
// holds its triples once, not a grown scratch and a copy beside them.
func (d *decoder) triples(i, depth int) (WireTriples, int, error) {
	b := d.b
	if len(b)-i > 3*maxPooledTriples {
		end, _ := jsonSkip(b, i)
		if end < 0 {
			end = len(b)
		}
		return decodeTriples(b, i, depth, make(WireTriples, 0, tripleCap(b[i:end])))
	}
	buf, next, err := decodeTriples(b, i, depth, *d.scratch)
	if err != nil || len(buf) == 0 {
		return buf, next, err
	}
	if cap(buf) <= maxPooledTriples {
		*d.scratch = buf
	}
	out := make(WireTriples, len(buf))
	copy(out, buf)
	return out, next, nil
}

// object decodes the object at b[i] member by member: member decodes
// the value, at b[i], of the member named key and returns the offset
// past it. what names the value for errors.
func (d *decoder) object(i int, what string, member func(key []byte, i int) (int, error)) (int, error) {
	b := d.b
	if i == len(b) || b[i] != '{' {
		return 0, typeError(b, i, what, "an object")
	}
	if i = jsonSpace(b, i+1); i < len(b) && b[i] == '}' {
		return i + 1, nil
	}
	for {
		key, next, err := d.str(i)
		if err != nil {
			return 0, err
		}
		if i = jsonSpace(b, next); i == len(b) || b[i] != ':' {
			return 0, syntaxError(b, i)
		}
		if i, err = member(key, jsonSpace(b, i+1)); err != nil {
			return 0, err
		}
		switch i = jsonSpace(b, i); {
		case i < len(b) && b[i] == ',':
			i = jsonSpace(b, i+1)
		case i < len(b) && b[i] == '}':
			return i + 1, nil
		default:
			return 0, syntaxError(b, i)
		}
	}
}

// str decodes the string at b[i]. A string with no escape and only
// valid UTF-8 is its own bytes, a slice of b; any other is unquoted by
// encoding/json, which also checks its escapes.
func (d *decoder) str(i int) ([]byte, int, error) {
	b := d.b
	if i == len(b) || b[i] != '"' {
		return nil, 0, syntaxError(b, i)
	}
	start, plain := i, true
	for i++; i < len(b); i++ {
		switch c := b[i]; {
		case c == '"':
			s := b[start+1 : i]
			if plain && utf8.Valid(s) {
				return s, i + 1, nil
			}
			var u string
			if err := json.Unmarshal(b[start:i+1], &u); err != nil {
				return nil, 0, fmt.Errorf("malformed string at offset %d", start)
			}
			return []byte(u), i + 1, nil
		case c == '\\':
			plain = false
			i++
		case c < ' ':
			return nil, 0, syntaxError(b, i)
		}
	}
	return nil, 0, errUnexpectedEnd
}

// stringField decodes a string member into *dst; null leaves it.
func (d *decoder) stringField(i int, dst *string, what string) (int, error) {
	if jsonNull(d.b, i) {
		return i + 4, nil
	}
	if i == len(d.b) || d.b[i] != '"' {
		return 0, typeError(d.b, i, what, "a string")
	}
	s, next, err := d.str(i)
	if err != nil {
		return 0, err
	}
	*dst = string(s)
	return next, nil
}

// int64Field decodes an integer member into *dst; null leaves it.
func (d *decoder) int64Field(i int, dst *int64, what string) (int, error) {
	if jsonNull(d.b, i) {
		return i + 4, nil
	}
	v, next, ok := jsonInt64(d.b, i)
	if !ok {
		return 0, typeError(d.b, i, what, "an int64 integer")
	}
	*dst = v
	return next, nil
}

// intField is int64Field for an int member.
func (d *decoder) intField(i int, dst *int, what string) (int, error) {
	if jsonNull(d.b, i) {
		return i + 4, nil
	}
	v, next, ok := jsonInt64(d.b, i)
	if !ok || int64(int(v)) != v {
		return 0, typeError(d.b, i, what, "an int")
	}
	*dst = int(v)
	return next, nil
}

// boolField decodes a bool member into *dst; null leaves it.
func (d *decoder) boolField(i int, dst *bool, what string) (int, error) {
	switch rest := d.b[i:]; {
	case bytes.HasPrefix(rest, []byte("null")):
		return i + 4, nil
	case bytes.HasPrefix(rest, []byte("true")):
		*dst = true
		return i + 4, nil
	case bytes.HasPrefix(rest, []byte("false")):
		*dst = false
		return i + 5, nil
	}
	return 0, typeError(d.b, i, what, "a bool")
}

// triplesField decodes a WireTriples member into *dst.
func (d *decoder) triplesField(i, depth int, dst *WireTriples) (int, error) {
	t, next, err := d.triples(i, depth)
	if err != nil {
		return 0, err
	}
	*dst = t
	return next, nil
}

// phasesField decodes a schedule's phases into *dst: null, or an array
// of triples values.
func (d *decoder) phasesField(i, depth int, dst *[]WirePhase) (int, error) {
	b := d.b
	if jsonNull(b, i) {
		*dst = nil
		return i + 4, nil
	}
	if i == len(b) || b[i] != '[' {
		return 0, typeError(b, i, "phases", "an array")
	}
	phases := []WirePhase{}
	if i = jsonSpace(b, i+1); i < len(b) && b[i] == ']' {
		*dst = phases
		return i + 1, nil
	}
	for {
		p, next, err := d.triples(i, depth+1)
		if err != nil {
			return 0, fmt.Errorf("phase %d: %w", len(phases), err)
		}
		phases = append(phases, p)
		switch i = jsonSpace(b, next); {
		case i < len(b) && b[i] == ',':
			i = jsonSpace(b, i+1)
		case i < len(b) && b[i] == ']':
			*dst = phases
			return i + 1, nil
		default:
			return 0, syntaxError(b, i)
		}
	}
}

// matrixField decodes a *WireMatrix member into *dst.
func (d *decoder) matrixField(i, depth int, dst **WireMatrix) (int, error) {
	if jsonNull(d.b, i) {
		*dst = nil
		return i + 4, nil
	}
	mj := *dst
	if mj == nil {
		mj = new(WireMatrix)
	}
	next, err := d.object(i, "matrix", func(key []byte, i int) (int, error) {
		switch fieldName(key, wireMatrixFields) {
		case "n":
			return d.intField(i, &mj.N, "matrix.n")
		case "messages":
			return d.triplesField(i, depth+1, &mj.Messages)
		}
		return 0, unknownField(key)
	})
	*dst = mj
	return next, err
}

// scheduleField decodes a *WireSchedule member into *dst.
func (d *decoder) scheduleField(i, depth int, dst **WireSchedule) (int, error) {
	if jsonNull(d.b, i) {
		*dst = nil
		return i + 4, nil
	}
	sj := *dst
	if sj == nil {
		sj = new(WireSchedule)
	}
	next, err := d.object(i, "schedule", func(key []byte, i int) (int, error) {
		switch fieldName(key, wireScheduleFields) {
		case "algorithm":
			return d.stringField(i, &sj.Algorithm, "schedule.algorithm")
		case "n":
			return d.intField(i, &sj.N, "schedule.n")
		case "ops":
			return d.int64Field(i, &sj.Ops, "schedule.ops")
		case "phases":
			return d.phasesField(i, depth+1, &sj.Phases)
		}
		return 0, unknownField(key)
	})
	*dst = sj
	return next, err
}

// topologyField decodes a *WireTopology member into *dst through
// decodeStd on the member's extent: the topology is a few bytes, and
// its edge list is the one [][2]int of the wire.
func (d *decoder) topologyField(i, depth int, dst **WireTopology) (int, error) {
	b := d.b
	if jsonNull(b, i) {
		*dst = nil
		return i + 4, nil
	}
	if i == len(b) || b[i] != '{' {
		return 0, typeError(b, i, "topology", "an object")
	}
	end, nesting := jsonSkip(b, i)
	if end < 0 {
		return 0, errUnexpectedEnd
	}
	if depth+nesting > maxNestingDepth {
		return 0, fmt.Errorf("topology nests deeper than %d", maxNestingDepth)
	}
	tj := *dst
	if tj == nil {
		tj = new(WireTopology)
	}
	if err := decodeStd(b[i:end], tj); err != nil {
		return 0, fmt.Errorf("topology: %w", err)
	}
	*dst = tj
	return end, nil
}

// The members each wire type declares, by their JSON names.
var (
	scheduleRequestFields = []string{"matrix", "workload", "algorithm", "topology", "auto_race", "seed"}
	simulateRequestFields = []string{"schedule", "matrix", "topology", "params", "protocol"}
	wireMatrixFields      = []string{"n", "messages"}
	wireScheduleFields    = []string{"algorithm", "n", "ops", "phases"}
)

// fieldName returns the name in names that key selects: the one it
// equals, or else the one it equals under case folding; "" if none.
func fieldName(key []byte, names []string) string {
	for _, name := range names {
		if string(key) == name {
			return name
		}
	}
	for _, name := range names {
		if bytes.EqualFold(key, []byte(name)) {
			return name
		}
	}
	return ""
}

func unknownField(key []byte) error {
	return fmt.Errorf("unknown field %q", key)
}

// typeError reports that the value at b[i] is not the kind the member
// what needs.
func typeError(b []byte, i int, what, want string) error {
	return fmt.Errorf("%s: want %s, got %s", what, want, jsonKind(b, i))
}

func (req *ScheduleRequest) decodeJSON(d *decoder, i int) (int, error) {
	return d.object(i, "schedule request", func(key []byte, i int) (int, error) {
		switch fieldName(key, scheduleRequestFields) {
		case "matrix":
			return d.matrixField(i, 1, &req.Matrix)
		case "workload":
			return d.stringField(i, &req.Workload, "workload")
		case "algorithm":
			return d.stringField(i, &req.Algorithm, "algorithm")
		case "topology":
			return d.topologyField(i, 1, &req.Topology)
		case "auto_race":
			return d.boolField(i, &req.AutoRace, "auto_race")
		case "seed":
			return d.int64Field(i, &req.Seed, "seed")
		}
		return 0, unknownField(key)
	})
}

func (req *SimulateRequest) decodeJSON(d *decoder, i int) (int, error) {
	return d.object(i, "simulate request", func(key []byte, i int) (int, error) {
		switch fieldName(key, simulateRequestFields) {
		case "schedule":
			return d.scheduleField(i, 1, &req.Schedule)
		case "matrix":
			return d.matrixField(i, 1, &req.Matrix)
		case "topology":
			return d.topologyField(i, 1, &req.Topology)
		case "params":
			return d.stringField(i, &req.Params, "params")
		case "protocol":
			return d.stringField(i, &req.Protocol, "protocol")
		}
		return 0, unknownField(key)
	})
}
