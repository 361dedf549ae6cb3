package service

import (
	"encoding/json"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// decodeAgrees decodes body as an R twice, with decodeStrict and with
// oracle, and fails t unless both accept it with values
// reflect.DeepEqual holds equal or both reject it.
func decodeAgrees[R any, P interface {
	*R
	strictBody
}](t *testing.T, body []byte, oracle func([]byte) (R, error)) {
	t.Helper()
	var got R
	gotErr := decodeStrict(body, P(&got))
	want, wantErr := oracle(body)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("%T %q: decodeStrict error %v, encoding/json error %v", got, body, gotErr, wantErr)
	}
	if gotErr == nil && !reflect.DeepEqual(got, want) {
		t.Fatalf("%T %q: decodeStrict decoded\n%#v\nencoding/json\n%#v", got, body, got, want)
	}
}

// The oracle decodes into mirrors of the request types whose triples
// lists are plain [][3]int64. encoding/json decodes those itself,
// where it would decode a WireTriples through UnmarshalJSON, which
// runs decodeTriples, the scanner decodeStrict runs too.
type (
	stdMatrix struct {
		N        int        `json:"n"`
		Messages [][3]int64 `json:"messages"`
	}
	stdSchedule struct {
		Algorithm string       `json:"algorithm"`
		N         int          `json:"n"`
		Ops       int64        `json:"ops"`
		Phases    [][][3]int64 `json:"phases"`
	}
	stdScheduleRequest struct {
		Matrix    *stdMatrix    `json:"matrix,omitempty"`
		Workload  string        `json:"workload,omitempty"`
		Algorithm string        `json:"algorithm,omitempty"`
		Topology  *WireTopology `json:"topology,omitempty"`
		AutoRace  bool          `json:"auto_race,omitempty"`
		Seed      int64         `json:"seed,omitempty"`
	}
	stdSimulateRequest struct {
		Schedule *stdSchedule  `json:"schedule"`
		Matrix   *stdMatrix    `json:"matrix,omitempty"`
		Topology *WireTopology `json:"topology,omitempty"`
		Params   string        `json:"params,omitempty"`
		Protocol string        `json:"protocol,omitempty"`
	}
)

func (m *stdMatrix) wire() *WireMatrix {
	if m == nil {
		return nil
	}
	return &WireMatrix{N: m.N, Messages: m.Messages}
}

func (s *stdSchedule) wire() *WireSchedule {
	if s == nil {
		return nil
	}
	ws := &WireSchedule{Algorithm: s.Algorithm, N: s.N, Ops: s.Ops}
	if s.Phases != nil {
		ws.Phases = make([]WirePhase, len(s.Phases))
		for k, p := range s.Phases {
			ws.Phases[k] = p
		}
	}
	return ws
}

// stdScheduleRequestOf and stdSimulateRequestOf are the oracles:
// decodeStd (json.Decoder refusing unknown fields, then nothing but
// whitespace) into the mirror, converted to the request type.
func stdScheduleRequestOf(body []byte) (ScheduleRequest, error) {
	var m stdScheduleRequest
	err := decodeStd(body, &m)
	return ScheduleRequest{Matrix: m.Matrix.wire(), Workload: m.Workload, Algorithm: m.Algorithm,
		Topology: m.Topology, AutoRace: m.AutoRace, Seed: m.Seed}, err
}

func stdSimulateRequestOf(body []byte) (SimulateRequest, error) {
	var m stdSimulateRequest
	err := decodeStd(body, &m)
	return SimulateRequest{Schedule: m.Schedule.wire(), Matrix: m.Matrix.wire(), Topology: m.Topology,
		Params: m.Params, Protocol: m.Protocol}, err
}

// bodyDecodesAgree holds decodeStrict to the oracle on body, as a
// schedule and as a simulate request.
func bodyDecodesAgree(t *testing.T, body []byte) {
	t.Helper()
	decodeAgrees(t, body, stdScheduleRequestOf)
	decodeAgrees(t, body, stdSimulateRequestOf)
}

// decodeSeeds are bodies at the edges of encoding/json's rules, beside
// the request fuzz corpora.
var decodeSeeds = []string{
	// Keys match exactly, else under case folding, escaped or not.
	`{"PARAMS":"ipsc2","Protocol":"S1"}`, `{"ſchedule":null}`, `{"ſchedule":{"N":4,"OPS":1}}`,
	`{"MATRIX":{"N":4,"MESSAGES":[[0,1,2]]}}`, "{\"worKload\":\"x\"}", `{"algorİthm":"x"}`,
	`{"matrix":{"n":4}}`, `{"matrix":null}`, `{"auto_race":true}`, `{"\ud800":1}`,
	`{"seed\u0000":1}`, `{"":1}`, `{"bogus":1}`, `{"matrix":{"bogus":1}}`, `{"schedule":{"bogus":[]}}`,
	// The last duplicate wins, and repeated objects merge.
	`{"seed":5,"seed":null}`, `{"algorithm":"a","algorithm":null,"workload":"w","workload":"v"}`,
	`{"matrix":{"n":4},"matrix":{"messages":[[0,1,2]]}}`,
	`{"matrix":{"n":4},"matrix":null,"matrix":{"messages":[]}}`,
	`{"schedule":{"phases":[[[0,1,2]],[]],"n":3},"schedule":{"phases":[null]}}`,
	`{"schedule":{"phases":[[[0,1,2]],[[1,0,2]]]},"schedule":{"phases":[[]]}}`,
	`{"topology":{"edges":[[1,2]]},"topology":{"edges":[null]}}`,
	`{"topology":{"kind":"cube"},"topology":{"dim":3},"TOPOLOGY":{"spec":""}}`,
	`{"matrix":{"messages":[[0,1,2]],"messages":null}}`,
	// Integers: leading zeros, fractions, exponents, bounds.
	`{"seed":01}`, `{"seed":-01}`, `{"seed":-0}`, `{"seed":0}`, `{"seed":00}`, `{"matrix":{"n":04}}`,
	`{"matrix":{"messages":[[00,1,2]]}}`, `{"matrix":{"messages":[[0,-0,2]]}}`,
	`{"seed":1.0}`, `{"seed":1e3}`, `{"seed":1E3}`, `{"seed":1.}`, `{"seed":-}`, `{"seed":+1}`,
	`{"seed":9223372036854775807}`, `{"seed":9223372036854775808}`, `{"seed":-9223372036854775809}`,
	`{"matrix":{"n":1E2}}`, `{"schedule":{"ops":-9223372036854775808,"n":-1}}`,
	// Literals, and null into every kind of member.
	`null`, " \r\n\tnull\n", `nul`, `nullx`, `{"auto_race":tru}`, `{"auto_race":nul}`, `{"auto_race":true}`,
	`{"auto_race":false}`, `{"auto_race":falsey}`, `{"auto_race":1}`, `{"auto_race":"true"}`,
	`{"matrix":null,"topology":null,"workload":null,"seed":null,"auto_race":null}`,
	`{"matrix":{"n":null,"messages":null}}`, `{"schedule":{"phases":null,"algorithm":null}}`,
	`{"schedule":{"phases":[null,[],[null],[[null,null,null]]]}}`, `{"schedule":null,"params":null}`,
	// Strings.
	`{"workload":"a\"b\\c\/d\b\f\n\r\t"}`, `{"workload":"é😀"}`, `{"workload":"\ud800x"}`,
	"{\"workload\":\"\xff\xfe\"}", "{\"workload\":\"tab\there\"}", `{"workload":"\x"}`, `{"workload":"\u12"}`,
	`{"workload":"unterminated}`, `{"workload":5}`, `{"workload":["x"]}`, `{"algorithm":{}}`,
	// Wrong kinds for objects, triples and phases.
	`{"matrix":5}`, `{"matrix":"m"}`, `{"matrix":[]}`, `{"matrix":true}`, `{"topology":[]}`, `{"topology":"cube:3"}`,
	`{"matrix":{"messages":{}}}`, `{"matrix":{"messages":"x"}}`, `{"matrix":{"messages":7}}`,
	`{"schedule":{"phases":{}}}`, `{"schedule":{"phases":"x"}}`, `{"schedule":{"phases":[7]}}`,
	`{"schedule":{"phases":[{}]}}`, `{"schedule":{"phases":[[7]]}}`, `[1]`, `"x"`, `7`, `true`, `{}`,
	// Elements past a triple's third slot are skipped if they are valid.
	`{"matrix":{"n":4,"messages":[[0,1,2,{"a":[1,"]"]},null,true,-1.5e3]]}}`,
	`{"matrix":{"messages":[[0,1,2,01]]}}`, `{"matrix":{"messages":[[0,1,2,[}]]}}`,
	`{"matrix":{"messages":[[0,1,2,"\x"]]}}`, `{"matrix":{"messages":[[0,1,2,tru]]}}`,
	`{"topology":{"edges":[[0,1,[2],{"x":null}]]}}`, `{"topology":{"kind":"ring","bogus":1}}`,
	// Syntax: whitespace, commas, brackets, trailing data.
	" {\n\t\"matrix\" :\r{ \"n\" : 4 , \"messages\" : [ [ 0 , 1 , 2 ] ] } } \n",
	`{"seed":1,}`, `{,"seed":1}`, `{"seed" 1}`, `{"seed":1 "n":2}`, `{"matrix":{"messages":[[0,1,2],]}}`,
	`{"matrix":{"messages":[[0,1,2,]]}}`, `{"matrix":{"messages":[[0 1 2]]}}`, `{seed:1}`, `{'seed':1}`,
	`{}}`, `{}]`, `{"matrix":{"n":4,"messages":[]}}]]]garbage`, `{} x`, `null]`, `{}{}`, `{}` + "\x00",
	"\uFEFF{}", ``, ` `, `{`, `{"matrix":{"n":4,"messages":[[0,1,2]`,
}

// TestDecodeStrictMatchesStd holds decodeStrict to encoding/json on the
// seeds, and on bodies the fuzzer cannot reach. At encoding/json's
// nesting bound, a skipped value may nest only as deep as the bound
// leaves room for below the containers around it. Past 196 KB, a list
// is sized from its extent before it decodes, which brackets in
// skipped slots, a missing bracket and a truncated body must not
// mislead.
func TestDecodeStrictMatchesStd(t *testing.T) {
	bodies := append(append(append([]string{}, decodeSeeds...), scheduleRequestSeeds...), simulateRequestSeeds...)
	long := strings.Repeat("[1,2,3],", 3*maxPooledTriples/8+1)
	bodies = append(bodies,
		`{"matrix":{"n":4,"messages":[`+long+`[0,1,2,["[",[[]]],{"]":[]}]]}}`,
		`{"schedule":{"phases":[[`+long+`[0,1,2]],[[3,4,5]],null,[]]},"matrix":{"messages":[`+long+`null]}}`,
		`{"matrix":{"messages":[`+long+`[0,1,2]}}`, `{"matrix":{"messages":[`+long+`[0,1,02]]}}`,
		`{"matrix":{"messages":[`+long, `{"matrix":{"messages":[`+long+`]]]]]]}}`,
		`{"matrix":{"messages":null},"workload":"`+long+`"}`)
	nest := func(n int) string { return strings.Repeat("[", n) + strings.Repeat("]", n) }
	for _, open := range []int{maxNestingDepth - 6, maxNestingDepth - 5, maxNestingDepth - 4, maxNestingDepth - 3} {
		// Around the skipped slot: the body, the matrix or schedule,
		// the list, (the phase,) the triple.
		bodies = append(bodies,
			`{"matrix":{"n":4,"messages":[[0,1,2,`+nest(open)+`]]}}`,
			`{"schedule":{"phases":[[[0,1,2,`+nest(open)+`]]]}}`,
			`{"topology":{"edges":[[0,1,`+nest(open)+`]]}}`)
	}
	for _, body := range bodies {
		bodyDecodesAgree(t, []byte(body))
	}
}

// jsonNames returns the JSON names of typ's fields, in their order.
func jsonNames(typ reflect.Type) []string {
	var names []string
	for i := 0; i < typ.NumField(); i++ {
		name, _, _ := strings.Cut(typ.Field(i).Tag.Get("json"), ",")
		names = append(names, name)
	}
	return names
}

// fillNonZero sets every exported field under v to a value that is not
// its type's zero: a pointer gets a filled value, a slice one filled
// element.
func fillNonZero(t *testing.T, v reflect.Value) {
	t.Helper()
	switch v.Kind() {
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		fillNonZero(t, v.Elem())
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				fillNonZero(t, v.Field(i))
			}
		}
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 1, 1))
		fillNonZero(t, v.Index(0))
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			fillNonZero(t, v.Index(i))
		}
	case reflect.String:
		v.SetString("x")
	case reflect.Int, reflect.Int64:
		v.SetInt(7)
	case reflect.Bool:
		v.SetBool(true)
	default:
		t.Fatalf("fillNonZero: no value for a %s", v.Type())
	}
}

// TestDecoderCoversEveryField ties decodeStrict to the request types:
// its member lists name exactly the types' JSON fields, and a body
// that sets every field decodes, with both decoders, to the request it
// was marshaled from. A field added to a request type and not to
// decodeStrict fails here, where /v1/schedule or /v1/simulate would
// answer it "unknown field" and /v1/schedule/batch would not.
func TestDecoderCoversEveryField(t *testing.T) {
	for _, c := range []struct {
		typ   reflect.Type
		names []string
	}{
		{reflect.TypeFor[ScheduleRequest](), scheduleRequestFields},
		{reflect.TypeFor[SimulateRequest](), simulateRequestFields},
		{reflect.TypeFor[WireMatrix](), wireMatrixFields},
		{reflect.TypeFor[WireSchedule](), wireScheduleFields},
		{reflect.TypeFor[stdScheduleRequest](), scheduleRequestFields},
		{reflect.TypeFor[stdSimulateRequest](), simulateRequestFields},
		{reflect.TypeFor[stdMatrix](), wireMatrixFields},
		{reflect.TypeFor[stdSchedule](), wireScheduleFields},
	} {
		if got := jsonNames(c.typ); !slices.Equal(got, c.names) {
			t.Errorf("%s has JSON fields %q, decodeStrict knows %q", c.typ, got, c.names)
		}
	}
	decodesFilled(t, stdScheduleRequestOf)
	decodesFilled(t, stdSimulateRequestOf)
}

// decodesFilled marshals an R whose every field is set and requires
// decodeStrict, and oracle with it, to decode it back.
func decodesFilled[R any, P interface {
	*R
	strictBody
}](t *testing.T, oracle func([]byte) (R, error)) {
	t.Helper()
	var want, got R
	fillNonZero(t, reflect.ValueOf(&want).Elem())
	body, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	if err := decodeStrict(body, P(&got)); err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("decodeStrict %s: %v, decoded\n%#v", body, err, got)
	}
	decodeAgrees[R, P](t, body, oracle)
}

// FuzzDecodeBody holds decodeStrict to its oracle, encoding/json into
// the mirror types, for both request types: the same bodies accepted,
// with reflect.DeepEqual values, and the same rejected.
func FuzzDecodeBody(f *testing.F) {
	for _, seeds := range [][]string{decodeSeeds, scheduleRequestSeeds, simulateRequestSeeds} {
		for _, seed := range seeds {
			f.Add(seed)
		}
	}
	f.Fuzz(func(t *testing.T, body string) {
		bodyDecodesAgree(t, []byte(body))
	})
}

// missResult schedules uniform:32:131072 with RS_N on a 64-node cube,
// the largest request of perfbench's serve-miss, and returns the result
// and the /v1/simulate body that ships its schedule and matrix back.
func missResult(b *testing.B) (*ScheduleResult, []byte) {
	b.Helper()
	svc, err := NewServer(Options{Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer svc.Close()
	rec := serve(svc, "/v1/schedule", `{"workload":"uniform:32:131072","algorithm":"RS_N","topology":{"spec":"cube:6"},"seed":7}`)
	var env Envelope
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
		b.Fatal(err)
	}
	var res ScheduleResult
	if err := json.Unmarshal(env.Result, &res); err != nil {
		b.Fatal(err)
	}
	body, err := json.Marshal(SimulateRequest{Schedule: res.Schedule, Matrix: res.Matrix, Topology: &WireTopology{Spec: "cube:6"}})
	if err != nil {
		b.Fatal(err)
	}
	return &res, body
}

// BenchmarkDecodeSimulateBody is the decode stage of the largest
// serve-miss simulate request, a 60 KB body.
func BenchmarkDecodeSimulateBody(b *testing.B) {
	_, body := missResult(b)
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var req SimulateRequest
		if err := decodeBody(body, &req); err != nil {
			b.Fatal(err)
		}
	}
}
