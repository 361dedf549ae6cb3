package service

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"reflect"
	"testing"
)

// fuzzTriples reads triples from data as consecutive signed varints,
// so small and extreme values both come up.
func fuzzTriples(data []byte) WireTriples {
	var out WireTriples
	var tr [3]int64
	for k := 0; ; k++ {
		v, n := binary.Varint(data)
		if n <= 0 {
			return out
		}
		data = data[n:]
		if tr[k%3] = v; k%3 == 2 {
			out = append(out, tr)
		}
	}
}

// FuzzScheduleResultJSON holds appendJSON, and marshalResult's exact
// copy of it, to json.Marshal over arbitrary strings, integers and
// triples, with and without the matrix echo and the schedule, and with
// nil and empty lists.
func FuzzScheduleResultJSON(f *testing.F) {
	some := binary.AppendVarint(binary.AppendVarint(binary.AppendVarint(nil, 0), 1), 4096)
	some = binary.AppendVarint(binary.AppendVarint(binary.AppendVarint(some, -1<<63), 1<<63-1), -7)
	f.Add("RS_NL", "hypercube-3", "uniform:2:64", "RS_NL", int64(-3), int64(12), 8, true, byte(0xff), some)
	f.Add("AC", "mesh-8x8-torus", "", "AC", int64(0), int64(0), 64, false, byte(0x05), []byte(nil))
	f.Add("<&>", "\u2028\u2029\x00\x1f\"\\/", "\xff\xfe", "é😀\x7f", int64(-1<<63), int64(1<<63-1), -1, true, byte(0x0f), some)
	f.Add("", "", "w", "", int64(1), int64(-1), 0, false, byte(0x32), some[:3])
	f.Fuzz(func(t *testing.T, chosen, topology, workload, alg string, seed, ops int64, n int, linkFree bool, shape byte, data []byte) {
		res := &ScheduleResult{Chosen: chosen, Topology: topology, Workload: workload, Seed: seed, LinkFree: linkFree}
		triples := fuzzTriples(data)
		if shape&1 != 0 {
			res.Matrix = &WireMatrix{N: n, Messages: triples}
			if shape&2 != 0 {
				res.Matrix.Messages = nil
			}
		}
		if shape&4 != 0 {
			res.Schedule = &WireSchedule{Algorithm: alg, N: n, Ops: ops}
			if shape&8 == 0 {
				// Phases of shape>>4+1 triples, then an empty and a nil one.
				res.Schedule.Phases = []WirePhase{}
				for size := int(shape>>4) + 1; len(triples) > 0; {
					size = min(size, len(triples))
					res.Schedule.Phases = append(res.Schedule.Phases, triples[:size])
					triples = triples[size:]
				}
				if shape&2 != 0 {
					res.Schedule.Phases = append(res.Schedule.Phases, WirePhase{}, nil)
				}
			}
		}
		want, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		if got := res.appendJSON(nil); !bytes.Equal(got, want) {
			t.Fatalf("appendJSON:\n got %s\nwant %s", got, want)
		}
		got, err := marshalResult(res)
		if err != nil || !bytes.Equal(got, want) || cap(got) != len(got) {
			t.Fatalf("marshalResult: %v, cap %d:\n got %s\nwant %s", err, cap(got), got, want)
		}
	})
}

// TestAppendJSONCoversEveryField holds appendJSON to json.Marshal on a
// result whose every field, down through its matrix echo and schedule,
// is set: a field added to ScheduleResult, WireMatrix or WireSchedule
// and not to appendJSON fails here instead of vanishing from cached
// results.
func TestAppendJSONCoversEveryField(t *testing.T) {
	res := new(ScheduleResult)
	fillNonZero(t, reflect.ValueOf(res).Elem())
	want, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.appendJSON(nil); !bytes.Equal(got, want) {
		t.Fatalf("appendJSON:\n got %s\nwant %s", got, want)
	}
}

// BenchmarkMarshalScheduleResult is the encode stage of the largest
// serve-miss schedule result.
func BenchmarkMarshalScheduleResult(b *testing.B) {
	res, _ := missResult(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := marshalResult(res); err != nil {
			b.Fatal(err)
		}
	}
}
