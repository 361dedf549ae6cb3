package sched

import (
	"bytes"
	"testing"
)

// writeSchedule returns what s.WriteTo writes, and fails t unless the
// byte count it reports is the length written.
func writeSchedule(t *testing.T, s *Schedule) string {
	t.Helper()
	var buf bytes.Buffer
	n, err := s.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Errorf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
	}
	return buf.String()
}

func TestScheduleWriteTo(t *testing.T) {
	p0 := NewPhase(4)
	p0.Send[0], p0.Bytes[0] = 1, 10
	p0.Send[1], p0.Bytes[1] = 0, 10
	p1 := NewPhase(4)
	p1.Send[2], p1.Bytes[2] = 3, 7
	s := &Schedule{Algorithm: "RS_NL", N: 4, Ops: 12, Phases: []Phase{p0, p1}}
	want := "schedule RS_NL n 4 phases 2 ops 12\nphase 0\n0 1 10\n1 0 10\nphase 1\n2 3 7\n"
	if got := writeSchedule(t, s); got != want {
		t.Errorf("WriteTo wrote\n%s\nwant\n%s", got, want)
	}
}

func TestWriteEmptySchedule(t *testing.T) {
	s := &Schedule{Algorithm: "RS_N", N: 8}
	if got, want := writeSchedule(t, s), "schedule RS_N n 8 phases 0 ops 0\n"; got != want {
		t.Errorf("WriteTo wrote %q, want %q", got, want)
	}
}
