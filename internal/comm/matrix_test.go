package comm

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(0); err == nil {
		t.Error("New(0) should fail")
	}
	if _, err := New(-3); err == nil {
		t.Error("New(-3) should fail")
	}
	m, err := New(8)
	if err != nil {
		t.Fatal(err)
	}
	if m.N() != 8 {
		t.Errorf("N() = %d, want 8", m.N())
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew(0) did not panic")
		}
	}()
	MustNew(0)
}

func TestSetAtAdd(t *testing.T) {
	m := MustNew(4)
	m.Set(1, 2, 100)
	if got := m.At(1, 2); got != 100 {
		t.Errorf("At(1,2) = %d, want 100", got)
	}
	m.Add(1, 2, 50)
	if got := m.At(1, 2); got != 150 {
		t.Errorf("after Add, At(1,2) = %d, want 150", got)
	}
	if got := m.At(2, 1); got != 0 {
		t.Errorf("At(2,1) = %d, want 0", got)
	}
}

func TestSetNegativePanics(t *testing.T) {
	m := MustNew(4)
	defer func() {
		if recover() == nil {
			t.Fatal("Set negative did not panic")
		}
	}()
	m.Set(0, 1, -5)
}

func TestDegreesAndDensity(t *testing.T) {
	m := MustNew(4)
	m.Set(0, 1, 10)
	m.Set(0, 2, 10)
	m.Set(0, 3, 10)
	m.Set(1, 3, 10)
	if got := m.SendDegree(0); got != 3 {
		t.Errorf("SendDegree(0) = %d, want 3", got)
	}
	if got := m.SendDegree(2); got != 0 {
		t.Errorf("SendDegree(2) = %d, want 0", got)
	}
	if got := m.RecvDegree(3); got != 2 {
		t.Errorf("RecvDegree(3) = %d, want 2", got)
	}
	if got := m.Density(); got != 3 {
		t.Errorf("Density() = %d, want 3", got)
	}
}

func TestCountsAndTotals(t *testing.T) {
	m := MustNew(4)
	m.Set(0, 1, 10)
	m.Set(2, 3, 30)
	if got := m.MessageCount(); got != 2 {
		t.Errorf("MessageCount = %d, want 2", got)
	}
	if got := m.TotalBytes(); got != 40 {
		t.Errorf("TotalBytes = %d, want 40", got)
	}
	if got := m.MaxMessageBytes(); got != 30 {
		t.Errorf("MaxMessageBytes = %d, want 30", got)
	}
}

func TestUniform(t *testing.T) {
	m := MustNew(4)
	if b, u := m.Uniform(); !u || b != 0 {
		t.Error("empty matrix should be uniform with size 0")
	}
	m.Set(0, 1, 64)
	m.Set(1, 2, 64)
	if b, u := m.Uniform(); !u || b != 64 {
		t.Errorf("Uniform = (%d,%v), want (64,true)", b, u)
	}
	m.Set(2, 3, 128)
	if _, u := m.Uniform(); u {
		t.Error("mixed sizes should not be uniform")
	}
}

func TestSymmetric(t *testing.T) {
	m := MustNew(4)
	m.Set(0, 1, 10)
	if m.Symmetric() {
		t.Error("one-way message should not be symmetric")
	}
	m.Set(1, 0, 99) // different size, same pattern
	if !m.Symmetric() {
		t.Error("two-way pattern should be symmetric")
	}
}

func TestCloneEqual(t *testing.T) {
	m := MustNew(4)
	m.Set(0, 1, 10)
	c := m.Clone()
	if !m.Equal(c) {
		t.Fatal("clone should be equal")
	}
	c.Set(2, 3, 5)
	if m.Equal(c) {
		t.Fatal("modified clone should differ")
	}
	if m.Equal(MustNew(5)) {
		t.Fatal("different sizes should differ")
	}
}

func TestMessagesAndVectors(t *testing.T) {
	m := MustNew(4)
	m.Set(0, 1, 10)
	m.Set(0, 3, 20)
	m.Set(2, 1, 30)
	msgs := m.Messages()
	if len(msgs) != 3 {
		t.Fatalf("Messages len %d, want 3", len(msgs))
	}
	if msgs[0] != (Message{0, 1, 10}) || msgs[1] != (Message{0, 3, 20}) {
		t.Errorf("unexpected message order: %v", msgs)
	}
	sv := m.SendVector(0)
	if len(sv) != 2 || sv[0].Dst != 1 || sv[1].Dst != 3 {
		t.Errorf("SendVector(0) = %v", sv)
	}
	rv := m.RecvVector(1)
	if len(rv) != 2 || rv[0].Src != 0 || rv[1].Src != 2 {
		t.Errorf("RecvVector(1) = %v", rv)
	}
}

func TestValidate(t *testing.T) {
	m := MustNew(4)
	m.Set(0, 1, 10)
	if err := m.Validate(); err != nil {
		t.Errorf("valid matrix rejected: %v", err)
	}
	m.Set(2, 2, 5)
	if err := m.Validate(); err == nil {
		t.Error("self message not rejected")
	}
}

func TestStringForms(t *testing.T) {
	small := MustNew(3)
	small.Set(0, 1, 7)
	if !strings.Contains(small.String(), "0 7 0") {
		t.Errorf("small String missing row: %q", small.String())
	}
	big := MustNew(64)
	if !strings.Contains(big.String(), "n=64") {
		t.Errorf("big String missing summary: %q", big.String())
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	m, err := UniformRandom(16, 5, 1024, rng)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := m.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Equal(got) {
		t.Fatal("round trip changed matrix")
	}
}

func TestReadRejectsBadInput(t *testing.T) {
	cases := []string{
		"",
		"bogus header\n",
		"n 4\n0 1\n",    // missing field
		"n 4\nx 1 10\n", // bad src
		"n 4\n0 y 10\n", // bad dst
		"n 4\n0 1 z\n",  // bad size
		"n 4\n0 9 10\n", // node out of range
		"n 4\n0 1 -3\n", // negative size
		"n 4\n2 2 10\n", // self message
	}
	for _, in := range cases {
		if _, err := Read(strings.NewReader(in)); err == nil {
			t.Errorf("Read(%q) should fail", in)
		}
	}
}

func TestReadSkipsCommentsAndBlanks(t *testing.T) {
	in := "n 4\n# comment\n\n0 1 10\n"
	m, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if m.At(0, 1) != 10 {
		t.Error("comment handling broke parsing")
	}
}

// tripleCases are triples lists at the edges of CheckTriples and
// FromTriples, with whether FromTriples builds them.
var tripleCases = []struct {
	name string
	n    int
	msgs [][3]int64
	ok   bool
}{
	{"empty", 4, nil, true},
	{"one node", 1, nil, true},
	{"any order", 3, [][3]int64{{2, 0, 5}, {0, 1, 7}, {1, 2, 9}, {0, 2, 1}}, true},
	{"full", 2, [][3]int64{{0, 1, 1}, {1, 0, 1}}, true},
	{"zero nodes", 0, nil, false},
	{"over the node bound", MaxReadNodes + 1, nil, false},
	{"more entries than pairs", 2, [][3]int64{{0, 1, 1}, {1, 0, 1}, {0, 1, 1}}, false},
	{"src out of range", 4, [][3]int64{{4, 1, 10}}, false},
	{"negative dst", 4, [][3]int64{{0, -1, 10}}, false},
	{"self message", 4, [][3]int64{{2, 2, 10}}, false},
	{"zero size", 4, [][3]int64{{0, 1, 0}}, false},
	{"negative size", 4, [][3]int64{{0, 1, -3}}, false},
	{"repeated pair", 4, [][3]int64{{0, 1, 10}, {2, 3, 4}, {0, 1, 10}}, false},
}

func TestFromTriples(t *testing.T) {
	for _, c := range tripleCases {
		m, err := FromTriples(c.n, c.msgs)
		if (err == nil) != c.ok {
			t.Errorf("%s: FromTriples error %v, want ok=%v", c.name, err, c.ok)
			continue
		}
		if !c.ok {
			continue
		}
		if m.N() != c.n || m.MessageCount() != len(c.msgs) {
			t.Errorf("%s: built n=%d with %d messages", c.name, m.N(), m.MessageCount())
		}
		for _, msg := range c.msgs {
			if got := m.At(int(msg[0]), int(msg[1])); got != msg[2] {
				t.Errorf("%s: COM(%d,%d) = %d, want %d", c.name, msg[0], msg[1], got, msg[2])
			}
		}
	}
}

// TestReadAppliesFromTriples: the text loader accepts a file exactly
// when FromTriples accepts its messages. It used to keep the last of
// two lines for one pair and to accept a zero size.
func TestReadAppliesFromTriples(t *testing.T) {
	for _, c := range tripleCases {
		var b strings.Builder
		fmt.Fprintf(&b, "n %d\n", c.n)
		for _, msg := range c.msgs {
			fmt.Fprintf(&b, "%d %d %d\n", msg[0], msg[1], msg[2])
		}
		m, err := Read(strings.NewReader(b.String()))
		if (err == nil) != c.ok {
			t.Errorf("%s: Read error %v, want ok=%v", c.name, err, c.ok)
		}
		if want, _ := FromTriples(c.n, c.msgs); err == nil && want != nil && !m.Equal(want) {
			t.Errorf("%s: Read built another matrix than FromTriples", c.name)
		}
	}
}
