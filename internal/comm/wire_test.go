package comm

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"testing"
)

func TestMatrixBinaryRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	mats := []*Matrix{MustNew(1), MustNew(2)}
	m2 := MustNew(3)
	m2.Set(0, 2, 1)
	m2.Set(2, 0, math.MaxInt64)
	mats = append(mats, m2)
	for _, gen := range []func() *Matrix{
		func() *Matrix { m, _ := DRegular(64, 8, 4096, rng); return m },
		func() *Matrix { m, _ := UniformRandom(32, 5, 17, rng); return m },
		func() *Matrix { m, _ := HotSpot(64, 8, 1024, 4, 0.7, rng); return m },
		func() *Matrix { m, _ := AllToAll(16, 3); return m },
		func() *Matrix { m, _ := MixedSizes(64, 8, 1, 1<<20, rng); return m },
	} {
		mats = append(mats, gen())
	}
	for i, m := range mats {
		enc := m.EncodeBinary()
		dec, err := DecodeMatrixBinary(enc)
		if err != nil {
			t.Fatalf("matrix %d: decode: %v", i, err)
		}
		if !dec.Equal(m) {
			t.Fatalf("matrix %d: decode mismatch", i)
		}
		re := dec.EncodeBinary()
		if !bytes.Equal(re, enc) {
			t.Fatalf("matrix %d: re-encode differs (%d vs %d bytes)", i, len(re), len(enc))
		}
		var triples [][3]int64
		for _, msg := range m.Messages() {
			triples = append(triples, [3]int64{int64(msg.Src), int64(msg.Dst), msg.Bytes})
		}
		if tr := AppendBinaryTriples(nil, m.N(), triples); !bytes.Equal(tr, enc) {
			t.Fatalf("matrix %d: encoding its triples differs from encoding the matrix", i)
		}
	}
}

func TestMatrixBinaryCompact(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m, err := DRegular(1024, 8, 4096, rng)
	if err != nil {
		t.Fatal(err)
	}
	bin := m.EncodeBinary()
	jd, err := json.Marshal(m.Messages())
	if err != nil {
		t.Fatal(err)
	}
	// The headline claim: the varint sparse form beats the JSON triple
	// form by a wide margin on the paper's 1024-node workloads.
	if 4*len(bin) > len(jd) {
		t.Fatalf("binary %d bytes not at least 4x smaller than JSON %d bytes", len(bin), len(jd))
	}
}

func TestDecodeMatrixBinaryRejects(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m, _ := DRegular(8, 3, 64, rng)
	good := m.EncodeBinary()

	mutate := func(f func(b []byte) []byte) []byte {
		b := append([]byte(nil), good...)
		return f(b)
	}
	cases := map[string][]byte{
		"empty":          {},
		"short header":   good[:4],
		"bad magic":      mutate(func(b []byte) []byte { b[0] = 'X'; return b }),
		"bad version":    mutate(func(b []byte) []byte { b[4] = 99; return b }),
		"truncated body": good[:len(good)-1],
		"trailing byte":  append(append([]byte(nil), good...), 0),
		"zero n":         append(append([]byte(nil), good[:5]...), 0),
		"huge n": append(AppendUvarint(append([]byte(nil), good[:5]...),
			MaxReadNodes+1), make([]byte, 8192)...),
		// n=2 but row 0 claims 3 entries (counts column: 3, 0).
		"row count over n": {'U', 'S', 'W', 'M', 1, 2, 3, 0, 1, 1, 1, 1, 1, 1},
		// n=2, row 0 has one entry with delta 3 (column 2: out of range).
		"column overflow": {'U', 'S', 'W', 'M', 1, 2, 1, 0, 3, 1},
		// n=2, entry with zero size.
		"zero size": {'U', 'S', 'W', 'M', 1, 2, 1, 0, 1, 0},
		// n=2, zero delta (column repeats).
		"zero delta": {'U', 'S', 'W', 'M', 1, 2, 1, 0, 0, 1},
		// Non-minimal varint for n (0x82 0x00 = 2 in two bytes).
		"non-minimal varint": {'U', 'S', 'W', 'M', 1, 0x82, 0x00, 0, 0},
	}
	for name, in := range cases {
		if _, err := DecodeMatrixBinary(in); err == nil {
			t.Errorf("%s: decoder accepted malformed input", name)
		}
	}
}

func TestReadUvarintStrict(t *testing.T) {
	for _, v := range []uint64{0, 1, 127, 128, 300, 1 << 20, math.MaxUint64} {
		b := AppendUvarint(nil, v)
		got, k, err := ReadUvarint(b)
		if err != nil || got != v || k != len(b) {
			t.Fatalf("round trip %d: got %d, k=%d, err=%v", v, got, k, err)
		}
	}
	for name, b := range map[string][]byte{
		"empty":           {},
		"unterminated":    {0x80},
		"non-minimal 0":   {0x80, 0x00},
		"non-minimal 1":   {0x81, 0x00},
		"overlong stream": {0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02},
	} {
		if _, _, err := ReadUvarint(b); err == nil {
			t.Errorf("%s: ReadUvarint accepted %v", name, b)
		}
	}
}

// FuzzBinaryMatrix proves the wire decoder is total (never panics) and
// strict: any accepted payload re-encodes byte-identically, so there
// is exactly one wire form per matrix and cached/hashed bytes are
// stable.
func FuzzBinaryMatrix(f *testing.F) {
	rng := rand.New(rand.NewSource(11))
	m, _ := DRegular(16, 4, 512, rng)
	f.Add(m.EncodeBinary())
	f.Add(MustNew(1).EncodeBinary())
	f.Add([]byte{'U', 'S', 'W', 'M', 1, 2, 0, 0})
	f.Add([]byte{'U', 'S', 'W', 'M', 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodeMatrixBinary(data)
		if err != nil {
			return
		}
		re := m.EncodeBinary()
		if !bytes.Equal(re, data) {
			t.Fatalf("accepted payload did not round-trip: %d in, %d out", len(data), len(re))
		}
	})
}
