package comm

import (
	"crypto/sha256"
	"encoding/binary"
	"math/rand"
	"strings"
	"testing"
)

func TestContentHashEqualMatrices(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m, err := DRegular(32, 8, 1024, rng)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := m.ContentHash(), m.Clone().ContentHash(); got != want {
		t.Fatalf("clone hashes differently: %s vs %s", got, want)
	}
	// Rebuilding the same traffic through a different entry order must
	// hash identically: the fingerprint is canonical, not insertion-
	// ordered.
	rebuilt := MustNew(m.N())
	msgs := m.Messages()
	for i := len(msgs) - 1; i >= 0; i-- {
		rebuilt.Set(msgs[i].Src, msgs[i].Dst, msgs[i].Bytes)
	}
	if got, want := rebuilt.ContentHash(), m.ContentHash(); got != want {
		t.Fatalf("entry order changed the hash: %s vs %s", got, want)
	}
}

func TestContentHashSensitivity(t *testing.T) {
	base := MustNew(8)
	base.Set(0, 1, 100)
	base.Set(2, 3, 200)

	bumped := base.Clone()
	bumped.Set(2, 3, 201)
	if base.ContentHash() == bumped.ContentHash() {
		t.Error("changing one message size did not change the hash")
	}

	moved := base.Clone()
	moved.Set(2, 3, 0)
	moved.Set(3, 2, 200)
	if base.ContentHash() == moved.ContentHash() {
		t.Error("moving a message did not change the hash")
	}

	bigger := MustNew(16)
	bigger.Set(0, 1, 100)
	bigger.Set(2, 3, 200)
	if base.ContentHash() == bigger.ContentHash() {
		t.Error("matrices of different size hash equal")
	}
}

func TestDigestFieldBoundaries(t *testing.T) {
	a := NewDigest()
	a.String("ab")
	a.String("c")
	b := NewDigest()
	b.String("a")
	b.String("bc")
	if a.Hex() == b.Hex() {
		t.Error("string field boundaries are not part of the hash")
	}

	c := NewDigest()
	c.Int64(3)
	d := NewDigest()
	d.String("3")
	if c.Hex() == d.Hex() {
		t.Error("int and string fields with the same bytes hash equal")
	}

	e := NewDigest()
	e.Uint64(7)
	f := NewDigest()
	f.Int64(7)
	if e.Hex() == f.Hex() {
		t.Error("uint and int field tags are not distinguished")
	}
}

func TestDigestExtendsAfterSum(t *testing.T) {
	d := NewDigest()
	d.Int64(1)
	first := d.Hex()
	d.Int64(2)
	if d.Hex() == first {
		t.Error("writes after Sum did not extend the digest")
	}
}

// TestDigestStreamIsTaggedFields pins the hashed byte stream: whatever
// the digest buffers, the hash is SHA-256 over the plain concatenation
// of tagged fields — a type byte, then a big-endian uint64, then the
// bytes of a string. The sequence crosses the buffer boundary in both
// integer and string fields, and sums midway.
func TestDigestStreamIsTaggedFields(t *testing.T) {
	d := NewDigest()
	var stream []byte
	field := func(tag byte, v uint64) {
		stream = append(stream, tag)
		stream = binary.BigEndian.AppendUint64(stream, v)
	}
	check := func(at string) {
		t.Helper()
		if got, want := d.Sum(), sha256.Sum256(stream); got != want {
			t.Fatalf("%s: digest %x, want SHA-256 of the tagged stream %x", at, got, want)
		}
	}
	long := strings.Repeat("0123456789abcdef", 100) // longer than the buffer
	for i := 0; i < 300; i++ {
		switch i % 7 {
		case 0:
			d.String("phase")
			field('s', 5)
			stream = append(stream, "phase"...)
		case 3:
			d.Uint64(uint64(i) << 40)
			field('u', uint64(i)<<40)
		case 5:
			d.Bool(i%2 == 1)
			field('b', uint64(i%2))
		default:
			d.Int64(int64(-i))
			field('i', uint64(int64(-i)))
		}
		if i == 150 {
			check("midway")
			d.String(long)
			field('s', uint64(len(long)))
			stream = append(stream, long...)
		}
	}
	d.Float64(0.5)
	field('f', 0x3fe0000000000000)
	check("end")
}
