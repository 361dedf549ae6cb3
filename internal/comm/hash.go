package comm

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
)

// Digest accumulates a canonical content hash over typed fields. Every
// write is tagged with a one-byte type marker and, for strings, a
// length prefix, so distinct field sequences can never collide by
// concatenation ("ab"+"c" vs "a"+"bc") or by type confusion (the int64
// 3 vs the string "3"). The scheduling service keys its memoization
// cache with Digests over (matrix, algorithm, topology, params); two
// requests share a cache slot iff their digests agree field for field.
//
// Fields are staged in a fixed buffer and handed to SHA-256 in large
// writes, one per 64 integer fields; the hashed byte stream is exactly
// the concatenation of the tagged fields.
type Digest struct {
	h   hash.Hash
	n   int // staged bytes in buf
	buf [digestBufLen]byte
}

// digestBufLen holds 64 tagged integer fields: nine SHA-256 blocks.
const digestBufLen = 64 * 9

// NewDigest returns an empty SHA-256-backed digest.
func NewDigest() *Digest {
	return &Digest{h: sha256.New()}
}

// flush hands the staged bytes to the hash.
func (d *Digest) flush() {
	d.h.Write(d.buf[:d.n])
	d.n = 0
}

func (d *Digest) tagged(tag byte, v uint64) {
	if d.n+9 > len(d.buf) {
		d.flush()
	}
	d.buf[d.n] = tag
	binary.BigEndian.PutUint64(d.buf[d.n+1:], v)
	d.n += 9
}

// Int64 mixes one signed integer field.
func (d *Digest) Int64(v int64) { d.tagged('i', uint64(v)) }

// Uint64 mixes one unsigned integer field.
func (d *Digest) Uint64(v uint64) { d.tagged('u', v) }

// Float64 mixes one float field by its IEEE-754 bit pattern.
func (d *Digest) Float64(v float64) { d.tagged('f', math.Float64bits(v)) }

// Bool mixes one boolean field.
func (d *Digest) Bool(v bool) {
	x := uint64(0)
	if v {
		x = 1
	}
	d.tagged('b', x)
}

// String mixes one length-prefixed string field.
func (d *Digest) String(s string) {
	d.tagged('s', uint64(len(s)))
	for len(s) > 0 {
		if d.n == len(d.buf) {
			d.flush()
		}
		c := copy(d.buf[d.n:], s)
		d.n += c
		s = s[c:]
	}
}

// Sum returns the 32-byte hash of everything mixed so far. The digest
// remains usable; further writes extend the same stream.
func (d *Digest) Sum() [32]byte {
	d.flush()
	var out [32]byte
	d.h.Sum(out[:0])
	return out
}

// Hex returns Sum as a lowercase hex string — the wire form of cache
// keys and ETags.
func (d *Digest) Hex() string {
	s := d.Sum()
	return hex.EncodeToString(s[:])
}

// Fingerprint mixes the matrix into d in canonical form: the dimension
// followed by the nonzero entries in row-major order as (src, dst,
// bytes) triples. Zero entries contribute nothing, so a dense and a
// sparse representation of the same traffic hash identically, and two
// matrices hash equal iff Equal reports true.
func (m *Matrix) Fingerprint(d *Digest) {
	d.String("matrix")
	d.Int64(int64(m.n))
	for i := 0; i < m.n; i++ {
		row := m.data[i*m.n : (i+1)*m.n]
		for j, b := range row {
			if b > 0 {
				d.Int64(int64(i))
				d.Int64(int64(j))
				d.Int64(b)
			}
		}
	}
}

// ContentHash returns the canonical hex hash of the matrix alone.
func (m *Matrix) ContentHash() string {
	d := NewDigest()
	m.Fingerprint(d)
	return d.Hex()
}
