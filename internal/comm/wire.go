package comm

// Binary wire encoding of the communication matrix: the compact,
// self-describing form the unschedd service serves when a client asks
// for application/x-unsched-binary. A dense n x n matrix is almost
// always sparse in messages (the paper's workloads are d-regular with
// d << n), so the wire form is the CCOM idea applied to serialization:
// per-row entry lists, with destination columns delta-encoded as
// varints and sizes as varints. A 1024-node d=8 matrix is ~40 KB
// instead of the ~300 KB of its JSON triples, before compression.
//
// The encoding is canonical: rows in ascending order, columns strictly
// ascending within a row, every varint minimal. The decoder is total
// (arbitrary input yields an error, never a panic — FuzzBinaryMatrix)
// and strict: it rejects non-canonical input, so any accepted payload
// re-encodes byte-identically. Canonical bytes make the format safe to
// cache, checksum, and content-hash.
//
// Layout (after the 5-byte header "USWM" + version 1), column
// oriented — all counts, then all column gaps, then all sizes — so the
// service's gzip layer sees long runs of similar varints (a uniform
// workload's size column is one repeated value) instead of interleaved
// noise:
//
//	uvarint n                      matrix dimension, 1..MaxReadNodes
//	n uvarints                     per-row nonzero entry counts c_0..c_{n-1}
//	sum(c_i) uvarints              column gaps, row-major, ascending within
//	                               a row: first col+1, then col-prev
//	sum(c_i) uvarints              message sizes, row-major, each >= 1
//
// No trailing bytes are allowed, and the entries must pass
// CheckTriples: no column equals its row.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// MatrixWireVersion is the format version AppendBinary writes and
// DecodeMatrixBinary accepts.
const MatrixWireVersion = 1

const matrixWireHeaderLen = 5 // magic + version

var matrixWireMagic = [4]byte{'U', 'S', 'W', 'M'}

var (
	errWireTooShort = errors.New("comm: binary matrix truncated")
	errWireMagic    = errors.New("comm: bad binary matrix magic")
	errWireVersion  = errors.New("comm: unsupported binary matrix version")
	errWireVarint   = errors.New("comm: bad varint in binary matrix")
	errWireTrailing = errors.New("comm: trailing bytes after binary matrix")
	errWireRowCount = errors.New("comm: binary matrix row entry count out of range")
	errWireColumn   = errors.New("comm: binary matrix column out of range")
)

// AppendUvarint appends the minimal varint encoding of v to dst. It is
// the primitive shared by the matrix codec and the service's binary
// response envelope.
func AppendUvarint(dst []byte, v uint64) []byte {
	return binary.AppendUvarint(dst, v)
}

// ReadUvarint decodes one strictly minimal varint from the front of b,
// returning the value and the number of bytes consumed. Non-minimal
// encodings (e.g. 0x80 0x00 for zero) are rejected: every accepted
// wire payload must have exactly one byte representation, so that
// decode-then-encode round-trips byte-identically.
func ReadUvarint(b []byte) (uint64, int, error) {
	v, k := binary.Uvarint(b)
	if k <= 0 {
		return 0, 0, errWireVarint
	}
	// Minimality: k bytes were consumed, so v must need k bytes.
	var scratch [binary.MaxVarintLen64]byte
	if binary.PutUvarint(scratch[:], v) != k {
		return 0, 0, errWireVarint
	}
	return v, k, nil
}

// AppendBinary appends the canonical binary wire encoding of m to dst
// and returns the extended slice. The output decodes with
// DecodeMatrixBinary; encoding the decoded matrix reproduces the same
// bytes.
func (m *Matrix) AppendBinary(dst []byte) []byte {
	dst = appendMatrixWireHeader(dst, m.n)
	for i := 0; i < m.n; i++ {
		count := 0
		for _, b := range m.data[i*m.n : (i+1)*m.n] {
			if b > 0 {
				count++
			}
		}
		dst = binary.AppendUvarint(dst, uint64(count))
	}
	for i := 0; i < m.n; i++ {
		prev := -1
		for j, b := range m.data[i*m.n : (i+1)*m.n] {
			if b > 0 {
				dst = binary.AppendUvarint(dst, uint64(j-prev))
				prev = j
			}
		}
	}
	for _, b := range m.data {
		if b > 0 {
			dst = binary.AppendUvarint(dst, uint64(b))
		}
	}
	return dst
}

// AppendBinaryTriples appends the canonical binary wire encoding of
// the n-node matrix whose nonzero entries are msgs, [src, dst, bytes]
// triples, without building the n x n matrix: the bytes AppendBinary
// writes for it. msgs must list the entries in strictly ascending
// row-major order, as Messages does, with every node in [0, n) and
// every size positive. The caller checks that: other input encodes
// another matrix, or bytes DecodeMatrixBinary rejects.
func AppendBinaryTriples(dst []byte, n int, msgs [][3]int64) []byte {
	dst = appendMatrixWireHeader(dst, n)
	k := 0
	for i := int64(0); i < int64(n); i++ {
		start := k
		for k < len(msgs) && msgs[k][0] == i {
			k++
		}
		dst = binary.AppendUvarint(dst, uint64(k-start))
	}
	row, prev := int64(-1), int64(-1)
	for _, msg := range msgs {
		if msg[0] != row {
			row, prev = msg[0], -1
		}
		dst = binary.AppendUvarint(dst, uint64(msg[1]-prev))
		prev = msg[1]
	}
	for _, msg := range msgs {
		dst = binary.AppendUvarint(dst, uint64(msg[2]))
	}
	return dst
}

// appendMatrixWireHeader appends the header and the dimension that
// open every binary matrix.
func appendMatrixWireHeader(dst []byte, n int) []byte {
	dst = append(dst, matrixWireMagic[:]...)
	dst = append(dst, MatrixWireVersion)
	return binary.AppendUvarint(dst, uint64(n))
}

// EncodeBinary returns the canonical binary wire encoding of m.
func (m *Matrix) EncodeBinary() []byte {
	return m.AppendBinary(make([]byte, 0, BinarySizeHint(m.n, m.MessageCount())))
}

// BinarySizeHint is the room to reserve for the binary encoding of an
// n-node matrix of count messages. 2 bytes per varint is the common
// case for the sizes the paper uses; growing once more on dense rows
// is fine.
func BinarySizeHint(n, count int) int {
	return matrixWireHeaderLen + 4*count + n + 8
}

// DecodeMatrixBinary parses the binary wire form produced by
// AppendBinary: DecodeBinaryTriples, then FromTriples.
func DecodeMatrixBinary(b []byte) (*Matrix, error) {
	n, msgs, err := DecodeBinaryTriples(b)
	if err != nil {
		return nil, err
	}
	return FromTriples(n, msgs)
}

// DecodeBinaryTriples parses the binary wire form produced by
// AppendBinary into the matrix's dimension and its nonzero entries as
// [src, dst, bytes] triples in row-major order, without building the
// n x n matrix. The decoder is total and strict: malformed, truncated
// or non-canonical input — columns out of order, non-minimal varints,
// trailing bytes — and entries CheckTriples rejects yield an error,
// never a panic, and any accepted payload re-encodes to exactly the
// input bytes.
func DecodeBinaryTriples(b []byte) (int, [][3]int64, error) {
	if len(b) < matrixWireHeaderLen {
		return 0, nil, errWireTooShort
	}
	if [4]byte(b[:4]) != matrixWireMagic {
		return 0, nil, errWireMagic
	}
	if b[4] != MatrixWireVersion {
		return 0, nil, errWireVersion
	}
	rest := b[matrixWireHeaderLen:]
	nv, k, err := ReadUvarint(rest)
	if err != nil {
		return 0, nil, err
	}
	rest = rest[k:]
	// Every row costs at least one byte (its count varint), so a header
	// promising n rows needs at least n more bytes: what the decoder
	// allocates stays within a multiple of its input whatever n says,
	// and CheckTriples bounds n at the end.
	if nv > uint64(len(rest)) {
		return 0, nil, errWireTooShort
	}
	n := int(nv)
	counts := make([]int, n)
	total := uint64(0)
	for i := 0; i < n; i++ {
		cv, k, err := ReadUvarint(rest)
		if err != nil {
			return 0, nil, err
		}
		rest = rest[k:]
		if cv > uint64(n) {
			return 0, nil, errWireRowCount
		}
		counts[i] = int(cv)
		total += cv
	}
	// Each entry contributes one delta varint and one size varint, each
	// at least a byte: bound the total before walking the columns.
	if uint64(len(rest)) < 2*total {
		return 0, nil, errWireTooShort
	}
	// Column positions for every row, then every size, row-major.
	msgs := make([][3]int64, 0, total)
	for i := 0; i < n; i++ {
		prev := -1
		for e := 0; e < counts[i]; e++ {
			delta, k, err := ReadUvarint(rest)
			if err != nil {
				return 0, nil, err
			}
			rest = rest[k:]
			if delta == 0 || delta > uint64(n) {
				return 0, nil, errWireColumn
			}
			col := prev + int(delta)
			if col >= n {
				return 0, nil, errWireColumn
			}
			msgs = append(msgs, [3]int64{int64(i), int64(col)})
			prev = col
		}
	}
	for e := range msgs {
		size, k, err := ReadUvarint(rest)
		if err != nil {
			return 0, nil, err
		}
		rest = rest[k:]
		if size > math.MaxInt64 {
			return 0, nil, fmt.Errorf("comm: binary matrix message size %d overflows int64", size)
		}
		msgs[e][2] = int64(size)
	}
	if len(rest) != 0 {
		return 0, nil, errWireTrailing
	}
	if err := CheckTriples(n, msgs); err != nil {
		return 0, nil, err
	}
	return n, msgs, nil
}
