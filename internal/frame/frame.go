// Package frame is the self-describing, checksummed key/value record
// both persistent stores write: the daemon's disk cache (magic "USCR",
// one frame per file) and the quality store (magic "USQR", one file of
// concatenated frames). The magic is the caller's, so one store can
// never mistake the other's records for its own; any size cap, and
// whether a buffer holds one frame or a stream, are the caller's too.
//
// Frame layout (all integers big-endian):
//
//	offset size  field
//	0      4     magic
//	4      1     format version (1)
//	5      1     key length K
//	6      4     value length V
//	10     K     key
//	10+K   V     value
//	10+K+V 4     CRC-32C (Castagnoli) over bytes [0, 10+K+V)
//
// The key lives inside the frame, so a renamed or copied file still
// decodes to the right slot, and a peer can validate a shipped frame
// without trusting its name.
package frame

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
)

const (
	version   = 1
	headerLen = 4 + 1 + 1 + 4
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ErrKey rejects an empty or over-long key, and a caller's key check.
var ErrKey = errors.New("bad record key")

var (
	errTooShort = errors.New("record truncated")
	errMagic    = errors.New("bad record magic")
	errVersion  = errors.New("unsupported record version")
	errChecksum = errors.New("record checksum mismatch")
)

// Encode serializes one frame under magic. Keys are hex content
// hashes (64 bytes); an empty key or one longer than the 1-byte length
// field allows is ErrKey.
func Encode(magic [4]byte, key string, value []byte) ([]byte, error) {
	if len(key) == 0 || len(key) > 255 {
		return nil, ErrKey
	}
	buf := make([]byte, headerLen+len(key)+len(value)+4)
	copy(buf, magic[:])
	buf[4] = version
	buf[5] = byte(len(key))
	binary.BigEndian.PutUint32(buf[6:10], uint32(len(value)))
	copy(buf[headerLen:], key)
	copy(buf[headerLen+len(key):], value)
	sum := crc32.Checksum(buf[:len(buf)-4], crcTable)
	binary.BigEndian.PutUint32(buf[len(buf)-4:], sum)
	return buf, nil
}

// Decode parses and verifies the frame at the front of b, which must
// carry magic, and returns the bytes after it. It is total: arbitrary
// input yields an error, never a panic, and no length field is trusted
// before it is checked against the actual buffer. value aliases b.
func Decode(magic [4]byte, b []byte) (key string, value, rest []byte, err error) {
	if len(b) < headerLen+4 {
		return "", nil, nil, errTooShort
	}
	if [4]byte(b[:4]) != magic {
		return "", nil, nil, errMagic
	}
	if b[4] != version {
		return "", nil, nil, errVersion
	}
	klen := int(b[5])
	if klen == 0 {
		return "", nil, nil, ErrKey
	}
	vlen := binary.BigEndian.Uint32(b[6:10])
	if uint64(len(b)) < uint64(headerLen+klen+4)+uint64(vlen) {
		return "", nil, nil, errTooShort
	}
	total := headerLen + klen + int(vlen) + 4
	if crc32.Checksum(b[:total-4], crcTable) != binary.BigEndian.Uint32(b[total-4:total]) {
		return "", nil, nil, errChecksum
	}
	return string(b[headerLen : headerLen+klen]), b[headerLen+klen : total-4], b[total:], nil
}
