package quality

// The store's on-disk codec: a frame.Encode frame, the same one the
// service's disk cache writes, under its own magic "USQR" so a quality
// store can never be mistaken for a cache record or vice versa. The
// key is the hex content hash of the record identity, the value the
// JSON-encoded Record. Unlike the cache — one record per file — a
// quality store is ONE file of concatenated frames, appended under a
// lock, so DecodeRecord is streaming: it consumes one frame from the
// front of the buffer and returns the rest.

import (
	"errors"

	"unsched/internal/frame"
)

// maxRecordValueBytes caps one frame's value. Values are small JSON
// documents; anything bigger is garbage by definition.
const maxRecordValueBytes = 1 << 20

var recordMagic = [4]byte{'U', 'S', 'Q', 'R'}

var errRecordLength = errors.New("quality: record length out of range")

// EncodeRecord serializes one store frame.
func EncodeRecord(key string, value []byte) ([]byte, error) {
	if len(value) > maxRecordValueBytes {
		return nil, errRecordLength
	}
	return frame.Encode(recordMagic, key, value)
}

// DecodeRecord parses and verifies the first frame of b, returning
// the remainder for the caller's next call. It is total: arbitrary
// input yields an error, never a panic (fuzzed by FuzzQualityRecord).
func DecodeRecord(b []byte) (key string, value []byte, rest []byte, err error) {
	key, value, rest, err = frame.Decode(recordMagic, b)
	if err == nil && len(value) > maxRecordValueBytes {
		return "", nil, nil, errRecordLength
	}
	return key, value, rest, err
}
