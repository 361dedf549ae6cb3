package service

// Disk persistence for the schedule cache. Every memoized response is
// a pure function of its content-hash key (PR 2), so persisted bytes
// are valid forever and across servers: a daemon restarted on the same
// directory serves yesterday's schedules byte-identically instead of
// re-paying every O(n^2) computation. The layer is deliberately dumb —
// one self-describing, checksummed record per file, named by key —
// because that is exactly the shape a future peer-fill/sharding layer
// can ship between daemons.
//
// Write-through is asynchronous and batched: put enqueues under a
// mutex and a single writer goroutine drains the queue to disk, so the
// hot path never blocks on fsync. Corrupt or truncated records are
// skipped (and deleted) on load, counted, and never crash startup.
// Disk usage is bounded by entry count and total bytes; GC removes the
// oldest records first, which under LRU-ish traffic are also the least
// valuable.

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Record layout (all integers big-endian):
//
//	offset size  field
//	0      4     magic "USCR"
//	4      1     format version (1)
//	5      1     key length K
//	6      4     value length V
//	10     K     key (the hex content hash)
//	10+K   V     value (the marshaled result document)
//	10+K+V 4     CRC-32C (Castagnoli) over bytes [0, 10+K+V)
//
// The record is self-describing: the key lives inside the record, so a
// renamed or copied file still decodes to the right cache slot, and a
// peer can validate a shipped record without trusting its filename.
const (
	recordVersion   = 1
	recordHeaderLen = 4 + 1 + 1 + 4
	recordSuffix    = ".rec"
	// maxRecordBytes caps one record's total size on load. Values are
	// marshaled result documents for requests capped at maxRequestBytes,
	// so twice that is generous headroom; anything larger in the cache
	// dir is garbage by definition.
	maxRecordBytes = 2 * maxRequestBytes
)

var recordMagic = [4]byte{'U', 'S', 'C', 'R'}

var crcTable = crc32.MakeTable(crc32.Castagnoli)

var (
	errRecordTooShort = errors.New("record truncated")
	errRecordMagic    = errors.New("bad record magic")
	errRecordVersion  = errors.New("unsupported record version")
	errRecordLength   = errors.New("record length mismatch")
	errRecordChecksum = errors.New("record checksum mismatch")
	errRecordKey      = errors.New("bad record key")
	// errRecordJSON rejects a well-framed record whose value is not a
	// JSON document. The codec itself stores opaque values; the service
	// checks this where an outside record enters the memo cache.
	errRecordJSON = errors.New("record value is not JSON")
)

// encodeRecord serializes one cache entry. Keys are hex content hashes
// (64 bytes); anything that does not fit the 1-byte length is a
// programming error surfaced as errRecordKey.
func encodeRecord(key string, value []byte) ([]byte, error) {
	if len(key) == 0 || len(key) > 255 {
		return nil, errRecordKey
	}
	buf := make([]byte, recordHeaderLen+len(key)+len(value)+4)
	copy(buf, recordMagic[:])
	buf[4] = recordVersion
	buf[5] = byte(len(key))
	binary.BigEndian.PutUint32(buf[6:10], uint32(len(value)))
	copy(buf[recordHeaderLen:], key)
	copy(buf[recordHeaderLen+len(key):], value)
	sum := crc32.Checksum(buf[:len(buf)-4], crcTable)
	binary.BigEndian.PutUint32(buf[len(buf)-4:], sum)
	return buf, nil
}

// decodeRecord parses and verifies one record. It is total: arbitrary
// input yields an error, never a panic, and no length field is trusted
// before it is checked against the actual buffer (fuzzed by
// FuzzCacheRecord).
func decodeRecord(b []byte) (key string, value []byte, err error) {
	if len(b) < recordHeaderLen+4 {
		return "", nil, errRecordTooShort
	}
	if [4]byte(b[:4]) != recordMagic {
		return "", nil, errRecordMagic
	}
	if b[4] != recordVersion {
		return "", nil, errRecordVersion
	}
	klen := int(b[5])
	vlen := int(binary.BigEndian.Uint32(b[6:10]))
	if klen == 0 {
		return "", nil, errRecordKey
	}
	if len(b) != recordHeaderLen+klen+vlen+4 {
		return "", nil, errRecordLength
	}
	body := b[:len(b)-4]
	if crc32.Checksum(body, crcTable) != binary.BigEndian.Uint32(b[len(b)-4:]) {
		return "", nil, errRecordChecksum
	}
	key = string(b[recordHeaderLen : recordHeaderLen+klen])
	value = b[recordHeaderLen+klen : len(b)-4]
	return key, value, nil
}

// validRecordKey reports whether key is safe to use as a filename:
// real keys are lowercase-hex content hashes, and restricting to that
// set keeps path traversal structurally impossible.
func validRecordKey(key string) bool {
	if len(key) == 0 || len(key) > 255 {
		return false
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// diskStore is the disk half of the schedule cache: an async,
// batched write-through log of one checksummed record file per key,
// bounded by entry count and total bytes.
type diskStore struct {
	dir        string
	maxEntries int
	maxBytes   int64

	mu      sync.Mutex
	pending map[string][]byte // queued write-throughs; latest value wins
	closed  bool
	wake    chan struct{} // buffered(1): nudges the writer
	done    chan struct{} // writer exited; close() waits on it

	// Observability, surfaced on /metrics.
	loadErrors  atomic.Int64 // corrupt/unreadable records skipped
	writeErrors atomic.Int64 // failed record writes or GC removals
	records     atomic.Int64 // record files on disk after the last GC
	bytes       atomic.Int64 // their total size
}

// newDiskStore opens (creating if needed) the store directory. The
// caller loads before calling start, so warm restart never races the
// writer's GC.
func newDiskStore(dir string, maxEntries int, maxBytes int64) (*diskStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &diskStore{
		dir:        dir,
		maxEntries: maxEntries,
		maxBytes:   maxBytes,
		pending:    make(map[string][]byte),
		wake:       make(chan struct{}, 1),
		done:       make(chan struct{}),
	}, nil
}

// start launches the writer goroutine.
func (ds *diskStore) start() { go ds.run() }

// enqueue queues one write-through. It never blocks on I/O: the record
// is written by the writer goroutine on its next batch. After close,
// writes are dropped — the server is shutting down and the response
// was already served from memory.
func (ds *diskStore) enqueue(key string, value []byte) {
	if !validRecordKey(key) {
		ds.writeErrors.Add(1)
		return
	}
	ds.mu.Lock()
	if ds.closed {
		ds.mu.Unlock()
		return
	}
	ds.pending[key] = value
	ds.mu.Unlock()
	select {
	case ds.wake <- struct{}{}:
	default:
	}
}

// close flushes every queued record to disk and stops the writer. It
// is the durability point of Server.Close: a daemon that shut down
// cleanly restarts with everything it had memoized.
func (ds *diskStore) close() {
	ds.mu.Lock()
	if ds.closed {
		ds.mu.Unlock()
		<-ds.done
		return
	}
	ds.closed = true
	ds.mu.Unlock()
	select {
	case ds.wake <- struct{}{}:
	default:
	}
	<-ds.done
}

// run is the writer loop: drain the pending map as one batch, persist
// it, garbage-collect, repeat. Exits when close() is called and the
// queue is empty.
func (ds *diskStore) run() {
	defer close(ds.done)
	for {
		ds.mu.Lock()
		batch := ds.pending
		if len(batch) == 0 {
			if ds.closed {
				ds.mu.Unlock()
				return
			}
			ds.mu.Unlock()
			<-ds.wake
			continue
		}
		ds.pending = make(map[string][]byte)
		ds.mu.Unlock()
		for key, value := range batch {
			if err := ds.writeRecord(key, value); err != nil {
				ds.writeErrors.Add(1)
			}
		}
		ds.gc()
	}
}

// writeRecord persists one record atomically: temp file, fsync,
// rename. A crash mid-write leaves either the old record or a temp
// file the next GC sweeps up — never a half-written record under the
// real name (and even that would be caught by the checksum).
func (ds *diskStore) writeRecord(key string, value []byte) error {
	rec, err := encodeRecord(key, value)
	if err != nil {
		return err
	}
	f, err := os.CreateTemp(ds.dir, ".tmp-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	if _, err = f.Write(rec); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, filepath.Join(ds.dir, key+recordSuffix))
	}
	if err != nil {
		os.Remove(tmp)
	}
	return err
}

// diskRecord is one on-disk record file, as seen by load and gc.
type diskRecord struct {
	name  string
	mtime time.Time
	size  int64
}

// scan lists the record files (and orphaned temp files, which it
// removes) in age order, oldest first.
func (ds *diskStore) scan() []diskRecord {
	entries, err := os.ReadDir(ds.dir)
	if err != nil {
		ds.loadErrors.Add(1)
		return nil
	}
	var recs []diskRecord
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		name := e.Name()
		if len(name) > len(recordSuffix) && name[len(name)-len(recordSuffix):] == recordSuffix {
			info, err := e.Info()
			if err != nil {
				continue // vanished between ReadDir and Info
			}
			recs = append(recs, diskRecord{name: name, mtime: info.ModTime(), size: info.Size()})
		} else if len(name) > 4 && name[:4] == ".tmp" {
			// A crash between CreateTemp and Rename left this behind.
			os.Remove(filepath.Join(ds.dir, name))
		}
	}
	sort.Slice(recs, func(i, j int) bool {
		if !recs[i].mtime.Equal(recs[j].mtime) {
			return recs[i].mtime.Before(recs[j].mtime)
		}
		return recs[i].name < recs[j].name
	})
	return recs
}

// gc bounds disk usage: while over the entry or byte budget, the
// oldest record goes. It also refreshes the records/bytes gauges.
func (ds *diskStore) gc() {
	recs := ds.scan()
	var total int64
	for _, r := range recs {
		total += r.size
	}
	i := 0
	for ; i < len(recs) && (len(recs)-i > ds.maxEntries || total > ds.maxBytes); i++ {
		if err := os.Remove(filepath.Join(ds.dir, recs[i].name)); err != nil {
			ds.writeErrors.Add(1)
		}
		total -= recs[i].size
	}
	ds.records.Store(int64(len(recs) - i))
	ds.bytes.Store(total)
}

// load warm-starts the memory cache: it reads the newest maxEntries
// records and feeds them to accept in oldest-to-newest order, so the
// restored LRU order matches the records' ages. Corrupt, truncated,
// oversized, or unreadable records — and records accept refuses — are
// counted, deleted, and skipped: a damaged cache dir costs
// recomputation, never a crashed daemon. Returns the number of entries
// restored.
func (ds *diskStore) load(accept func(key string, value []byte) bool) int {
	recs := ds.scan()
	if len(recs) > ds.maxEntries {
		recs = recs[len(recs)-ds.maxEntries:] // newest maxEntries
	}
	loaded := 0
	for _, r := range recs {
		path := filepath.Join(ds.dir, r.name)
		if r.size > maxRecordBytes {
			ds.dropCorrupt(path)
			continue
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			ds.loadErrors.Add(1)
			continue
		}
		key, value, err := decodeRecord(raw)
		if err != nil || !validRecordKey(key) || key+recordSuffix != r.name {
			// A record whose embedded key disagrees with its filename was
			// tampered with or mis-copied; its bytes cannot be trusted to
			// belong to either key.
			ds.dropCorrupt(path)
			continue
		}
		if !accept(key, value) {
			ds.dropCorrupt(path)
			continue
		}
		loaded++
	}
	ds.gc()
	return loaded
}

// dropCorrupt counts and removes an undecodable record so it cannot
// occupy the disk budget (or fail again) on every future restart.
func (ds *diskStore) dropCorrupt(path string) {
	ds.loadErrors.Add(1)
	os.Remove(path)
}
