package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// fakeKey fabricates a valid-looking 64-hex cache key.
func fakeKey(i int) string { return fmt.Sprintf("%064x", i) }

func TestRecordRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		key   string
		value string
	}{
		{fakeKey(1), "a marshaled result document"},
		{fakeKey(2), ""},
		{strings.Repeat("f", 64), strings.Repeat("x", 100000)},
	} {
		rec, err := encodeRecord(tc.key, []byte(tc.value))
		if err != nil {
			t.Fatalf("encode(%q): %v", tc.key, err)
		}
		key, value, err := decodeRecord(rec)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if key != tc.key || string(value) != tc.value {
			t.Errorf("round trip: got (%q, %d bytes), want (%q, %d bytes)",
				key, len(value), tc.key, len(tc.value))
		}
	}
	// Keys that cannot fit the 1-byte length field are refused.
	if _, err := encodeRecord("", nil); err == nil {
		t.Error("empty key encoded")
	}
	if _, err := encodeRecord(strings.Repeat("a", 256), nil); err == nil {
		t.Error("256-byte key encoded")
	}
}

// TestRecordDecodeRejectsDamage: every class of damage the format is
// designed to catch — truncation, bit flips, wrong magic/version,
// length lies, trailing garbage — must come back as an error, never a
// bad (key, value) or a panic.
func TestRecordDecodeRejectsDamage(t *testing.T) {
	rec, err := encodeRecord(fakeKey(7), []byte("the value"))
	if err != nil {
		t.Fatal(err)
	}
	damage := map[string][]byte{
		"empty":            {},
		"header only":      rec[:recordHeaderLen],
		"truncated value":  rec[:len(rec)-6],
		"truncated crc":    rec[:len(rec)-1],
		"trailing garbage": append(append([]byte{}, rec...), 0xEE),
	}
	flip := func(off int) []byte {
		b := append([]byte{}, rec...)
		b[off] ^= 0x40
		return b
	}
	damage["bad magic"] = flip(0)
	damage["bad version"] = flip(4)
	damage["length lie"] = flip(9)
	damage["flipped key byte"] = flip(recordHeaderLen)
	damage["flipped value byte"] = flip(recordHeaderLen + 64)
	damage["flipped crc byte"] = flip(len(rec) - 1)
	for name, b := range damage {
		if _, _, err := decodeRecord(b); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
}

// TestWarmRestartServesPersistedResponses is the acceptance test of
// the tentpole: a daemon restarted on the same -cache-dir serves a
// previously computed /v1/schedule and /v1/simulate response
// byte-identically as a cache hit, without recomputing either.
func TestWarmRestartServesPersistedResponses(t *testing.T) {
	dir := t.TempDir()

	schedReq := ScheduleRequest{Matrix: testMatrix(t, 32, 6, 2048, 17), Algorithm: "RS_NL", Seed: 5}
	var schedEnv, simEnv Envelope
	var simReq SimulateRequest
	{
		svc, err := NewServer(Options{Workers: 2, CacheDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		ts := startTestListener(t, svc)
		status, raw := postJSON(t, ts+"/v1/schedule", schedReq, &schedEnv)
		if status != http.StatusOK {
			t.Fatalf("schedule: status %d: %s", status, raw)
		}
		var res ScheduleResult
		if err := json.Unmarshal(schedEnv.Result, &res); err != nil {
			t.Fatal(err)
		}
		simReq = SimulateRequest{Schedule: res.Schedule}
		if status, raw := postJSON(t, ts+"/v1/simulate", simReq, &simEnv); status != http.StatusOK {
			t.Fatalf("simulate: status %d: %s", status, raw)
		}
		svc.Close() // flushes the write-through queue
	}

	// A fresh daemon on the same directory: both responses must come
	// back byte-identical, as cache hits, with zero computations.
	svc, err := NewServer(Options{Workers: 2, CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ts := startTestListener(t, svc)
	if warm := svc.warmLoaded.Load(); warm != 2 {
		t.Errorf("warm-loaded %d entries, want 2", warm)
	}
	var schedEnv2, simEnv2 Envelope
	if status, raw := postJSON(t, ts+"/v1/schedule", schedReq, &schedEnv2); status != http.StatusOK {
		t.Fatalf("restarted schedule: status %d: %s", status, raw)
	}
	if !schedEnv2.Cached {
		t.Error("restarted daemon recomputed the schedule instead of serving the persisted record")
	}
	if schedEnv2.Key != schedEnv.Key || !bytes.Equal(schedEnv2.Result, schedEnv.Result) {
		t.Error("restarted schedule response is not byte-identical to the original")
	}
	if status, raw := postJSON(t, ts+"/v1/simulate", simReq, &simEnv2); status != http.StatusOK {
		t.Fatalf("restarted simulate: status %d: %s", status, raw)
	}
	if !simEnv2.Cached || !bytes.Equal(simEnv2.Result, simEnv.Result) {
		t.Error("restarted simulate response is not a byte-identical cache hit")
	}
	if misses := svc.cacheMisses[epSchedule].Load() + svc.cacheMisses[epSimulate].Load(); misses != 0 {
		t.Errorf("restarted daemon computed %d times; want pure cache hits", misses)
	}
	if errs := svc.disk.loadErrors.Load(); errs != 0 {
		t.Errorf("clean cache dir produced %d load errors", errs)
	}
}

// startTestListener mounts svc on a test listener whose lifetime (and the
// server's) is tied to the test. Unlike newTestServer it takes an
// already-built server, so restart tests can construct and Close their
// own instances mid-test; Close is idempotent, so the cleanup double
// close is harmless.
func startTestListener(t *testing.T, svc *Server) string {
	t.Helper()
	ts := httptest.NewServer(svc)
	t.Cleanup(func() {
		ts.Close()
		svc.Close()
	})
	return ts.URL
}

// TestWarmRestartSkipsCorruptRecords: damaged cache files are skipped,
// counted on the load-error counter, deleted, and never crash startup;
// intact records in the same directory still load.
func TestWarmRestartSkipsCorruptRecords(t *testing.T) {
	dir := t.TempDir()

	// One real response persisted by a real server.
	req := ScheduleRequest{Matrix: testMatrix(t, 16, 4, 1024, 9), Algorithm: "RS_N"}
	var env Envelope
	{
		svc, err := NewServer(Options{Workers: 1, CacheDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		ts := startTestListener(t, svc)
		if status, raw := postJSON(t, ts+"/v1/schedule", req, &env); status != http.StatusOK {
			t.Fatalf("schedule: status %d: %s", status, raw)
		}
		svc.Close()
	}

	// Vandalize the directory: pure garbage, a truncated record, a bit
	// flip in a valid record, and a record whose embedded key disagrees
	// with its filename.
	good, err := encodeRecord(fakeKey(100), []byte("payload"))
	if err != nil {
		t.Fatal(err)
	}
	write := func(name string, b []byte) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write(fakeKey(101)+recordSuffix, []byte("not a record at all"))
	write(fakeKey(102)+recordSuffix, good[:len(good)/2])
	flipped := append([]byte{}, good...)
	flipped[recordHeaderLen+70] ^= 1
	write(fakeKey(103)+recordSuffix, flipped)
	write(fakeKey(104)+recordSuffix, good) // embedded key is fakeKey(100)

	svc, err := NewServer(Options{Workers: 1, CacheDir: dir})
	if err != nil {
		t.Fatalf("startup on a vandalized cache dir failed: %v", err)
	}
	ts := startTestListener(t, svc)
	if warm := svc.warmLoaded.Load(); warm != 1 {
		t.Errorf("warm-loaded %d entries, want only the intact record", warm)
	}
	if errs := svc.disk.loadErrors.Load(); errs != 4 {
		t.Errorf("load errors = %d, want 4 corrupt records counted", errs)
	}
	// The intact record still serves, byte-identically.
	var env2 Envelope
	if status, _ := postJSON(t, ts+"/v1/schedule", req, &env2); status != http.StatusOK {
		t.Fatal("schedule after corrupt-tolerant load failed")
	}
	if !env2.Cached || !bytes.Equal(env2.Result, env.Result) {
		t.Error("intact record did not serve as a byte-identical hit")
	}
	// The corrupt files were removed so they cannot fail again on the
	// next restart.
	for _, k := range []int{101, 102, 103, 104} {
		if _, err := os.Stat(filepath.Join(dir, fakeKey(k)+recordSuffix)); !os.IsNotExist(err) {
			t.Errorf("corrupt record %d still on disk after load", k)
		}
	}
}

// TestWarmRestartSkipsNonJSONRecord: a record file that is correctly
// framed but whose value is not JSON is skipped, counted on
// unschedd_disk_load_errors_total and deleted, like any corrupt record.
// Before the check it loaded, and every JSON and binary /v1/schedule
// for its key answered 500 until the entry was evicted.
func TestWarmRestartSkipsNonJSONRecord(t *testing.T) {
	req := ScheduleRequest{Matrix: testMatrix(t, 16, 4, 1024, 9), Algorithm: "RS_N"}
	_, refTS := newTestServer(t, Options{Workers: 1})
	var want Envelope
	if status, raw := postJSON(t, refTS.URL+"/v1/schedule", req, &want); status != http.StatusOK {
		t.Fatalf("reference schedule: status %d: %s", status, raw)
	}

	dir := t.TempDir()
	rec, err := encodeRecord(want.Key, []byte("not json"))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, want.Key+recordSuffix)
	if err := os.WriteFile(path, rec, 0o644); err != nil {
		t.Fatal(err)
	}

	svc, ts := newTestServer(t, Options{Workers: 1, CacheDir: dir})
	if warm := svc.warmLoaded.Load(); warm != 0 {
		t.Errorf("warm-loaded %d entries, want the non-JSON record skipped", warm)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Error("non-JSON record still on disk after load")
	}
	if m := getMetrics(t, ts); !strings.Contains(m, "unschedd_disk_load_errors_total 1\n") {
		t.Error("non-JSON record not counted on unschedd_disk_load_errors_total")
	}
	var got Envelope
	if status, raw := postJSON(t, ts.URL+"/v1/schedule", req, &got); status != http.StatusOK {
		t.Fatalf("JSON schedule after skipped record: status %d: %s", status, raw)
	}
	if got.Cached || !bytes.Equal(got.Result, want.Result) {
		t.Error("schedule after skipped record is not the freshly computed result")
	}
	body, _ := json.Marshal(req)
	if resp, raw := doWire(t, ts, "/v1/schedule", body, map[string]string{"Accept": ContentTypeBinary}); resp.StatusCode != http.StatusOK {
		t.Fatalf("binary schedule after skipped record: status %d: %s", resp.StatusCode, raw)
	}
}

// TestDiskStoreBounds: GC holds the store to its entry and byte
// budgets, evicting oldest records first.
func TestDiskStoreBounds(t *testing.T) {
	dir := t.TempDir()
	ds, err := newDiskStore(dir, 4, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	base := time.Now().Add(-time.Hour)
	for i := 0; i < 10; i++ {
		if err := ds.writeRecord(fakeKey(i), []byte(strings.Repeat("v", 64))); err != nil {
			t.Fatal(err)
		}
		// Distinct mtimes make age order deterministic.
		if err := os.Chtimes(filepath.Join(dir, fakeKey(i)+recordSuffix), base, base.Add(time.Duration(i)*time.Second)); err != nil {
			t.Fatal(err)
		}
	}
	ds.gc()
	if got := ds.records.Load(); got != 4 {
		t.Errorf("after GC: %d records, want the 4 newest", got)
	}
	// The survivors are exactly the newest four.
	for i := 0; i < 10; i++ {
		_, err := os.Stat(filepath.Join(dir, fakeKey(i)+recordSuffix))
		if exists := err == nil; exists != (i >= 6) {
			t.Errorf("record %d: exists=%v after entry GC", i, exists)
		}
	}

	// Byte budget: records of ~150 bytes each under a 400-byte cap.
	dir2 := t.TempDir()
	ds2, err := newDiskStore(dir2, 100, 400)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if err := ds2.writeRecord(fakeKey(i), bytes.Repeat([]byte("x"), 76)); err != nil {
			t.Fatal(err)
		}
		if err := os.Chtimes(filepath.Join(dir2, fakeKey(i)+recordSuffix), base, base.Add(time.Duration(i)*time.Second)); err != nil {
			t.Fatal(err)
		}
	}
	ds2.gc()
	if got := ds2.bytes.Load(); got > 400 {
		t.Errorf("after byte GC: %d bytes on disk, budget 400", got)
	}
	if got := ds2.records.Load(); got != 2 {
		t.Errorf("after byte GC: %d records, want 2 (150-byte records, 400-byte cap)", got)
	}
}

// TestWarmLoadNewestFirst: when the directory holds more records than
// the entry bound, the newest win, and they are restored oldest-to-
// newest so the rebuilt LRU order matches the records' ages.
func TestWarmLoadNewestFirst(t *testing.T) {
	dir := t.TempDir()
	ds, err := newDiskStore(dir, 3, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	base := time.Now().Add(-time.Hour)
	for i := 0; i < 8; i++ {
		if err := ds.writeRecord(fakeKey(i), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
		if err := os.Chtimes(filepath.Join(dir, fakeKey(i)+recordSuffix), base, base.Add(time.Duration(i)*time.Second)); err != nil {
			t.Fatal(err)
		}
	}
	var order []string
	n := ds.load(func(key string, value []byte) bool { order = append(order, key); return true })
	if n != 3 {
		t.Fatalf("loaded %d entries, want 3", n)
	}
	want := []string{fakeKey(5), fakeKey(6), fakeKey(7)}
	for i, k := range want {
		if order[i] != k {
			t.Fatalf("load order %v, want %v", order, want)
		}
	}
}

// TestDiskStoreFlushOnClose: enqueued records are on disk after close,
// even though the hot path never waited for them.
func TestDiskStoreFlushOnClose(t *testing.T) {
	dir := t.TempDir()
	ds, err := newDiskStore(dir, 100, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	ds.start()
	for i := 0; i < 20; i++ {
		ds.enqueue(fakeKey(i), []byte(strings.Repeat("r", 32)))
	}
	ds.close()
	for i := 0; i < 20; i++ {
		raw, err := os.ReadFile(filepath.Join(dir, fakeKey(i)+recordSuffix))
		if err != nil {
			t.Fatalf("record %d not flushed: %v", i, err)
		}
		if key, _, err := decodeRecord(raw); err != nil || key != fakeKey(i) {
			t.Fatalf("record %d flushed corrupt: %v", i, err)
		}
	}
	// Enqueues after close are dropped, not raced into a closed writer.
	ds.enqueue(fakeKey(99), []byte("late"))
	if _, err := os.Stat(filepath.Join(dir, fakeKey(99)+recordSuffix)); !os.IsNotExist(err) {
		t.Error("post-close enqueue reached disk")
	}
}

// TestCacheDirUnusableFailsLoudly: pointing the daemon at a path it
// cannot use must be a startup error, not a silent memory-only run.
func TestCacheDirUnusableFailsLoudly(t *testing.T) {
	file := filepath.Join(t.TempDir(), "occupied")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := NewServer(Options{Workers: 1, CacheDir: filepath.Join(file, "sub")}); err == nil {
		t.Fatal("NewServer succeeded with a file in the way of its cache dir")
	}
}
