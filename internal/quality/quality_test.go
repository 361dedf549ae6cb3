package quality

import (
	"bytes"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"

	"unsched/internal/sched"
)

func rec(topo, work, alg string, nodes, density int, cv, comm float64, costNS int64) Record {
	return Record{
		Topology: topo, Workload: work, Algorithm: alg,
		Nodes: nodes, Density: density, SizeCV: cv,
		Phases: float64(density), EstCommUS: comm, SchedCostNS: costNS,
		Samples: 2,
	}
}

func TestRecordCodecRoundTrip(t *testing.T) {
	r := rec("hypercube-64", "uniform:8:4096", "RS_NL", 64, 8, 0, 12345.5, 224000)
	frame, err := EncodeRecord(r.Key(), []byte(`{"x":1}`))
	if err != nil {
		t.Fatal(err)
	}
	key, value, rest, err := DecodeRecord(frame)
	if err != nil {
		t.Fatal(err)
	}
	if key != r.Key() || string(value) != `{"x":1}` || len(rest) != 0 {
		t.Fatalf("round trip mismatch: key=%q value=%q rest=%d", key, value, len(rest))
	}

	// Every flipped byte must be rejected, never mis-decoded.
	for i := range frame {
		bad := append([]byte(nil), frame...)
		bad[i] ^= 0xff
		if k, _, _, err := DecodeRecord(bad); err == nil && k == key {
			// A flip inside the value region changes the value; the CRC
			// must catch it, so err == nil here is always a failure.
			t.Fatalf("flip at %d decoded successfully", i)
		}
	}
}

// TestRecordPinnedFrame pins the store frame's bytes: a frame written
// before the codec moved to internal/frame must still decode, and
// encoding its contents must reproduce it exactly.
func TestRecordPinnedFrame(t *testing.T) {
	const pinned = "55535152" + "01" + "40" + "00000007" + // magic, version, key and value lengths
		"38393131376432633232663438306465333137306634343838353363303139336366383433393731323764623839336330356361316338623430666631616431" +
		"7b2278223a317d" + // {"x":1}
		"c0fcaacc" // CRC-32C
	frame, err := hex.DecodeString(pinned)
	if err != nil {
		t.Fatal(err)
	}
	key, value, rest, err := DecodeRecord(frame)
	if err != nil {
		t.Fatal(err)
	}
	want := Record{Topology: "hypercube-8", Workload: "uniform:2:64", Algorithm: "LP"}.Key()
	if key != want || string(value) != `{"x":1}` || len(rest) != 0 {
		t.Fatalf("pinned frame decoded to (%q, %q, %d trailing bytes)", key, value, len(rest))
	}
	re, err := EncodeRecord(key, value)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(re, frame) {
		t.Errorf("re-encoded frame %x differs from the pinned %s", re, pinned)
	}
}

func TestStoreAppendLoadLatestWins(t *testing.T) {
	path := filepath.Join(t.TempDir(), "quality.usqr")
	st, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	r1 := rec("hypercube-64", "uniform:8:4096", "RS_NL", 64, 8, 0, 100, 1000)
	r2 := rec("hypercube-64", "uniform:8:4096", "RS_N", 64, 8, 0, 200, 500)
	r1b := r1
	r1b.EstCommUS = 150 // supersedes r1: same identity triple
	for _, r := range []Record{r1, r2, r1b} {
		if err := st.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	recs, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("loaded %d records, want 2 (latest wins)", len(recs))
	}
	byAlg := map[string]Record{}
	for _, r := range recs {
		byAlg[r.Algorithm] = r
	}
	if byAlg["RS_NL"].EstCommUS != 150 {
		t.Errorf("RS_NL comm = %v, want the superseding 150", byAlg["RS_NL"].EstCommUS)
	}

	// A truncated tail (crash mid-append) keeps everything before it.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw[:len(raw)-5], 0o644); err != nil {
		t.Fatal(err)
	}
	recs, err = Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("truncated store loaded %d records, want 2 (r1b's frame is damaged but r1's survives)", len(recs))
	}
	byAlg = map[string]Record{}
	for _, r := range recs {
		byAlg[r.Algorithm] = r
	}
	if byAlg["RS_NL"].EstCommUS != 100 {
		t.Errorf("after truncation RS_NL comm = %v, want the original 100", byAlg["RS_NL"].EstCommUS)
	}
}

func TestLoadMissingStoreIsEmpty(t *testing.T) {
	recs, err := Load(filepath.Join(t.TempDir(), "nope.usqr"))
	if err != nil || recs != nil {
		t.Fatalf("missing store: recs=%v err=%v, want nil, nil", recs, err)
	}
}

func TestModelRanksByMeanTotalCost(t *testing.T) {
	recs := []Record{
		// One bin (hypercube-64, d=8, uniform sizes): RS_N cheaper in
		// total than RS_NL here, AC far worse.
		rec("hypercube-64", "uniform:8:4096", "RS_NL", 64, 8, 0, 1000, 200000),
		rec("hypercube-64", "uniform:8:4096", "RS_N", 64, 8, 0, 1050, 30000),
		rec("hypercube-64", "uniform:8:4096", "AC", 64, 8, 0, 9000, 0),
	}
	m := NewModel(recs)
	if m.Records() != 3 || m.Bins() != 1 {
		t.Fatalf("records=%d bins=%d, want 3, 1", m.Records(), m.Bins())
	}
	f := sched.Features{Nodes: 64, Density: 8, SizeCV: 0}
	got := m.Pick("hypercube-64", f)
	want := []string{"RS_N", "RS_NL", "AC"}
	if len(got) != len(want) {
		t.Fatalf("Pick = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Pick = %v, want %v", got, want)
		}
	}

	// Same features on an uncalibrated topology kind: fallback chain.
	if got := m.Pick("torus-8x8", f); len(got) == 0 {
		t.Fatal("uncalibrated bin returned an empty ranking")
	}
}

func TestModelDeterministicTieBreak(t *testing.T) {
	recs := []Record{
		rec("hypercube-64", "uniform:8:4096", "RS_NL", 64, 8, 0, 1000, 0),
		rec("hypercube-64", "uniform:8:4096", "RS_N", 64, 8, 0, 1000, 0),
	}
	for i := 0; i < 10; i++ {
		got := NewModel(recs).Pick("hypercube-64", sched.Features{Nodes: 64, Density: 8})
		if got[0] != "RS_N" || got[1] != "RS_NL" {
			t.Fatalf("tie not broken lexicographically: %v", got)
		}
	}
}

// TestEmptyStoreFallsBackToTable: the satellite-mandated empty-store
// behavior. A model over zero records (and a nil model) must still
// answer every Pick, from the committed fallback chain, and must not
// offer LP to a non-power-of-two machine.
func TestEmptyStoreFallsBackToTable(t *testing.T) {
	empty := NewModel(nil)
	var nilModel *Model
	for _, m := range []*Model{empty, nilModel} {
		got := m.Pick("hypercube-64", sched.Features{Nodes: 64, Density: 8})
		if len(got) == 0 {
			t.Fatal("empty model returned an empty ranking")
		}
		if got[0] == "" {
			t.Fatal("empty model returned a blank tag")
		}
		// Non-power-of-two nodes: LP must be filtered everywhere.
		for _, tag := range m.Pick("torus-6x6", sched.Features{Nodes: 36, Density: 4}) {
			if tag == "LP" {
				t.Fatal("LP offered to a 36-node machine")
			}
		}
	}
	// The fallback ranking is the paper's: RS_NL first.
	if got := empty.Pick("ring", sched.Features{Nodes: 1000, Density: 3}); got[0] != "RS_NL" {
		t.Fatalf("default ranking starts with %q, want RS_NL", got[0])
	}
}

func TestBinKeyBands(t *testing.T) {
	cases := []struct {
		kind string
		f    sched.Features
		want string
	}{
		{"hypercube", sched.Features{Nodes: 64, Density: 8, SizeCV: 0}, "hypercube/n6/d4/cv0"},
		{"hypercube", sched.Features{Nodes: 64, Density: 8, SizeCV: 0.5}, "hypercube/n6/d4/cv1"},
		{"torus", sched.Features{Nodes: 256, Density: 48, SizeCV: 1.2}, "torus/n8/d6/cv2"},
		{"mesh", sched.Features{Nodes: 16, Density: 1, SizeCV: 0}, "mesh/n4/d1/cv0"},
	}
	for _, c := range cases {
		if got := BinKey(c.kind, c.f); got != c.want {
			t.Errorf("BinKey(%s, %+v) = %q, want %q", c.kind, c.f, got, c.want)
		}
	}
	if TopoKind("torus-8x8") != "torus" || TopoKind("ring") != "ring" {
		t.Error("TopoKind prefix parsing broken")
	}
}
