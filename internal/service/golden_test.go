package service

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files from current output")

// wireGoldenCase is one memoized request whose answers are pinned byte
// for byte: the first JSON answer (a miss), the repeat (a hit served
// from the cached result), and the binary answer rendered from that
// cached JSON — each with its ETag. The content key, the derived RNG
// seed, the envelope framing and both encodings all feed these bytes,
// so a refactor of any of them that is not byte-identical fails here.
type wireGoldenCase struct {
	name string
	path string
	body func(t *testing.T, ts string) []byte
}

// indentJSON marshals v with indentation, so the request decoder also
// sees whitespace between and inside the triples.
func indentJSON(t *testing.T, v any) []byte {
	t.Helper()
	body, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	return body
}

func wireGoldenCases() []wireGoldenCase {
	shipped := func(t *testing.T) ScheduleRequest {
		return ScheduleRequest{Matrix: testMatrix(t, 64, 4, 4096, 11), Algorithm: "RS_NL", Seed: 3}
	}
	return []wireGoldenCase{
		{"schedule_matrix", "/v1/schedule", func(t *testing.T, _ string) []byte {
			return indentJSON(t, shipped(t))
		}},
		{"schedule_workload", "/v1/schedule", func(t *testing.T, _ string) []byte {
			return indentJSON(t, ScheduleRequest{Workload: "uniform:4:2048", Algorithm: "RS_N",
				Topology: &WireTopology{Spec: "torus:4x4"}})
		}},
		{"simulate", "/v1/simulate", func(t *testing.T, url string) []byte {
			// Ship the schedule computed for schedule_matrix together
			// with its matrix, so the key hashes phases and matrix both.
			req := shipped(t)
			var env struct{ Result ScheduleResult }
			if st, raw := postJSON(t, url+"/v1/schedule", req, &env); st != http.StatusOK {
				t.Fatalf("schedule status %d: %s", st, raw)
			}
			return indentJSON(t, SimulateRequest{Schedule: env.Result.Schedule, Matrix: req.Matrix})
		}},
	}
}

// renderWireGolden formats one case's answers as the golden text.
func renderWireGolden(t *testing.T, ts *httptest.Server, c wireGoldenCase) []byte {
	t.Helper()
	body := c.body(t, ts.URL)
	var out bytes.Buffer
	for _, ask := range []struct {
		label string
		hdr   map[string]string
	}{
		{"first", map[string]string{"Accept": ContentTypeJSON}},
		{"repeat", map[string]string{"Accept": ContentTypeJSON}},
		{"binary", map[string]string{"Accept": ContentTypeBinary}},
	} {
		resp, raw := doWire(t, ts, c.path, body, ask.hdr)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s %s: status %d: %s", c.name, ask.label, resp.StatusCode, raw)
		}
		fmt.Fprintf(&out, "%s etag: %s\n", ask.label, resp.Header.Get("ETag"))
		if ask.hdr["Accept"] == ContentTypeBinary {
			fmt.Fprintf(&out, "%s body (hex): %s\n", ask.label, hex.EncodeToString(raw))
		} else {
			fmt.Fprintf(&out, "%s body: %s\n", ask.label, raw)
		}
	}
	return out.Bytes()
}

// TestMetricsGolden pins the full solo /metrics exposition after a
// fixed sequential script that touches every series a solo daemon
// moves: a JSON schedule miss and its hit, a binary rendering, a 304,
// a simulate, a 2-item batch, an auto and an auto_race request, and
// one 400. Series names, types, order, labels and counts must not
// drift. gzip stays out: flate output is not pinned across Go
// versions. Regenerate deliberately with `go test ./internal/service
// -run TestMetricsGolden -update`.
func TestMetricsGolden(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2, QueueDepth: 16})
	post := func(path string, v any, accept, etag string, want int) []byte {
		t.Helper()
		// An explicit identity encoding also keeps the client from
		// asking for gzip on its own.
		hdr := map[string]string{"Accept": accept, "Accept-Encoding": "identity"}
		if etag != "" {
			hdr["If-None-Match"] = etag
		}
		resp, raw := doWire(t, ts, path, indentJSON(t, v), hdr)
		if resp.StatusCode != want {
			t.Fatalf("%s: status %d, want %d: %s", path, resp.StatusCode, want, raw)
		}
		return raw
	}
	shipped := ScheduleRequest{Matrix: testMatrix(t, 16, 4, 4096, 21), Algorithm: "RS_NL"}
	post("/v1/schedule", shipped, ContentTypeJSON, "", http.StatusOK) // miss
	var env struct {
		Key    string
		Result ScheduleResult
	}
	if err := json.Unmarshal(post("/v1/schedule", shipped, ContentTypeJSON, "", http.StatusOK), &env); err != nil { // hit
		t.Fatal(err)
	}
	post("/v1/schedule", shipped, ContentTypeBinary, "", http.StatusOK)
	post("/v1/schedule", shipped, ContentTypeJSON, etagFor(env.Key, encJSON), http.StatusNotModified)
	post("/v1/simulate", SimulateRequest{Schedule: env.Result.Schedule}, ContentTypeJSON, "", http.StatusOK)
	post("/v1/schedule/batch", BatchScheduleRequest{Requests: []ScheduleRequest{
		shipped,
		{Matrix: testMatrix(t, 16, 2, 512, 22), Algorithm: "GREEDY"},
	}}, ContentTypeNDJSON, "", http.StatusOK)
	post("/v1/schedule", ScheduleRequest{Matrix: testMatrix(t, 16, 4, 4096, 23)}, ContentTypeJSON, "", http.StatusOK)
	post("/v1/schedule", ScheduleRequest{Matrix: testMatrix(t, 16, 4, 4096, 24), AutoRace: true},
		ContentTypeJSON, "", http.StatusOK)
	post("/v1/schedule", ScheduleRequest{Matrix: shipped.Matrix, Algorithm: "NOPE"}, ContentTypeJSON, "",
		http.StatusBadRequest)

	got := []byte(getMetrics(t, ts))
	path := filepath.Join("testdata", "metrics_solo.golden")
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("/metrics drifted from %s:\ngot:\n%s\nwant:\n%s", path, got, want)
	}
}

// TestMetricsTableMatchesREADME holds README's *Metrics* table to the
// series the daemon declares: every declared family has a row, every
// row names a declared family, and the requests row's parenthesized
// list names exactly the endpoint labels the daemon counts under.
func TestMetricsTableMatchesREADME(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(raw), "\n### Metrics\n")
	if !ok {
		t.Fatal("README has no ### Metrics section")
	}
	section, _, _ = strings.Cut(section, "\n### ")
	var documented, endpoints []string
	for _, line := range strings.Split(section, "\n") {
		row, ok := strings.CutPrefix(line, "| `unschedd_")
		if !ok {
			continue
		}
		name := "unschedd_" + row[:strings.IndexAny(row, "{`")]
		documented = append(documented, name)
		if name == "unschedd_requests_total" {
			// The labels are the backquoted words of the first
			// parenthesized list.
			_, list, _ := strings.Cut(row, "(")
			list, _, _ = strings.Cut(list, ")")
			for _, label := range strings.Split(list, ",") {
				endpoints = append(endpoints, strings.Trim(label, " `"))
			}
		}
	}
	svc, err := NewServer(Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	var declared []string
	for _, m := range svc.metrics() {
		declared = append(declared, m.name)
	}
	slices.Sort(documented)
	slices.Sort(declared)
	if !slices.Equal(documented, declared) {
		t.Errorf("README Metrics table documents\n%v\nbut the daemon declares\n%v", documented, declared)
	}
	slices.Sort(endpoints)
	labels := slices.Clone(endpointNames[:])
	slices.Sort(labels)
	if !slices.Equal(endpoints, labels) {
		t.Errorf("README requests_total row lists endpoints %v, the daemon counts %v", endpoints, labels)
	}
}

// TestWireGoldens pins response bytes and ETags across versions: keys,
// seeds and bodies of the memoized endpoints must not drift. Regenerate
// deliberately with `go test ./internal/service -run TestWireGoldens
// -update`.
func TestWireGoldens(t *testing.T) {
	for _, c := range wireGoldenCases() {
		t.Run(c.name, func(t *testing.T) {
			// A fresh server per case, so "first" is always a miss.
			_, ts := newTestServer(t, Options{Workers: 2})
			got := renderWireGolden(t, ts, c)
			path := filepath.Join("testdata", "wire_"+c.name+".golden")
			if *update {
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with -update to create)", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s drifted from %s:\ngot:\n%s\nwant:\n%s", c.name, path, got, want)
			}
		})
	}
}
