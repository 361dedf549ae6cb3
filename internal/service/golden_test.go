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
