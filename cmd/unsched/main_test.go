package main

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"unsched"
	"unsched/internal/sched"
	"unsched/internal/service"
	"unsched/internal/workload"
)

// runCLI runs the command on args and returns its stdout.
func runCLI(t *testing.T, args ...string) string {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if err := run(args, &stdout, &stderr); err != nil {
		t.Fatalf("unsched %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
	}
	return stdout.String()
}

// tableRows returns the fields of each row under the header line that
// starts with "algorithm", in printed order.
func tableRows(t *testing.T, out string) [][]string {
	t.Helper()
	_, table, ok := strings.Cut(out, "algorithm ")
	if !ok {
		t.Fatalf("no table in output:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(table), "\n")[1:]
	rows := make([][]string, len(lines))
	for i, line := range lines {
		rows[i] = strings.Fields(line)
	}
	return rows
}

// bareNames returns every name -pattern accepts bare: the historical
// named patterns, which must all be accepted, then every kind of the
// table whose grammar the flags fill.
func bareNames(t *testing.T, n, d int, size int64) []string {
	t.Helper()
	names := []string{"dregular", "random", "hotspot", "bitcomp", "alltoall", "mixed"}
	for _, name := range names {
		if _, err := patternSpec(name, n, d, size); err != nil {
			t.Errorf("-pattern %s: %v", name, err)
		}
	}
	for _, grammar := range workload.Grammars() {
		name, _, _ := strings.Cut(grammar, ":")
		if _, err := patternSpec(name, n, d, size); err == nil && !slices.Contains(names, name) {
			names = append(names, name)
		}
	}
	return names
}

// TestPatternSpec pins how -pattern fills a bare name's grammar from
// the flags, and that a spec passes through as written.
func TestPatternSpec(t *testing.T) {
	for _, tc := range []struct {
		pattern string
		n, d    int
		size    int64
		want    string // canonical spec; empty means rejected
	}{
		{"dregular", 64, 8, 4096, "uniform:8:4096"},
		{"random", 64, 8, 4096, "scatter:8:4096"},
		{"hotspot", 64, 8, 4096, "hotspot:8:4096:4"},
		{"hotspot", 8, 2, 64, "hotspot:2:64:1"},
		{"mixed", 64, 8, 4096, "mixed:8:4096"},
		{"alltoall", 64, 8, 4096, "alltoall:4096"},
		{"dregular:4:64", 64, 8, 4096, "uniform:4:64"},
		{"halo:16x16:512", 64, 8, 4096, "halo:16x16:512"},
		{"halo", 64, 8, 4096, ""},
		{"klein", 64, 8, 4096, ""},
		{"uniform", 64, 0, 4096, ""},
	} {
		sp, err := patternSpec(tc.pattern, tc.n, tc.d, tc.size)
		switch {
		case tc.want == "" && err == nil:
			t.Errorf("-pattern %s accepted as %s", tc.pattern, sp)
		case tc.want != "" && err != nil:
			t.Errorf("-pattern %s: %v", tc.pattern, err)
		case tc.want != "" && sp.String() != tc.want:
			t.Errorf("-pattern %s -n %d -d %d -bytes %d is %s, want %s", tc.pattern, tc.n, tc.d, tc.size, sp, tc.want)
		}
	}
}

// TestRunOneEveryFittingAlgorithm: the comparison table covers every
// algorithm of the table that fits the machine — all of them on a
// 16-node cube, all but LP on a 36-node torus — and prints one row per
// algorithm, in table order.
func TestRunOneEveryFittingAlgorithm(t *testing.T) {
	for _, tc := range []struct {
		topo string
		n    int
		want int // rows: the table minus what does not fit
	}{
		{"cube", 16, len(sched.Algorithms)},
		{"torus", 36, len(sched.Algorithms) - 1},
	} {
		algs := fitting(tc.n)
		if len(algs) != tc.want {
			t.Fatalf("%s: %d algorithms fit %d nodes, want %d", tc.topo, len(algs), tc.n, tc.want)
		}
		out := runCLI(t, "-topo", tc.topo, "-n", strconv.Itoa(tc.n), "-pattern", "mixed:4:4096")
		rows := tableRows(t, out)
		if len(rows) != len(algs) {
			t.Fatalf("%s: %d rows for %d algorithms:\n%s", tc.topo, len(rows), len(algs), out)
		}
		for i, tag := range algs {
			if rows[i][0] != tag {
				t.Errorf("%s: row %d is %v, want %s", tc.topo, i, rows[i], tag)
			}
		}
	}
}

// TestRemoteWorkloadMatchesLocal: with -server, every pattern name
// -pattern takes bare travels as a workload spec, with the topology and
// seed, that builds the matrix the local run schedules.
func TestRemoteWorkloadMatchesLocal(t *testing.T) {
	const n, d, size, seed = 64, 8, 4096, 7
	sent := make(chan unsched.ScheduleRequest, 1)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req unsched.ScheduleRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			t.Error(err)
		}
		sent <- req
		http.Error(w, "request recorded", http.StatusTeapot)
	}))
	defer ts.Close()
	for _, name := range bareNames(t, n, d, size) {
		var stdout, stderr bytes.Buffer
		args := []string{"-server", ts.URL, "-n", "64", "-d", "8", "-bytes", "4096", "-pattern", name, "-alg", "RS_N"}
		if err := run(args, &stdout, &stderr); err == nil || !strings.Contains(err.Error(), "418") {
			t.Fatalf("%s: the recording server's 418 did not come back: %v", name, err)
		}
		req := <-sent
		if req.Matrix != nil || req.Seed != seed || req.Topology == nil || req.Topology.Spec != "cube:6" {
			t.Fatalf("%s: sent %+v, want the workload on cube:6 under seed %d", name, req, seed)
		}
		sp, err := patternSpec(name, n, d, size)
		if err != nil {
			t.Fatal(err)
		}
		local, err := sp.Build(n, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		back, err := workload.ParseSpec(req.Workload)
		if err != nil {
			t.Fatalf("%s: remote spec %q: %v", name, req.Workload, err)
		}
		remote, err := back.Build(n, rand.New(rand.NewSource(req.Seed)))
		if err != nil {
			t.Fatalf("%s: remote spec %q: %v", name, req.Workload, err)
		}
		if !remote.Equal(local) {
			t.Errorf("%s: remote spec %q builds another matrix than the local run", name, req.Workload)
		}
	}
}

// TestRemoteEveryPattern runs -server against an in-process daemon for
// every bare pattern name and one spec, as plain, -binary and -batch
// requests: each prints one row per fitting algorithm, chosen as asked.
func TestRemoteEveryPattern(t *testing.T) {
	svc, err := service.NewServer(service.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc)
	defer svc.Close()
	defer ts.Close()

	const n = 16
	want := slices.Clone(fitting(n))
	slices.Sort(want)
	for _, pattern := range append(bareNames(t, n, 4, 1024), "halo:8x8:64") {
		for _, mode := range []string{"", "-binary", "-batch"} {
			args := []string{"-server", ts.URL, "-n", "16", "-d", "4", "-bytes", "1024", "-pattern", pattern}
			if mode != "" {
				args = append(args, mode)
			}
			rows := tableRows(t, runCLI(t, args...))
			var got []string
			for _, row := range rows {
				if len(row) < 2 || row[1] != row[0] {
					t.Errorf("%s %s: row %v did not schedule its algorithm", pattern, mode, row)
				}
				got = append(got, row[0])
			}
			slices.Sort(got)
			if !slices.Equal(got, want) {
				t.Errorf("%s %s: rows for %v, want %v", pattern, mode, got, want)
			}
		}
	}
}

// TestSaveWritesPhasedSchedules: -save writes a phased algorithm's
// schedule, and a run it cannot save — AC, which has no phases, or a
// remote run — fails before printing anything and writes no file.
func TestSaveWritesPhasedSchedules(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sched.txt")
	for _, args := range [][]string{
		{"-n", "16", "-alg", "AC", "-save", path},
		{"-n", "16", "-alg", "RS_N", "-save", path, "-server", "http://127.0.0.1:1"},
	} {
		var stdout, stderr bytes.Buffer
		if err := run(args, &stdout, &stderr); err == nil {
			t.Errorf("%v: accepted", args)
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: printed before failing:\n%s", args, stdout.String())
		}
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Errorf("%v: wrote %s (stat: %v)", args, path, err)
		}
	}

	runCLI(t, "-n", "16", "-alg", "RS_N", "-save", path)
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	s, err := sched.ReadSchedule(f)
	if err != nil {
		t.Fatal(err)
	}
	if s.NumPhases() == 0 {
		t.Error("saved RS_N schedule has no phases")
	}
}

// TestUnknownAlgorithmFailsBeforeOutput: an -alg that is neither auto
// nor a tag of the table fails before anything is printed, locally and
// with -server, where the daemon is never asked.
func TestUnknownAlgorithmFailsBeforeOutput(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t.Errorf("the daemon was asked for %s", r.URL.Path)
		http.Error(w, "unexpected request", http.StatusTeapot)
	}))
	defer ts.Close()
	for _, args := range [][]string{
		{"-n", "16", "-alg", "XYZ"},
		{"-n", "16", "-alg", "XYZ", "-server", ts.URL},
	} {
		var stdout, stderr bytes.Buffer
		if err := run(args, &stdout, &stderr); err == nil || !strings.Contains(err.Error(), `unknown algorithm "XYZ"`) {
			t.Errorf("%v: error %v, want the unknown algorithm", args, err)
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: printed before failing:\n%s", args, stdout.String())
		}
	}
}
