package ipsc

import (
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"unsched/internal/sched"
	"unsched/internal/topo"
	"unsched/internal/workload"
)

var update = flag.Bool("update", false, "rewrite golden files from current output")

// goldenMachines are the machines testdata/runs.golden pins: the
// paper's cube and a torus over dense tables, and the cube again over
// a lazy table, so both route walks of the channel occupancy carry the
// same runs.
var goldenMachines = []struct {
	name string
	net  func() topo.Topology
}{
	{"cube:6", func() topo.Topology { return topo.NewRouteTable(topo.MustParseSpec("cube:6").MustBuild()) }},
	{"torus:8x8", func() topo.Topology { return topo.NewRouteTable(topo.MustParseSpec("torus:8x8").MustBuild()) }},
	{"lazy:cube:6", func() topo.Topology { return topo.NewRouteTableLazy(topo.MustParseSpec("cube:6").MustBuild()) }},
}

// goldenWorkloads are the workloads every golden machine runs: uniform
// densities from sparse to near the machine's half, at short, long and
// large message sizes, plus a skewed and a mixed-size matrix.
func goldenWorkloads() []string {
	var out []string
	for _, d := range []int{4, 16, 48} {
		for _, bytes := range []int{64, 4096, 131072} {
			out = append(out, fmt.Sprintf("uniform:%d:%d", d, bytes))
		}
	}
	return append(out, "hotspot:8:4096:4", "mixed:16:131072")
}

// renderRuns simulates every golden workload at seeds 1 and 2 under
// every protocol on one reused machine per golden machine, and renders
// one line per run with the result's floats as exact bit patterns.
// Every run must finish with no attempt parked and no channel claimed.
func renderRuns(t *testing.T) string {
	t.Helper()
	var b strings.Builder
	for _, gm := range goldenMachines {
		net := gm.net()
		m := machineOn(t, net, params())
		for _, spec := range goldenWorkloads() {
			sp, err := workload.ParseSpec(spec)
			if err != nil {
				t.Fatal(err)
			}
			for seed := int64(1); seed <= 2; seed++ {
				mat, err := sp.Build(net.Nodes(), rand.New(rand.NewSource(seed)))
				if err != nil {
					t.Fatalf("%s on %s: %v", spec, gm.name, err)
				}
				order, err := sched.AC(mat)
				if err != nil {
					t.Fatal(err)
				}
				rsnl, err := sched.RSNL(mat, net, rand.New(rand.NewSource(seed)))
				if err != nil {
					t.Fatal(err)
				}
				rsn, err := sched.RSN(mat, rand.New(rand.NewSource(seed)))
				if err != nil {
					t.Fatal(err)
				}
				lp, err := sched.LP(mat)
				if err != nil {
					t.Fatal(err)
				}
				runs := []struct {
					protocol string
					run      func() (Result, error)
				}{
					{"AC", func() (Result, error) { return m.RunAC(order, mat) }},
					{"ACAsync", func() (Result, error) { return m.RunACAsync(order, mat) }},
					{"S1", func() (Result, error) { return m.RunS1(rsnl) }},
					{"S1Barrier", func() (Result, error) { return m.RunS1Barrier(rsnl) }},
					{"S2", func() (Result, error) { return m.RunS2(rsn) }},
					{"LP", func() (Result, error) { return m.RunLP(lp) }},
				}
				for _, r := range runs {
					res, err := r.run()
					if err != nil {
						t.Fatalf("%s %s seed %d %s: %v", gm.name, spec, seed, r.protocol, err)
					}
					if left := m.pendingSummary(); len(left) != 0 || m.chans.ClaimedCount() != 0 {
						t.Fatalf("%s %s seed %d %s: run left %v parked and %d channels claimed",
							gm.name, spec, seed, r.protocol, left, m.chans.ClaimedCount())
					}
					fmt.Fprintf(&b, "%s %s seed=%d %s makespan=%016x wait=%016x transfers=%d exchanges=%d\n",
						gm.name, spec, seed, r.protocol,
						math.Float64bits(res.MakespanUS), math.Float64bits(res.ResourceWaitUS),
						res.Transfers, res.Exchanges)
				}
			}
		}
	}
	return b.String()
}

// TestRunsGolden pins the simulator's results bit for bit: a change to
// how the machine finds, queues or wakes blocked transfers must start
// the same circuits at the same virtual times. Regenerate deliberately
// (a cost-model or protocol change) with
// `go test ./internal/ipsc -run TestRunsGolden -update`.
func TestRunsGolden(t *testing.T) {
	got := renderRuns(t)
	path := filepath.Join("testdata", "runs.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("runs.golden differs at line %d:\n got: %s\nwant: %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("runs.golden differs in length: got %d lines, want %d", len(gl), len(wl))
	}
}
