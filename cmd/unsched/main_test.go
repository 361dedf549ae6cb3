package main

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"text/tabwriter"

	"unsched/internal/costmodel"
	"unsched/internal/sched"
	"unsched/internal/workload"
)

// TestRunOneEveryFittingAlgorithm: the comparison table covers every
// algorithm of the table that fits the machine — all of them on a
// 16-node cube, all but LP on a 36-node torus — and prints one row per
// algorithm, in table order.
func TestRunOneEveryFittingAlgorithm(t *testing.T) {
	params := costmodel.DefaultIPSC860()
	for _, tc := range []struct {
		topo string
		n    int
		want int // rows: the table minus what does not fit
	}{
		{"cube", 16, len(sched.Algorithms)},
		{"torus", 36, len(sched.Algorithms) - 1},
	} {
		m, err := buildMatrix("", "mixed", tc.n, 4, 4096, 7)
		if err != nil {
			t.Fatal(err)
		}
		sp, err := topologySpec(tc.topo, tc.n)
		if err != nil {
			t.Fatal(err)
		}
		net, err := sp.Build()
		if err != nil {
			t.Fatal(err)
		}
		algs := fitting(tc.n)
		if len(algs) != tc.want {
			t.Fatalf("%s: %d algorithms fit %d nodes, want %d", net.Name(), len(algs), tc.n, tc.want)
		}
		var out bytes.Buffer
		tw := tabwriter.NewWriter(&out, 2, 0, 2, ' ', 0)
		for _, tag := range algs {
			if err := runOne(tw, tag, m, net, params, 7, false, false, ""); err != nil {
				t.Errorf("%s: %s: %v", net.Name(), tag, err)
			}
		}
		if err := tw.Flush(); err != nil {
			t.Fatal(err)
		}
		rows := strings.Split(strings.TrimSpace(out.String()), "\n")
		if len(rows) != len(algs) {
			t.Fatalf("%s: %d rows for %d algorithms:\n%s", net.Name(), len(rows), len(algs), out.String())
		}
		for i, tag := range algs {
			if !strings.HasPrefix(rows[i], tag+" ") {
				t.Errorf("%s: row %d is %q, want %s", net.Name(), i, rows[i], tag)
			}
		}
	}
}

// TestRemoteWorkloadMatchesLocal: every named pattern with a remote
// form travels as a workload spec that, built with the local seed, is
// the matrix the local run schedules.
func TestRemoteWorkloadMatchesLocal(t *testing.T) {
	const n, d, size, seed = 64, 8, 4096, 7
	for _, pattern := range []string{"dregular", "random", "bitcomp", "alltoall"} {
		local, err := buildMatrix("", pattern, n, d, size, seed)
		if err != nil {
			t.Fatal(err)
		}
		spec, err := remoteWorkload(pattern, d, size)
		if err != nil {
			t.Fatalf("%s: %v", pattern, err)
		}
		sp, err := workload.ParseSpec(spec)
		if err != nil {
			t.Fatalf("%s: remote spec %q: %v", pattern, spec, err)
		}
		remote, err := sp.Build(n, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatalf("%s: remote spec %q: %v", pattern, spec, err)
		}
		if !remote.Equal(local) {
			t.Errorf("%s: remote spec %q builds another matrix than the local run", pattern, spec)
		}
	}
}
