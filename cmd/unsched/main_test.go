package main

import (
	"bytes"
	"strings"
	"testing"
	"text/tabwriter"

	"unsched/internal/costmodel"
	"unsched/internal/sched"
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
		net, err := buildTopology(tc.topo, tc.n)
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
