// Allocation-regression test for the matrix-reuse path campaign
// workers run on: regenerating a workload into a per-worker matrix
// must not silently grow back toward the O(n^2) fresh-build cost, and
// rendering a spec's canonical form and stream key must stay cheap.
// Excluded under the race detector: its instrumentation changes
// allocation counts.
//
//go:build !race

package workload

import (
	"math/rand"
	"testing"

	"unsched/internal/comm"
)

// TestBuildIntoAllocs holds BuildInto on a warm 64-node matrix,
// String plus Key, and ParseSpec to their measured allocation counts.
// BuildInto's remainder is the generator's own scratch (a permutation
// slice for uniform, the d-slot displacement map for scatter); a
// reintroduced per-cell matrix allocation blows past every budget.
// Parsing a spec without an element grid allocates nothing, also
// through an alias.
func TestBuildIntoAllocs(t *testing.T) {
	cases := []struct {
		spec                    string
		build, stringKey, parse float64
	}{
		{"uniform:16:1024", 1, 4, 0},
		{"scatter:16:1024", 3, 4, 0},
		{"random:16:1024", 3, 4, 0},
		{"alltoall:64", 0, 3, 0},
	}
	for _, c := range cases {
		sp := MustParseSpec(c.spec)
		parse := func() {
			if _, err := ParseSpec(c.spec); err != nil {
				t.Fatal(err)
			}
		}
		if got := testing.AllocsPerRun(20, parse); got > c.parse {
			t.Errorf("%s: ParseSpec: %.1f allocs/run, budget %.0f", c.spec, got, c.parse)
		}
		m := comm.MustNew(64)
		rng := rand.New(rand.NewSource(9))
		build := func() {
			if err := sp.BuildInto(m, rng); err != nil {
				t.Fatal(err)
			}
		}
		build() // warm
		if got := testing.AllocsPerRun(20, build); got > c.build {
			t.Errorf("%s: BuildInto on a reused matrix: %.1f allocs/run, budget %.0f", c.spec, got, c.build)
		}
		render := func() {
			if sp.String() == "" || len(sp.Key()) == 0 {
				t.Fatal("empty canonical form or key")
			}
		}
		if got := testing.AllocsPerRun(20, render); got > c.stringKey {
			t.Errorf("%s: String+Key: %.1f allocs/run, budget %.0f", c.spec, got, c.stringKey)
		}
	}
}
