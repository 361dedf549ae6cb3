package sched

import (
	"math/rand"
	"testing"

	"unsched/internal/hypercube"
	"unsched/internal/mesh"
	"unsched/internal/topo"
)

// TestTableInvariants pins what consumers of the algorithm table rely
// on: every phased entry's schedule carries the entry's own tag (the
// daemon picks a schedule's protocol from that tag), FitsAll and
// FitError agree with the entries' Fits, Fits agrees with the core —
// an entry that fits a machine schedules on it, one that does not is
// refused — and an entry that is not Randomized builds the same
// schedule with a nil RNG as with a seeded one, so callers may skip
// seeding it.
func TestTableInvariants(t *testing.T) {
	seen := map[string]bool{}
	for _, alg := range Algorithms {
		if seen[alg.Tag] {
			t.Errorf("tag %s listed twice", alg.Tag)
		}
		seen[alg.Tag] = true
		if got, ok := Lookup(alg.Tag); !ok || got.Tag != alg.Tag {
			t.Errorf("Lookup(%s) = %v, %v", alg.Tag, got.Tag, ok)
		}
	}
	if _, ok := Lookup("auto"); ok {
		t.Error(`"auto" is a resolution step, not a table entry`)
	}
	for n := 0; n <= 70; n++ {
		all := true
		for _, alg := range Algorithms {
			all = all && alg.Fits(n)
			if (alg.FitError(n) == nil) != alg.Fits(n) {
				t.Errorf("%s: FitError(%d) = %v disagrees with Fits", alg.Tag, n, alg.FitError(n))
			}
		}
		if FitsAll(n) != all {
			t.Errorf("FitsAll(%d) = %v, every entry's Fits says %v", n, FitsAll(n), all)
		}
	}

	for _, net := range []topo.Topology{hypercube.MustNew(4), mesh.MustNew(4, 3, true)} {
		n := net.Nodes()
		m := randomMatrix(t, n, 3, 1024, int64(n))
		core := NewCore(net)
		for _, alg := range Algorithms {
			var err error
			if alg.Build == nil {
				_, err = core.AC(m)
			} else {
				var s *Schedule
				if s, err = alg.Build(core, m, rand.New(rand.NewSource(1))); err == nil {
					if s.Algorithm != alg.Tag {
						t.Errorf("%s: entry %s built a schedule tagged %s", net.Name(), alg.Tag, s.Algorithm)
					}
					if verr := s.Validate(m); verr != nil {
						t.Errorf("%s: %s: %v", net.Name(), alg.Tag, verr)
					}
					if !alg.Randomized {
						unseeded, uerr := alg.Build(NewCore(net), m, nil)
						if uerr != nil || sameBuild(s, unseeded) != "" {
							t.Errorf("%s: %s is not Randomized but builds differently without an RNG (%v)", net.Name(), alg.Tag, uerr)
						}
					}
				}
			}
			if fits := alg.Fits(n); fits != (err == nil) {
				t.Errorf("%s: %s Fits(%d) = %v, core error %v", net.Name(), alg.Tag, n, fits, err)
			}
		}
	}
}

func TestWantList(t *testing.T) {
	for _, tc := range []struct {
		tags []string
		want string
	}{
		{nil, ""},
		{[]string{"AC"}, "AC"},
		{[]string{"AC", "LP"}, "AC or LP"},
		{[]string{"auto", "AC", "LP"}, "auto, AC, or LP"},
	} {
		if got := WantList(tc.tags...); got != tc.want {
			t.Errorf("WantList(%q) = %q, want %q", tc.tags, got, tc.want)
		}
	}
}
