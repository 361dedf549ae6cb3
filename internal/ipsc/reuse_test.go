package ipsc

import (
	"math/rand"
	"testing"

	"unsched/internal/comm"
	"unsched/internal/costmodel"
	"unsched/internal/hypercube"
	"unsched/internal/sched"
	"unsched/internal/topo"
)

// TestMachineReuseMatchesFresh drives one Machine through every
// protocol twice over and checks each result against a fresh machine:
// Reset must leave no residue that changes a simulation.
func TestMachineReuseMatchesFresh(t *testing.T) {
	cube := hypercube.MustNew(4)
	params := costmodel.DefaultIPSC860()
	rng := rand.New(rand.NewSource(21))
	m1, err := comm.DRegular(16, 4, 4096, rng)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := comm.DRegular(16, 8, 512, rng)
	if err != nil {
		t.Fatal(err)
	}

	reused, err := NewMachine(cube, params)
	if err != nil {
		t.Fatal(err)
	}
	type runFn struct {
		name string
		run  func(m *Machine) (Result, error)
	}
	var runs []runFn
	for _, mat := range []*comm.Matrix{m1, m2} {
		mat := mat
		s1, err := sched.RSNL(mat, cube, rand.New(rand.NewSource(1)))
		if err != nil {
			t.Fatal(err)
		}
		s2, err := sched.RSN(mat, rand.New(rand.NewSource(2)))
		if err != nil {
			t.Fatal(err)
		}
		lp, err := sched.LP(mat)
		if err != nil {
			t.Fatal(err)
		}
		ac, err := sched.AC(mat)
		if err != nil {
			t.Fatal(err)
		}
		runs = append(runs,
			runFn{"S1", func(m *Machine) (Result, error) { return m.RunS1(s1) }},
			runFn{"S1Barrier", func(m *Machine) (Result, error) { return m.RunS1Barrier(s1) }},
			runFn{"S2", func(m *Machine) (Result, error) { return m.RunS2(s2) }},
			runFn{"LP", func(m *Machine) (Result, error) { return m.RunLP(lp) }},
			runFn{"AC", func(m *Machine) (Result, error) { return m.RunAC(ac, mat) }},
			runFn{"ACAsync", func(m *Machine) (Result, error) { return m.RunACAsync(ac, mat) }},
		)
	}
	// Two passes over all protocols: the second pass checks that reuse
	// after a full mixed workload is still clean.
	for pass := 0; pass < 2; pass++ {
		for _, r := range runs {
			want, err := r.run(machineOn(t, cube, params))
			if err != nil {
				t.Fatalf("pass %d %s fresh: %v", pass, r.name, err)
			}
			got, err := r.run(reused)
			if err != nil {
				t.Fatalf("pass %d %s reused: %v", pass, r.name, err)
			}
			if got != want {
				t.Errorf("pass %d %s: reused machine %+v, fresh %+v", pass, r.name, got, want)
			}
		}
	}
}

// TestMachineReuseSizeMismatch checks the reusable entry points still
// reject schedules for the wrong machine size.
func TestMachineReuseSizeMismatch(t *testing.T) {
	cube := hypercube.MustNew(3)
	params := costmodel.DefaultIPSC860()
	m, err := NewMachine(cube, params)
	if err != nil {
		t.Fatal(err)
	}
	mat, err := comm.DRegular(16, 2, 64, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	s, err := sched.RSN(mat, rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.RunS2(s); err == nil {
		t.Error("16-node schedule accepted by 8-node machine")
	}
}

// TestRouteModesSimulateIdentically runs every protocol on machines
// over a dense route table and over the plain topology (which the
// machine wraps in a lazy table) and requires identical results: the
// channel occupancy must claim the same circuits whichever way it
// walks the routes.
func TestRouteModesSimulateIdentically(t *testing.T) {
	params := costmodel.DefaultIPSC860()
	for _, spec := range []string{"cube:4", "mesh:4x4", "torus:4x4", "ring:16"} {
		net := topo.MustParseSpec(spec).MustBuild()
		dense, err := NewMachine(topo.NewRouteTable(net), params)
		if err != nil {
			t.Fatal(err)
		}
		lazy, err := NewMachine(net, params)
		if err != nil {
			t.Fatal(err)
		}
		mat, err := comm.DRegular(16, 6, 2048, rand.New(rand.NewSource(15)))
		if err != nil {
			t.Fatal(err)
		}
		rsnl, err := sched.RSNL(mat, net, rand.New(rand.NewSource(1)))
		if err != nil {
			t.Fatal(err)
		}
		lp, err := sched.LP(mat)
		if err != nil {
			t.Fatal(err)
		}
		ac, err := sched.AC(mat)
		if err != nil {
			t.Fatal(err)
		}
		// waited sums resource waits, so the comparison is known to
		// cover circuits blocked on claimed channels.
		waited := 0.0
		for _, run := range []struct {
			name string
			fn   func(m *Machine) (Result, error)
		}{
			{"S1", func(m *Machine) (Result, error) { return m.RunS1(rsnl) }},
			{"S2", func(m *Machine) (Result, error) { return m.RunS2(rsnl) }},
			{"S1Barrier", func(m *Machine) (Result, error) { return m.RunS1Barrier(rsnl) }},
			{"LP", func(m *Machine) (Result, error) { return m.RunLP(lp) }},
			{"AC", func(m *Machine) (Result, error) { return m.RunAC(ac, mat) }},
			{"ACAsync", func(m *Machine) (Result, error) { return m.RunACAsync(ac, mat) }},
		} {
			want, err := run.fn(lazy)
			if err != nil {
				t.Fatalf("%s %s over the topology: %v", spec, run.name, err)
			}
			got, err := run.fn(dense)
			if err != nil {
				t.Fatalf("%s %s over the table: %v", spec, run.name, err)
			}
			if got != want {
				t.Errorf("%s %s: table %+v, topology %+v", spec, run.name, got, want)
			}
			waited += want.ResourceWaitUS
		}
		if waited == 0 {
			t.Errorf("%s: no run waited on a resource", spec)
		}
	}
}
