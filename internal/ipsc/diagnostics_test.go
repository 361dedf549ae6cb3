package ipsc

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"unsched/internal/comm"
	"unsched/internal/costmodel"
	"unsched/internal/hypercube"
	"unsched/internal/sched"
	"unsched/internal/topo"
)

// TestDeadlockErrorNamesStuckNodes pins the diagnostic contract of
// deadlockError: the message names each stuck node with its program
// counter and current op, and truncates after eight entries so a
// wedged 1024-node run does not produce a megabyte error string.
func TestDeadlockErrorNamesStuckNodes(t *testing.T) {
	m := mustMachine(t, 4) // 16 nodes
	programs := make([][]op, 16)
	// Ten orphan receives: more than the 8-entry cap.
	for i := 0; i < 10; i++ {
		programs[i] = []op{{kind: opWaitRecv, peer: int32((i + 1) % 16)}}
	}
	_, err := m.run(programs)
	if err == nil {
		t.Fatal("ten orphan receives not detected")
	}
	msg := err.Error()
	if !strings.Contains(msg, "deadlock") {
		t.Fatalf("error %q should mention deadlock", msg)
	}
	// The first stuck node, with pc and op rendered.
	if !strings.Contains(msg, "P0@0:") {
		t.Errorf("error %q should name stuck node P0 at pc 0", msg)
	}
	// Truncated: the 9th and later stuck nodes collapse to "...".
	if !strings.Contains(msg, "...") {
		t.Errorf("error %q should truncate after 8 stuck nodes", msg)
	}
	if strings.Contains(msg, "P9@") {
		t.Errorf("error %q lists more than 8 stuck nodes", msg)
	}
}

// TestPendingSummary checks the blocked-attempt renderer used by
// contention tests, on attempts parked the way a run parks them: on a
// busy receiver, a busy async sender and a claimed channel. Entries
// are labelled send/xchg by kind and returned sorted whatever lists
// hold them.
func TestPendingSummary(t *testing.T) {
	m := mustMachine(t, 3)
	m.busy[2] = busyRx
	m.busy[3] = busyTx
	if ch := m.chans.Claim(0, 1); ch >= 0 {
		t.Fatalf("claim on an empty machine blocked on channel %d", ch)
	}
	for _, a := range []attempt{
		{src: 7, dst: 2, bytes: 4096},
		{src: 0, dst: 1, exchange: true},
		{src: 3, dst: 4, bytes: 4096, async: true},
	} {
		m.tryOrPark(m.addAttempt(a))
	}
	if m.parked[2] != 0 || m.parked[3] != 2 {
		t.Errorf("receiver 2 holds attempt %d, sender 3 attempt %d; want 0 and 2", m.parked[2], m.parked[3])
	}
	got := m.pendingSummary()
	want := []string{"send 3->4", "send 7->2", "xchg 0->1"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("pendingSummary() = %v, want %v", got, want)
	}
	// Releasing the channel wakes the exchange, and only it.
	m.release(0, 1)
	if !reflect.DeepEqual(m.woken, []int32{1}) {
		t.Errorf("releasing 0->1 woke %v, want [1]", m.woken)
	}
	// Nothing parked renders empty, not nil-panic.
	m.Reset()
	if got := m.pendingSummary(); len(got) != 0 {
		t.Errorf("reset machine rendered %v", got)
	}
}

// TestMachinesShareRouteTableConcurrently is the campaign-worker
// memory model under the race detector: many machines, one dense
// RouteTable. The table must be read-only in the hot path (check/
// claim/release touch only per-machine occupancy words), so parallel
// simulations over the shared table are race-free and bit-identical
// to sequential ones.
func TestMachinesShareRouteTableConcurrently(t *testing.T) {
	cube := hypercube.MustNew(5)
	table := topo.NewRouteTable(cube)
	params := costmodel.DefaultIPSC860()
	mat, err := comm.DRegular(32, 6, 2048, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	s, err := sched.RSNL(mat, cube, rand.New(rand.NewSource(10)))
	if err != nil {
		t.Fatal(err)
	}

	ref, err := machineOn(t, cube, params).RunS1(s)
	if err != nil {
		t.Fatal(err)
	}

	const workers = 8
	results := make([]Result, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			mach, err := NewMachine(table, params)
			if err != nil {
				errs[w] = err
				return
			}
			// Two runs per worker: the second exercises Reset reuse
			// while siblings are mid-flight on the same table.
			for pass := 0; pass < 2; pass++ {
				res, err := mach.RunS1(s)
				if err != nil {
					errs[w] = err
					return
				}
				results[w] = res
			}
		}(w)
	}
	wg.Wait()
	for w := 0; w < workers; w++ {
		if errs[w] != nil {
			t.Fatalf("worker %d: %v", w, errs[w])
		}
		if results[w] != ref {
			t.Errorf("worker %d over shared table: %+v, sequential %+v", w, results[w], ref)
		}
	}
}

// pendingSummary renders the parked attempts sorted, for tests that
// inspect blocked state.
func (m *Machine) pendingSummary() []string {
	var out []string
	for _, head := range m.parked {
		for ai := head; ai >= 0; ai = m.attempts[ai].next {
			a := m.attempts[ai]
			kind := "send"
			if a.exchange {
				kind = "xchg"
			}
			out = append(out, fmt.Sprintf("%s %d->%d", kind, a.src, a.dst))
		}
	}
	sort.Strings(out)
	return out
}
