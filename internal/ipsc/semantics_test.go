package ipsc

// Deeper machine-semantics tests: asymmetric exchanges, short-message
// fire-and-forget, async sends, mesh topologies, conservation
// properties, and compile-level validation.

import (
	"errors"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"unsched/internal/comm"
	"unsched/internal/costmodel"
	"unsched/internal/hypercube"
	"unsched/internal/mesh"
	"unsched/internal/sched"
	"unsched/internal/topo"
)

func TestExchangeAsymmetricSizesCostsMax(t *testing.T) {
	m := mustMachine(t, 3)
	p := params()
	programs := make([][]op, 8)
	programs[0] = []op{{kind: opExchange, peer: 1, bytes: 128 * 1024}}
	programs[1] = []op{{kind: opExchange, peer: 0, bytes: 256}}
	res, err := m.run(programs)
	if err != nil {
		t.Fatal(err)
	}
	big := p.TransferTime(128*1024, 1)
	want := p.SyncOverheadUS + p.SignalTime(1) + big
	if res.MakespanUS != want {
		t.Errorf("asymmetric exchange = %v, want %v (the larger direction)", res.MakespanUS, want)
	}
}

func TestExchangeWaitsForBusyRoute(t *testing.T) {
	// A third party's circuit across the exchange's wires delays it.
	m := mustMachine(t, 3)
	programs := make([][]op, 8)
	// 0->3 routes 0->1->3, claiming channel 1->3 (up).
	programs[0] = []op{{kind: opSendFire, peer: 3, bytes: 128 * 1024}}
	programs[3] = []op{{kind: opWaitAll}}
	// Exchange 1<->3 needs channels 1->3 and 3->1; the up channel is
	// busy until the transfer ends.
	programs[1] = []op{{kind: opExchange, peer: 3, bytes: 1024}}
	// Node 3's program: waitAll first would deadlock (exchange must be
	// reached); order exchange then waitAll.
	programs[3] = []op{{kind: opExchange, peer: 1, bytes: 1024}, {kind: opWaitAll}}
	res, err := m.run(programs)
	if err != nil {
		t.Fatal(err)
	}
	p := params()
	firstDone := p.TransferTime(128*1024, 2)
	if res.MakespanUS <= firstDone {
		t.Errorf("exchange did not wait for the crossing circuit: %v <= %v",
			res.MakespanUS, firstDone)
	}
}

func TestShortMessagesBypassReceiverEngine(t *testing.T) {
	// Two senders fire 64 B messages at one receiver simultaneously;
	// short protocol means no receiver serialization (only distinct
	// channels), so both complete in one transfer time.
	m := mustMachine(t, 3)
	p := params()
	programs := make([][]op, 8)
	programs[1] = []op{{kind: opSendFire, peer: 0, bytes: 64}}
	programs[2] = []op{{kind: opSendFire, peer: 0, bytes: 64}}
	programs[0] = []op{{kind: opWaitAll}}
	res, err := m.run(programs)
	if err != nil {
		t.Fatal(err)
	}
	slowest := p.TransferTime(64, 1) // 2->0 is 1 hop; 1->0 is 1 hop
	if res.MakespanUS != slowest {
		t.Errorf("short messages serialized: %v, want %v", res.MakespanUS, slowest)
	}
}

func TestAsyncSendsSkipBlockedReceiver(t *testing.T) {
	// Node 0 sends to 1 (busy transmitting for a long time) and to 2
	// (idle). With async sends the 0->2 transfer must not wait for
	// 0->1 to become possible.
	m := mustMachine(t, 3)
	p := params()
	longSend := p.TransferTime(128*1024, 1)
	programs := make([][]op, 8)
	programs[1] = []op{{kind: opSendFire, peer: 5, bytes: 128 * 1024}, {kind: opWaitAll}}
	programs[5] = []op{{kind: opWaitAll}}
	programs[0] = []op{
		// Small delay so node 1 is already mid-transmit when the async
		// sends are initiated.
		{kind: opDelay, cost: 100},
		{kind: opSendAsync, peer: 1, bytes: 4096},
		{kind: opSendAsync, peer: 2, bytes: 4096},
		{kind: opWaitSent},
	}
	programs[2] = []op{{kind: opWaitAll}}
	res, err := m.run(programs)
	if err != nil {
		t.Fatal(err)
	}
	// 0's send to 2 finishes quickly; 0's send to 1 waits out the long
	// transfer. Makespan ≈ longSend + short, NOT 2x longSend.
	if res.MakespanUS >= 2*longSend {
		t.Errorf("async sends convoyed: %v", res.MakespanUS)
	}
	if res.MakespanUS <= longSend {
		t.Errorf("0->1 should have waited for the long transfer: %v", res.MakespanUS)
	}
}

func TestSimulationOnMeshTopology(t *testing.T) {
	net := mesh.MustNew(4, 4, false)
	rng := rand.New(rand.NewSource(31))
	m, err := comm.UniformRandom(16, 3, 2048, rng)
	if err != nil {
		t.Fatal(err)
	}
	s, err := sched.RSNL(m, net, rng)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunS1(net, params(), s)
	if err != nil {
		t.Fatal(err)
	}
	if res.Transfers+2*res.Exchanges != m.MessageCount() {
		t.Errorf("mesh run delivered %d+2*%d of %d", res.Transfers, res.Exchanges, m.MessageCount())
	}
	// S2 on the mesh too.
	s2, err := sched.RSN(m, rng)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := RunS2(net, params(), s2)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Transfers != m.MessageCount() {
		t.Errorf("mesh S2 delivered %d of %d", res2.Transfers, m.MessageCount())
	}
}

func TestSimulationOnTorusFasterThanMesh(t *testing.T) {
	// Wraparound halves route lengths for boundary traffic; the same
	// schedule-and-simulate flow on the torus should not be slower.
	rng := rand.New(rand.NewSource(32))
	m, err := comm.DRegular(64, 6, 16*1024, rng)
	if err != nil {
		t.Fatal(err)
	}
	flat := mesh.MustNew(8, 8, false)
	wrap := mesh.MustNew(8, 8, true)
	var flatMS, wrapMS float64
	for seed := int64(0); seed < 3; seed++ {
		sf, err := sched.RSNL(m, flat, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		rf, err := RunS1(flat, params(), sf)
		if err != nil {
			t.Fatal(err)
		}
		sw, err := sched.RSNL(m, wrap, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		rw, err := RunS1(wrap, params(), sw)
		if err != nil {
			t.Fatal(err)
		}
		flatMS += rf.MakespanUS
		wrapMS += rw.MakespanUS
	}
	if wrapMS >= flatMS {
		t.Errorf("torus (%v) should beat mesh (%v)", wrapMS, flatMS)
	}
}

// Property: for any random workload and any of the three executors,
// every scheduled message is delivered exactly once (conservation).
func TestConservationProperty(t *testing.T) {
	cube := hypercube.MustNew(5)
	f := func(seed int64, dRaw uint8) bool {
		d := 1 + int(dRaw)%8
		rng := rand.New(rand.NewSource(seed))
		m, err := comm.UniformRandom(32, d, 1024, rng)
		if err != nil {
			return false
		}
		s, err := sched.RSNL(m, cube, rng)
		if err != nil {
			return false
		}
		r1, err := RunS1(cube, params(), s)
		if err != nil {
			return false
		}
		if r1.Transfers+2*r1.Exchanges != m.MessageCount() {
			return false
		}
		r2, err := RunS2(cube, params(), s)
		if err != nil {
			return false
		}
		if r2.Transfers != m.MessageCount() {
			return false
		}
		o, err := sched.AC(m)
		if err != nil {
			return false
		}
		r3, err := RunAC(cube, params(), o, m)
		if err != nil {
			return false
		}
		return r3.Transfers == m.MessageCount()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

// Property: every run's makespan lies between two bounds.
//
//   - The per-channel floor. A directed channel carries one circuit at
//     a time, and a circuit holds its channels for at least the
//     TransferTime of the message it carries (an exchange holds both
//     directions for the slower one plus the handshake). So for every
//     channel, the makespan is at least the summed TransferTime of the
//     messages routed over it. A simulator that lets two circuits
//     share a channel falls below it.
//   - The serial ceiling: the summed TransferTime of every message,
//     plus 1 s.
//
// The grid runs every table entry that fits, under its table
// protocol, plus S1 with barriers and AC with unbounded send depth, on
// cube, mesh, torus and ring, over uniform, hot-spot and mixed-size
// random patterns from short messages to 128 KB.
func TestMakespanBoundsProperty(t *testing.T) {
	const seeds = 20
	p := params()
	patterns := []struct {
		name string
		gen  func(n, d int, size int64, rng *rand.Rand) (*comm.Matrix, error)
	}{
		{"uniform", func(n, d int, size int64, rng *rand.Rand) (*comm.Matrix, error) {
			return comm.UniformRandom(n, d, size, rng)
		}},
		{"hotspot", func(n, d int, size int64, rng *rand.Rand) (*comm.Matrix, error) {
			return comm.HotSpot(n, d, size, 2, 0.5, rng)
		}},
		// Sizes straddle the level: at 64 B they cross the short
		// protocol's limit.
		{"mixed", func(n, d int, size int64, rng *rand.Rand) (*comm.Matrix, error) {
			return comm.MixedSizes(n, d, size/2, 2*size, rng)
		}},
	}
	runs, below := 0, 0
	for _, spec := range []string{"cube:3", "cube:5", "mesh:4x4", "torus:4x4", "ring:12"} {
		rt := topo.NewRouteTable(topo.MustParseSpec(spec).MustBuild())
		mach, err := NewMachine(rt, p)
		if err != nil {
			t.Fatal(err)
		}
		core := sched.NewCoreForTable(rt)
		for _, size := range []int64{64, 1024, 128 * 1024} {
			for _, pat := range patterns {
				for seed := int64(0); seed < seeds; seed++ {
					rng := rand.New(rand.NewSource(seed))
					m, err := pat.gen(rt.Nodes(), 1+int(seed)%3, size, rng)
					if err != nil {
						t.Fatal(err)
					}
					floor, ceiling := makespanBounds(rt, p, m)
					check := func(run string, res Result, err error) {
						t.Helper()
						if err != nil {
							t.Fatalf("%s %s:%d seed %d %s: %v", spec, pat.name, size, seed, run, err)
						}
						runs++
						if res.MakespanUS < floor-1e-6 {
							below++
							t.Errorf("%s %s:%d seed %d %s: makespan %.3fµs below the per-channel floor %.3fµs",
								spec, pat.name, size, seed, run, res.MakespanUS, floor)
						}
						if res.MakespanUS >= ceiling {
							t.Errorf("%s %s:%d seed %d %s: makespan %.3fµs at or above the serial ceiling %.3fµs",
								spec, pat.name, size, seed, run, res.MakespanUS, ceiling)
						}
					}
					for _, alg := range sched.Algorithms {
						if !alg.Fits(rt.Nodes()) {
							continue
						}
						if alg.Build == nil {
							o, err := core.AC(m)
							if err != nil {
								t.Fatal(err)
							}
							res, err := mach.RunAC(o, m)
							check("AC", res, err)
							res, err = mach.RunACAsync(o, m)
							check("AC async", res, err)
							continue
						}
						s, err := alg.Build(core, m, rng)
						if err != nil {
							t.Fatal(err)
						}
						res, err := mach.Run(alg.Protocol, s)
						check(alg.Tag, res, err)
						if alg.Protocol == "S1" {
							res, err = mach.RunS1Barrier(s)
							check(alg.Tag+" with barriers", res, err)
						}
					}
				}
			}
		}
	}
	if below > 0 {
		t.Errorf("%d of %d runs fell below the per-channel floor", below, runs)
	}
}

// makespanBounds returns the per-channel floor of m on rt — the
// largest summed TransferTime of the messages routed over any one
// directed channel — and the serial ceiling, the summed TransferTime
// of every message plus 1 s.
func makespanBounds(rt *topo.RouteTable, p costmodel.Params, m *comm.Matrix) (floor, ceiling float64) {
	load := make([]float64, rt.NumChannels())
	var route []int
	for _, msg := range m.Messages() {
		cost := p.TransferTime(msg.Bytes, rt.Hops(msg.Src, msg.Dst))
		ceiling += cost
		route = rt.RouteIDs(msg.Src, msg.Dst, route[:0])
		for _, c := range route {
			load[c] += cost
		}
	}
	return slices.Max(load), ceiling + 1e6
}

// The LP protocol compiles only LP schedules: appendLP, behind
// Machine.RunLP, rejects anything else before simulating.
func TestCompileLPRejectsNonLP(t *testing.T) {
	m, err := comm.UniformRandom(8, 2, 256, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	s, err := sched.RSN(m, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	mach := mustMachine(t, 3)
	var se *ScheduleError
	if _, err := mach.RunLP(s); !errors.As(err, &se) {
		t.Errorf("RunLP on a non-LP schedule: %v, want a *ScheduleError", err)
	}
	// A forged LP schedule with a non-XOR transfer is also rejected.
	forged := &sched.Schedule{Algorithm: "LP", N: 8}
	ph := sched.NewPhase(8)
	ph.Send[0], ph.Bytes[0] = 3, 100 // phase 0 pairs with XOR 1, not 3
	forged.Phases = append(forged.Phases, ph)
	if _, err := mach.RunLP(forged); !errors.As(err, &se) {
		t.Errorf("RunLP on a forged LP schedule: %v, want a *ScheduleError", err)
	}
}

func TestRunLPOnBitComplement(t *testing.T) {
	// Bit complement is a single XOR permutation (k = n-1): LP carries
	// it in exactly one non-empty phase, and the simulated time is one
	// concurrent exchange plus the phase sweep.
	cube := hypercube.MustNew(6)
	m, err := comm.BitComplement(64, 32*1024)
	if err != nil {
		t.Fatal(err)
	}
	s, err := sched.LP(m)
	if err != nil {
		t.Fatal(err)
	}
	nonEmpty := 0
	for _, ph := range s.Phases {
		if ph.Messages() > 0 {
			nonEmpty++
		}
	}
	if nonEmpty != 1 {
		t.Fatalf("bit complement spread over %d phases", nonEmpty)
	}
	res, err := RunLP(cube, params(), s)
	if err != nil {
		t.Fatal(err)
	}
	// LP performs a pairwise-synchronized exchange in every phase for
	// every pair — 63 phases x 32 pairs — of which exactly one phase
	// carries the data; nothing travels as a unidirectional transfer.
	if res.Exchanges != 63*32 {
		t.Errorf("exchanges = %d, want %d", res.Exchanges, 63*32)
	}
	if res.Transfers != 0 {
		t.Errorf("transfers = %d, want 0", res.Transfers)
	}
	p := params()
	if res.MakespanUS < p.TransferTime(32*1024, 6) {
		t.Errorf("makespan %v below one data exchange", res.MakespanUS)
	}
}

func TestIPSC2PresetRuns(t *testing.T) {
	// The predecessor machine's constants: same orderings, slower
	// absolute times.
	cube := hypercube.MustNew(6)
	rng := rand.New(rand.NewSource(33))
	m, err := comm.DRegular(64, 8, 16*1024, rng)
	if err != nil {
		t.Fatal(err)
	}
	s, err := sched.RSNL(m, cube, rng)
	if err != nil {
		t.Fatal(err)
	}
	p860 := params()
	p2 := ipsc2Params(t)
	r860, err := RunS1(cube, p860, s)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := RunS1(cube, p2, s)
	if err != nil {
		t.Fatal(err)
	}
	if r2.MakespanUS <= r860.MakespanUS {
		t.Errorf("iPSC/2 (%v) should be slower than iPSC/860 (%v)", r2.MakespanUS, r860.MakespanUS)
	}
}

func ipsc2Params(t *testing.T) costmodel.Params {
	t.Helper()
	p := costmodel.DefaultIPSC2()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	return p
}
