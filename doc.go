// Package unsched schedules unstructured (all-to-many personalized)
// communication on circuit-switched hypercubes, reproducing Wang &
// Ranka, "Scheduling of Unstructured Communication on the Intel
// iPSC/860" (SC 1994).
//
// Given an n x n communication matrix COM — COM(i,j) = m > 0 when
// processor Pi must send m bytes to Pj — the package decomposes the
// communication into partial permutations (phases) that avoid node
// contention and, optionally, link contention under e-cube routing:
//
//   - AC: the asynchronous baseline — no scheduling at all (§3)
//   - LP: XOR linear permutations, all pairwise exchanges, n-1 phases,
//     contention-free by construction (§4.1)
//   - RSN: randomized scheduling avoiding node contention (§4.2)
//   - RSNL: randomized scheduling avoiding node and link contention,
//     with pairwise-exchange priority (§5)
//
// plus a deterministic greedy baseline and largest-first variants for
// non-uniform message sizes. One algorithm table (internal/sched)
// records each one's tag, paired execution protocol and machine
// constraint; Simulate and the unschedd daemon read the pairing there.
//
// Because the iPSC/860 no longer exists, the package ships one
// substitute for it: a deterministic discrete-event simulator of the
// circuit-switched hypercube (Simulate*), calibrated against published
// iPSC/860 measurements. Independent oracles check it: conservation
// (every message is delivered exactly once), a per-channel makespan
// floor (a directed channel carries one circuit at a time), and
// bit-identical results at every parallelism; link-free validation
// checks the schedules it runs.
//
// The quickest start:
//
//	cube := unsched.NewCube(6) // 64 nodes
//	m, _ := unsched.UniformRandom(64, 8, 4096, rng)
//	s, _ := unsched.RSNL(m, cube, rng)
//	res, _ := unsched.SimulateS1(cube, unsched.DefaultIPSC860(), s)
//	fmt.Printf("%.2f ms in %d phases\n", res.MakespanUS/1000, s.NumPhases())
//
// The experiment harness that regenerates every table and figure of
// the paper lives behind cmd/experiments; the root bench suite
// (bench_test.go) exposes the same measurements as Go benchmarks.
//
// # Topologies
//
// The schedulers, simulator, and experiment engine are generic over
// Topology — any deterministic-routing network, which is all the
// paper's approach requires (§5). Built-in machines: the hypercube
// (e-cube routing), 2D mesh and torus (XY routing), rings, and
// arbitrary connected graphs routed by canonical BFS shortest paths
// with lowest-id tie-breaking. TopologySpec is the shared vocabulary:
// parse "cube:6", "torus:8x8", "ring:12", or "graph:5:0-1,..." with
// ParseTopologySpec and Build the machine; the unschedd topology wire
// field and the experiments -topo flag accept the same grammar.
//
// # Workloads
//
// The other campaign axis gets the same treatment: WorkloadSpec is
// the canonical description of a communication pattern, parsed from
// strings like "uniform:8:4096" (the paper's d-regular sweep),
// "hotspot:8:4096:4", "halo:64x64:512", "spmv:12:8", "perm:2048",
// "transpose:4096", "shift:3:1024", "stencil3d:8x8x8:64",
// "bitcomp:1024", and "alltoall:256" with ParseWorkloadSpec. Specs
// are machine-sized at build time (Spec.Build(n, rng)), so one spec
// sweeps unchanged across topologies; the unschedd workload wire
// fields, the experiments -workload flag, and unsched -pattern all
// accept the same grammar. Each generator also has an Into form that
// regenerates into a reused matrix, which is how campaign workers
// avoid allocating n^2 storage per cell.
//
// # Parallel campaigns
//
// Measurement campaigns run on a worker-pool engine
// (ExperimentRunner): every (workload, sample) combination is one
// independent unit, fanned across up to GOMAXPROCS workers, each
// owning a reusable simulator machine (SimMachine), scheduler core,
// and workload matrix; a unit regenerates its matrix once and
// measures all four algorithms on it. The campaign grid is
// (topology x workload x sample): the machine is
// ExperimentConfig.Topology — any Topology with a power-of-two node
// count (LP's XOR pairing needs one) runs the paper's full §6
// protocol, all workers sharing one precomputed RouteTable per
// campaign — and the cells are workload specs (MeasureWorkloads, or
// the classic uniform sweeps behind Table1 and the figures).
// Randomness is organized so parallelism can never change a result:
// the master seed plus a unit's own coordinates (its workload's
// stream key, its sample, its algorithm) name its RNG streams via a
// SplitMix64-keyed source (internal/stats), so a unit draws the same
// numbers whether it runs first, last, or concurrently with the
// rest. Campaign output is therefore bit-identical at every worker
// count — a tested invariant, not an accident:
//
//	runner := unsched.NewExperimentRunner(cfg, 0) // 0 = GOMAXPROCS
//	runner.Progress = func(done, total int) { fmt.Printf("\r%d/%d", done, total) }
//	halo, _ := unsched.ParseWorkloadSpec("halo:64x64:512")
//	cells, err := runner.MeasureWorkloads(ctx, []unsched.WorkloadSpec{halo})
//
// To reproduce the paper's exact protocol, set Samples to 50 in the
// config and run any campaign; the default seed 1994 pins the full
// random universe of the evaluation.
//
// # Route tables and reusable scheduler cores
//
// Deterministic routing means every route is a pure function of
// (src, dst) — the paper's §5 observation that "for regular topologies
// the size of PATHS can be much smaller". NewRouteTable precomputes
// all n^2 routes of a Topology into a CSR-packed read-only table
// (O(n^2 * diameter) memory: ~64 KB for the 64-node cube), built once
// and shared across any number of goroutines; past a 2^26-hop budget
// it returns a lazy table that generates routes on the fly instead.
// Precomputation costs one route generation per pair, so it pays off
// as soon as a topology serves more than a handful of schedules; for
// one-shot scheduling the package-level functions keep generating
// routes on the fly. Schedulers and the simulator claim channels in
// the same bitset occupancy over either kind of table.
//
// NewSchedCore pairs such a table with a reusable scheduler instance
// (SchedCore) that owns all scheduling scratch — CCOM row storage,
// channel-occupancy tables, busy vectors, partition buffers — and
// re-initializes it in place per call, mirroring SimMachine's
// Reset-reuse contract: one core per goroutine, any number of
// schedules, (near) zero allocation beyond the returned Schedule.
// Core methods consume the identical RNG stream as the package-level
// functions, so their schedules are bit-identical; the campaign
// workers and every unschedd worker run on cached cores.
//
//	table := unsched.NewRouteTable(cube)        // once per topology
//	core := unsched.NewSchedCoreForTable(table) // once per goroutine
//	for _, m := range workload {
//		s, _ := core.RSNL(m, rng) // no per-call scratch allocation
//		res, _ := mach.RunS1(s)
//		...
//	}
//
// # Scheduling as a service
//
// The same machinery runs as a long-lived daemon: NewServer returns an
// http.Handler (served standalone by cmd/unschedd) exposing
// POST /v1/schedule, POST /v1/simulate, and async POST /v1/campaign
// jobs — campaigns sweep either the classic density grid or a
// workloads spec list, and schedule requests may name a workload
// instead of shipping a matrix. Requests execute on a bounded worker
// pool where each worker owns reusable SimMachines, responses are
// memoized in a sharded LRU keyed by a canonical content hash of
// (matrix or workload, algorithm, topology, params, seed), and
// randomized schedulers — and server-generated workloads — derive
// their RNG seed from that same hash, so identical requests return
// bit-identical patterns and schedules whether they hit the cache or
// recompute. /v1/schedule and /v1/simulate share one serve path: the
// body resolves into a job (content key, endpoint, compute) that is
// revalidated, memoized and encoded the same way, and batch items and
// auto_race lanes join it at the cache. A bounded table keyed by the
// SHA-256 of each request body remembers the content key the body
// resolved to, so a repeated body skips decode and fingerprinting and
// goes straight to revalidation and the cache; "auto" requests, whose
// pick depends on the calibration model, are never recorded. A full
// queue sheds load with 429; Close drains gracefully.
//
// Daemons scale out without coordination: since the cache is
// content-addressed, ServerOptions.Peers (cmd/unschedd -peers) joins
// N daemons into a fleet serving one logical cache. Rendezvous
// hashing assigns every key an owning member, a miss on a non-owned
// key fetches the owner's checksummed record (budgeted, with a hedged
// second probe near p90) under the same single-flight slot before
// computing, and locally computed non-owned records are pushed to
// their owner by a bounded write-behind queue — so the fleet
// converges on one compute per unique key while every member's
// responses stay byte-identical to a solo daemon's. Peers are an
// accelerator, never a dependency: any peer failure falls back to
// local compute. See the README's "Fleet mode" section and
// examples/fleet for the 3-daemon walkthrough.
//
// # Algorithm selection
//
// The daemon also answers "algorithm": "auto" — a portfolio
// meta-scheduler calibrated by the service's own campaigns. Every
// scheduling run emits a SchedOutcome (estimated communication,
// modeled scheduling cost, and the matrix's SchedFeatures); campaigns
// aggregate them into QualityRecords on an append-only store
// (QualityStore, ServerOptions.QualityStore), and a QualityModel bins
// the records by (topology kind, node count, density, size variation)
// and ranks each bin's algorithms by mean total cost. "auto" resolves
// through Model.Pick BEFORE cache-key fingerprinting, so an auto
// request shares its cache slot, ETag, and bytes with a direct
// request for the chosen tag — bit-identically across servers sharing
// a calibration store. Uncalibrated bins answer from a committed
// fallback table (regenerate with the experiments CLI's autofallback
// target); "auto_race": true races the model's top candidates and
// keeps the best simulated schedule. See the README's "Algorithm
// selection" section and examples/autosched for the full loop.
//
// The wire surface is versioned and negotiable. Responses come back
// as JSON by default or, with Accept: application/x-unsched-binary,
// as a compact varint-based binary envelope (DecodeBinaryResponse
// parses it; DecodeMatrixBinary handles the embedded matrix block)
// that gzips to a fraction of the JSON size. The response's content
// hash doubles as a strong ETag, so If-None-Match revalidation
// answers 304 with zero body bytes before any scheduling work, and
// POST /v1/schedule/batch streams many schedule requests through the
// worker pool as NDJSON lines in completion order. Errors carry a
// stable machine-readable code next to the human message
// (ErrorEnvelope); clients branch on the code, never the text.
package unsched
