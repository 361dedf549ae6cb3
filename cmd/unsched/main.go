// Command unsched schedules one unstructured communication pattern and
// reports what the paper's algorithms make of it: phase counts,
// contention checks, simulated communication time on the iPSC/860
// model, and optional schedule listings.
//
// Usage examples:
//
//	unsched -n 64 -d 8 -bytes 4096                 # compare all algorithms
//	unsched -n 64 -d 8 -bytes 4096 -alg RS_NL -trace
//	unsched -n 64 -d 8 -bytes 4096 -alg auto       # calibrated pick
//	unsched -pattern hotspot -n 64 -d 8 -bytes 1024
//	unsched -pattern halo:16x16:512 -n 64            # any workload spec
//	unsched -load pattern.txt -alg LP -gantt
//
// With -server the CLI schedules against a running unschedd daemon
// instead of computing locally; -binary negotiates the daemon's
// compact binary response encoding and -batch streams all algorithms
// through one POST /v1/schedule/batch request:
//
//	unsched -server http://localhost:8080 -n 256 -d 8 -bytes 4096
//	unsched -server http://localhost:8080 -binary -alg RS_NL
//	unsched -server http://localhost:8080 -batch
package main

import (
	"flag"
	"fmt"
	"math/bits"
	"math/rand"
	"os"
	"strings"
	"text/tabwriter"

	"unsched/internal/comm"
	"unsched/internal/costmodel"
	"unsched/internal/ipsc"
	"unsched/internal/quality"
	"unsched/internal/sched"
	"unsched/internal/topo"
	"unsched/internal/trace"
	"unsched/internal/workload"
)

func main() {
	n := flag.Int("n", 64, "processor count (power of two)")
	d := flag.Int("d", 8, "density: messages sent/received per processor")
	bytes := flag.Int64("bytes", 4096, "uniform message size")
	pattern := flag.String("pattern", "dregular", "workload: dregular|random|hotspot|bitcomp|alltoall|mixed, or any workload spec ("+strings.Join(workload.Grammars(), ", ")+")")
	topoName := flag.String("topo", "cube", "topology: cube|mesh|torus (mesh/torus need a square node count)")
	load := flag.String("load", "", "load a communication matrix from file instead of generating")
	alg := flag.String("alg", "", "run one algorithm (auto|"+strings.Join(sched.Tags(), "|")+"); default: compare every algorithm that fits the machine")
	seed := flag.Int64("seed", 7, "random seed")
	doTrace := flag.Bool("trace", false, "print the phase-by-phase schedule")
	doGantt := flag.Bool("gantt", false, "print a per-node phase occupancy chart")
	doHeat := flag.Bool("heatmap", false, "print the communication matrix heatmap")
	saveSched := flag.String("save", "", "write the (single -alg) schedule to this file for reuse")
	server := flag.String("server", "", "base URL of a running unschedd; schedule remotely instead of locally")
	binary := flag.Bool("binary", false, "with -server: negotiate the compact binary response encoding")
	batch := flag.Bool("batch", false, "with -server: submit all algorithms as one streaming batch")
	flag.Parse()

	if *saveSched != "" && *alg == "" {
		fatal(fmt.Errorf("-save requires a single -alg"))
	}
	if (*binary || *batch) && *server == "" {
		fatal(fmt.Errorf("-binary and -batch require -server"))
	}

	if *server != "" {
		var m *comm.Matrix
		nodes := *n
		if *load != "" {
			var err error
			if m, err = buildMatrix(*load, *pattern, *n, *d, *bytes, *seed); err != nil {
				fatal(err)
			}
			nodes = m.N()
		}
		algs := fitting(nodes)
		if *alg != "" {
			algs = []string{*alg}
		}
		sp, err := topologySpec(*topoName, nodes)
		if err != nil {
			fatal(err)
		}
		req, err := remoteRequest(m, *pattern, *d, *bytes, sp, *seed)
		if err != nil {
			fatal(err)
		}
		if err := runRemote(*server, algs, req, *binary, *batch); err != nil {
			fatal(err)
		}
		return
	}

	m, err := buildMatrix(*load, *pattern, *n, *d, *bytes, *seed)
	if err != nil {
		fatal(err)
	}
	sp, err := topologySpec(*topoName, m.N())
	if err != nil {
		fatal(err)
	}
	net, err := sp.Build()
	if err != nil {
		fatal(err)
	}
	params := costmodel.DefaultIPSC860()

	fmt.Printf("pattern: n=%d messages=%d density=%d total=%d bytes\n",
		m.N(), m.MessageCount(), m.Density(), m.TotalBytes())
	if *doHeat {
		fmt.Print(trace.MatrixHeatmap(m))
	}

	algs := fitting(m.N())
	if *alg != "" {
		algs = []string{*alg}
	}
	if *alg == "auto" {
		// The same resolution the daemon performs, minus a calibration
		// store: the committed fallback table ranks the matrix's feature
		// bin, which is all a one-shot CLI run can know.
		var model *quality.Model
		chosen := model.Pick(net.Name(), sched.MeasureFeatures(m))[0]
		fmt.Printf("auto: resolved to %s (committed fallback calibration)\n", chosen)
		algs = []string{chosen}
	}
	tw := tabwriter.NewWriter(os.Stdout, 2, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "algorithm\tphases\tpairwise\tcomp(ms)\tcomm(ms)\tlink-free")
	for _, name := range algs {
		if err := runOne(tw, name, m, net, params, *seed, *doTrace, *doGantt, *saveSched); err != nil {
			fatal(err)
		}
	}
	if err := tw.Flush(); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "unsched:", err)
	os.Exit(1)
}

func buildMatrix(load, pattern string, n, d int, bytes, seed int64) (*comm.Matrix, error) {
	if load != "" {
		f, err := os.Open(load)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return comm.Read(f)
	}
	rng := rand.New(rand.NewSource(seed))
	switch pattern {
	case "dregular":
		return comm.DRegular(n, d, bytes, rng)
	case "random":
		return comm.UniformRandom(n, d, bytes, rng)
	case "hotspot":
		return comm.HotSpot(n, d, bytes, max(1, n/16), 0.7, rng)
	case "bitcomp":
		return comm.BitComplement(n, bytes)
	case "alltoall":
		return comm.AllToAll(n, bytes)
	case "mixed":
		return comm.MixedSizes(n, d, bytes/8+1, bytes, rng)
	default:
		// Anything else is a workload spec: the same canonical grammar
		// the campaign engine and the unschedd service speak, sized here
		// by -n and ignoring -d/-bytes (the spec carries its own
		// parameters).
		sp, err := workload.ParseSpec(pattern)
		if err != nil {
			return nil, fmt.Errorf("pattern %q is neither a named pattern nor a workload spec: %w", pattern, err)
		}
		if err := sp.ValidateFor(n); err != nil {
			return nil, err
		}
		return sp.Build(n, rng)
	}
}

// topologySpec resolves the -topo flag for an n-node machine: the
// local run builds the spec, the remote run sends its string form.
func topologySpec(name string, n int) (topo.Spec, error) {
	switch name {
	case "cube":
		if n <= 0 || n&(n-1) != 0 {
			return topo.Spec{}, fmt.Errorf("cube needs a power-of-two node count, got %d", n)
		}
		return topo.CubeSpec(bits.TrailingZeros(uint(n))), nil
	case "mesh", "torus":
		side := 1
		for side*side < n {
			side++
		}
		if side*side != n {
			return topo.Spec{}, fmt.Errorf("mesh/torus need a square node count, got %d", n)
		}
		if name == "torus" {
			return topo.TorusSpec(side, side), nil
		}
		return topo.MeshSpec(side, side), nil
	default:
		return topo.Spec{}, fmt.Errorf("unknown topology %q", name)
	}
}

// fitting returns the tags of the table algorithms that can schedule
// an n-processor matrix, in table order: the rule auto's Pick applies.
func fitting(n int) []string {
	var tags []string
	for _, a := range sched.Algorithms {
		if a.Fits(n) {
			tags = append(tags, a.Tag)
		}
	}
	return tags
}

func runOne(tw *tabwriter.Writer, name string, m *comm.Matrix, net topo.Topology,
	params costmodel.Params, seed int64, doTrace, doGantt bool, savePath string) error {
	a, ok := sched.Lookup(name)
	if !ok {
		return fmt.Errorf("unknown algorithm %q (want %s)", name, sched.WantList(append([]string{"auto"}, sched.Tags()...)...))
	}
	core := sched.NewCoreDirect(net)
	mach, err := ipsc.NewMachine(net, params)
	if err != nil {
		return err
	}
	if a.Build == nil {
		order, err := core.AC(m)
		if err != nil {
			return err
		}
		res, err := mach.RunAC(order, m)
		if err != nil {
			return err
		}
		fmt.Fprintf(tw, "%s\t-\t-\t0.00\t%.2f\t-\n", name, res.MakespanUS/1000)
		return nil
	}

	s, err := a.Build(core, m, rand.New(rand.NewSource(seed)))
	if err != nil {
		return err
	}
	if err := s.Validate(m); err != nil {
		return fmt.Errorf("%s produced an invalid schedule: %w", name, err)
	}
	linkFree := "yes"
	if err := s.ValidateLinkFree(net); err != nil {
		linkFree = "no"
	}

	res, err := mach.Run(a.Protocol, s)
	if err != nil {
		return err
	}
	fmt.Fprintf(tw, "%s\t%d\t%.0f%%\t%.2f\t%.2f\t%s\n",
		name, s.NumPhases(), 100*s.PairwiseFraction(),
		params.CompTimeMS(s.Ops), res.MakespanUS/1000, linkFree)

	if doTrace {
		if err := trace.WriteSchedule(os.Stdout, s); err != nil {
			return err
		}
	}
	if doGantt {
		fmt.Print(trace.Gantt(s, 80))
	}
	if savePath != "" {
		f, err := os.Create(savePath)
		if err != nil {
			return err
		}
		if _, err := s.WriteTo(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "schedule written to %s (reload with sched.ReadSchedule)\n", savePath)
	}
	return nil
}
