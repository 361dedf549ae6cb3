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
//	unsched -pattern hotspot -n 64 -d 8 -bytes 1024  # hotspot:8:1024:4
//	unsched -pattern halo:16x16:512 -n 64            # any workload spec
//	unsched -load pattern.txt -alg LP -gantt
//
// -pattern is a workload spec, sized by -n, or a bare kind name or alias
// (dregular, the default, random, hotspot, mixed, ...) whose D, BYTES
// and HOT are -d, -bytes and max(1, n/16); halo and the like need a spec.
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
	"io"
	"math/bits"
	"math/rand"
	"os"
	"strings"
	"text/tabwriter"

	"unsched"
	"unsched/internal/comm"
	"unsched/internal/costmodel"
	"unsched/internal/ipsc"
	"unsched/internal/quality"
	"unsched/internal/sched"
	"unsched/internal/service"
	"unsched/internal/topo"
	"unsched/internal/trace"
	"unsched/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "unsched:", err)
		os.Exit(1)
	}
}

// run is the command behind main, on explicit arguments and streams.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("unsched", flag.ExitOnError)
	fs.SetOutput(stderr)
	n := fs.Int("n", 64, "processor count (power of two)")
	d := fs.Int("d", 8, "density: messages sent/received per processor")
	bytes := fs.Int64("bytes", 4096, "uniform message size")
	pattern := fs.String("pattern", "dregular", "workload spec ("+strings.Join(workload.Grammars(), ", ")+
		"), or a bare kind name or alias (dregular, random, ...) whose D is -d, BYTES -bytes and HOT max(1, n/16)")
	topoName := fs.String("topo", "cube", "topology: cube|mesh|torus (mesh/torus need a square node count)")
	load := fs.String("load", "", "load a communication matrix from file instead of generating")
	alg := fs.String("alg", "", "run one algorithm (auto|"+strings.Join(sched.Tags(), "|")+"); default: compare every algorithm that fits the machine")
	seed := fs.Int64("seed", 7, "random seed")
	doTrace := fs.Bool("trace", false, "print the phase-by-phase schedule")
	doGantt := fs.Bool("gantt", false, "print a per-node phase occupancy chart")
	doHeat := fs.Bool("heatmap", false, "print the communication matrix heatmap")
	saveSched := fs.String("save", "", "write the (single -alg) schedule to this file for reuse")
	server := fs.String("server", "", "base URL of a running unschedd; schedule remotely instead of locally")
	binary := fs.Bool("binary", false, "with -server: negotiate the compact binary response encoding")
	batch := fs.Bool("batch", false, "with -server: submit all algorithms as one streaming batch")
	_ = fs.Parse(args) // on a bad flag ExitOnError exits, as flag.Parse does

	if _, ok := sched.Lookup(*alg); !ok && *alg != "" && *alg != "auto" {
		return fmt.Errorf("unknown algorithm %q (want %s)", *alg, sched.WantList(append([]string{"auto"}, sched.Tags()...)...))
	}
	if *saveSched != "" && (*alg == "" || *server != "") {
		return fmt.Errorf("-save requires a single -alg and a local run")
	}
	if (*binary || *batch) && *server == "" {
		return fmt.Errorf("-binary and -batch require -server")
	}

	var m *comm.Matrix
	var wl workload.Spec
	var err error
	nodes := *n
	if *load != "" {
		f, err := os.Open(*load)
		if err != nil {
			return err
		}
		m, err = comm.Read(f)
		f.Close()
		if err != nil {
			return err
		}
		nodes = m.N()
	} else if wl, err = patternSpec(*pattern, *n, *d, *bytes); err != nil {
		return err
	}
	sp, err := topologySpec(*topoName, nodes)
	if err != nil {
		return err
	}
	algs := fitting(nodes)
	if *alg != "" {
		algs = []string{*alg}
	}
	if *server != "" {
		req := unsched.ScheduleRequest{Seed: *seed, Topology: &unsched.WireTopology{Spec: sp.String()}}
		if m != nil {
			req.Matrix = service.NewWireMatrix(m)
		} else {
			req.Workload = wl.String()
		}
		return runRemote(stdout, *server, algs, req, *binary, *batch)
	}

	if m == nil {
		if m, err = wl.Build(nodes, rand.New(rand.NewSource(*seed))); err != nil {
			return err
		}
	}
	net, err := sp.Build()
	if err != nil {
		return err
	}
	chosen := ""
	if *alg == "auto" {
		// The same resolution the daemon performs, minus a calibration
		// store: the committed fallback table ranks the matrix's feature
		// bin, which is all a one-shot CLI run can know.
		var model *quality.Model
		chosen = model.Pick(net.Name(), sched.MeasureFeatures(m))[0]
		algs = []string{chosen}
	}
	if a, ok := sched.Lookup(algs[0]); ok && a.Build == nil && *saveSched != "" {
		return fmt.Errorf("-save: %s sends asynchronously and has no phases to save", a.Tag)
	}

	fmt.Fprintf(stdout, "pattern: n=%d messages=%d density=%d total=%d bytes\n",
		m.N(), m.MessageCount(), m.Density(), m.TotalBytes())
	if *doHeat {
		fmt.Fprint(stdout, trace.MatrixHeatmap(m))
	}
	if chosen != "" {
		fmt.Fprintf(stdout, "auto: resolved to %s (committed fallback calibration)\n", chosen)
	}
	tw := tabwriter.NewWriter(stdout, 2, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "algorithm\tphases\tpairwise\tcomp(ms)\tcomm(ms)\tlink-free")
	var s *sched.Schedule
	for _, name := range algs {
		if s, err = runOne(stdout, tw, name, m, net, *seed, *doTrace, *doGantt); err != nil {
			return err
		}
	}
	if *saveSched != "" {
		f, err := os.Create(*saveSched)
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
		fmt.Fprintf(stderr, "schedule written to %s\n", *saveSched)
	}
	return tw.Flush()
}

// patternSpec resolves -pattern: a workload spec as written, or a bare
// kind name or alias whose grammar the flags fill.
func patternSpec(pattern string, n, d int, bytes int64) (workload.Spec, error) {
	if strings.Contains(pattern, ":") {
		return workload.ParseSpec(pattern)
	}
	return workload.BareSpec(pattern, map[string]int64{"D": int64(d), "BYTES": bytes, "HOT": int64(max(1, n/16))})
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

// runOne adds name's row to tw and returns its schedule (nil for AC).
func runOne(stdout io.Writer, tw *tabwriter.Writer, name string, m *comm.Matrix, net topo.Topology,
	seed int64, doTrace, doGantt bool) (*sched.Schedule, error) {
	a, _ := sched.Lookup(name) // run checked -alg; fitting and auto pick table tags
	core := sched.NewCoreDirect(net)
	params := costmodel.DefaultIPSC860()
	mach, err := ipsc.NewMachine(net, params)
	if err != nil {
		return nil, err
	}
	if a.Build == nil {
		order, err := core.AC(m)
		if err != nil {
			return nil, err
		}
		res, err := mach.RunAC(order, m)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(tw, "%s\t-\t-\t0.00\t%.2f\t-\n", name, res.MakespanUS/1000)
		return nil, nil
	}

	s, err := a.Build(core, m, rand.New(rand.NewSource(seed)))
	if err != nil {
		return nil, err
	}
	if err := s.Validate(m); err != nil {
		return nil, fmt.Errorf("%s produced an invalid schedule: %w", name, err)
	}
	linkFree := "yes"
	if err := s.ValidateLinkFree(net); err != nil {
		linkFree = "no"
	}

	res, err := mach.Run(a.Protocol, s)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(tw, "%s\t%d\t%.0f%%\t%.2f\t%.2f\t%s\n",
		name, s.NumPhases(), 100*s.PairwiseFraction(),
		params.CompTimeMS(s.Ops), res.MakespanUS/1000, linkFree)

	if doTrace {
		if err := trace.WriteSchedule(stdout, s); err != nil {
			return nil, err
		}
	}
	if doGantt {
		fmt.Fprint(stdout, trace.Gantt(s, 80))
	}
	return s, nil
}
