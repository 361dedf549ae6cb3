package workload

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files from current output")

// rawSpec prints a Spec's struct fields rather than its String form.
type rawSpec Spec

// goldenStrings are the spec strings testdata/specs.golden pins: every
// kind, both aliases, and malformed or out-of-range strings the
// parser must keep rejecting (or, for the signed and zero-padded
// numbers, keep accepting).
var goldenStrings = []string{
	"uniform:4:1024",
	"dregular:8:4096",
	"scatter:4:1024",
	"hotspot:4:1024:2",
	"hotspot:3:64:36",
	"halo:8x8:512",
	"halo:16x4:64",
	"halo:4x16:64",
	"halo:2x40:8",
	"halo:2x4096:524288",
	"halo:16x1024:4096",
	"spmv:6:8",
	"spmv:64:1",
	"perm:2048",
	"transpose:4096",
	"shift:3:1024",
	"shift:16:64",
	"stencil3d:4x4x4:64",
	"stencil3d:1x2x3:5",
	"stencil3d:2x2x2:64",
	"stencil3d:8x2x4:16",
	"bitcomp:1024",
	"alltoall:256",
	"uniform:1:1",
	"uniform:63:1073741824",
	"uniform:+8:1",
	"uniform:08:1",
	"halo:+8x+8:5",
	"stencil3d:+1x2x03:4",
	"perm:+64",
	// Rejected.
	"",
	":::",
	"uniform",
	"uniform:",
	"uniform:4",
	"uniform:4:1024:",
	"uniform:4:1024:9",
	"uniform:x:1024",
	"uniform:0:1024",
	"uniform:0:0",
	"uniform:4:0",
	"uniform:4:-5",
	"uniform:4: 1024",
	"uniform:4:1_024",
	"uniform:4:9999999999999999999",
	"uniform:99999999999999999999:1",
	"uniform:2000000:1024",
	"UNIFORM:4:1024",
	" uniform:4:1024",
	"dregular:4",
	"klein:4:1024",
	"scatter:4",
	"scatter:0:64",
	"hotspot:4:1024",
	"hotspot:4:1024:0",
	"hotspot:-1:-1:-1",
	"hotspot:4:1024:2000000",
	"halo:8:512",
	"halo:8x:5",
	"halo:x8:5",
	"halo:8X8:5",
	"halo:1x8:512",
	"halo:-2x8:1",
	"halo:8x8x8:512",
	"halo:99999x99999:512",
	"halo:4096x4096:1",
	"spmv:0:8",
	"spmv:65:8",
	"spmv:6:8:1",
	"perm:0",
	"perm:0x10",
	"perm:1:2",
	"transpose:-1",
	"shift:0:1024",
	"shift:-0:5",
	"shift:x:5",
	"shift:3",
	"stencil3d:2x2:1",
	"stencil3d:4x4:64",
	"stencil3d:0x4x4:64",
	"stencil3d:4x4x4x4:64",
	"stencil3d:2000x2000x2000:64",
	"bitcomp:",
	"alltoall:0",
	"alltoall:1073741825",
	"perm:\x00",
	// The mixed kind and the random alias, accepted and rejected.
	"mixed:4:1024",
	"mixed:8:4096",
	"mixed:4:2",
	"mixed:4:1",
	"mixed:63:131072",
	"random:4:1024",
	"mixed:4",
	"mixed:0:64",
	"random:4",
	"RANDOM:4:1024",
}

// goldenSpecs are hand-built Specs, most carrying another kind's
// fields: a kind must read only its own parameters.
var goldenSpecs = []Spec{
	{Kind: "uniform", D: 4, Bytes: 1024, Hot: 9, W: 8, H: 8, K: 16, NNZ: 3},
	{Kind: "scatter", D: 4, Bytes: 1024, X: 1, Y: 1, Z: 1},
	{Kind: "hotspot", D: 4, Bytes: 64, Hot: 2, W: 1},
	{Kind: "halo", W: 8, H: 8, Bytes: 64, D: 100, K: 16},
	{Kind: "halo", W: 4, H: 16, Bytes: 64, X: 99999},
	{Kind: "spmv", NNZ: 6, Bytes: 8, D: 63, Hot: 100},
	{Kind: "perm", Bytes: 64, NNZ: 999},
	{Kind: "transpose", Bytes: 64, D: 9},
	{Kind: "shift", K: 3, Bytes: 64, D: 99, NNZ: 1},
	{Kind: "stencil3d", X: 2, Y: 2, Z: 2, Bytes: 64, W: 1, H: 1},
	{Kind: "bitcomp", Bytes: 64, K: 16},
	{Kind: "alltoall", Bytes: 64, D: 1},
	// Rejected: the kind's own parameters are out of range, whatever
	// the others hold.
	{Kind: "shift", K: 0, D: 4, Bytes: 64},
	{Kind: "hotspot", D: 4, Bytes: 64, Hot: 0, K: 2},
	{Kind: "halo", X: 4, Y: 4, Z: 4, Bytes: 64},
	{Kind: "stencil3d", W: 8, H: 8, Bytes: 64},
	{Kind: "uniform", Hot: 4, Bytes: 64},
	{Kind: "dregular", D: 4, Bytes: 64},
	{},
	{Kind: "mixed", D: 4, Bytes: 64, Hot: 9, K: 3},
	{Kind: "random", D: 4, Bytes: 64},
}

// goldenNodes are the machine sizes each accepted spec is fitted to
// and built for.
var goldenNodes = []int{1, 2, 4, 16, 36, 64}

// renderGolden writes one block per input: the verdict, and for an
// accepted spec its canonical form, stream key, message bound, size-CV
// hint, determinism, and per machine size the fit verdict, density
// hint and the content hash of the matrix built under seeds 1 and 2.
// Error wording is not pinned, only verdicts.
func renderGolden(t *testing.T) string {
	t.Helper()
	var b strings.Builder
	block := func(label string, sp Spec, err error) {
		fmt.Fprintf(&b, "%s\n", label)
		if err != nil {
			fmt.Fprintf(&b, "  reject\n")
			return
		}
		fmt.Fprintf(&b, "  accept %+v\n", rawSpec(sp))
		fmt.Fprintf(&b, "  string %s key %v maxmsg %d cv %g det %t\n",
			sp.String(), sp.Key(), sp.MaxMessageBytes(), sp.SizeCVHint(), sp.Deterministic())
		for _, n := range goldenNodes {
			fit := "ok"
			if sp.ValidateFor(n) != nil {
				fit = "reject"
			}
			fmt.Fprintf(&b, "  n=%d fit %s density %d", n, fit, sp.DensityHint(n))
			for seed := int64(1); seed <= 2; seed++ {
				m, err := sp.Build(n, rand.New(rand.NewSource(seed)))
				if err != nil {
					fmt.Fprintf(&b, " build reject")
					break
				}
				fmt.Fprintf(&b, " seed%d %s", seed, m.ContentHash()[:16])
			}
			b.WriteString("\n")
		}
	}
	for _, s := range goldenStrings {
		sp, err := ParseSpec(s)
		block(fmt.Sprintf("parse %q", s), sp, err)
	}
	for _, sp := range goldenSpecs {
		label := fmt.Sprintf("spec %+v", rawSpec(sp))
		if err := sp.Validate(); err != nil {
			fmt.Fprintf(&b, "%s\n  reject string %s\n", label, sp.String())
			continue
		}
		block(label, sp, nil)
	}
	return b.String()
}

// TestSpecsGolden pins what every spec means: which strings parse,
// their canonical forms and stream keys, the hints and bounds the
// service and the quality model read, machine fit, and the matrices
// built. Regenerate deliberately with
// `go test ./internal/workload -run TestSpecsGolden -update`.
func TestSpecsGolden(t *testing.T) {
	got := renderGolden(t)
	path := filepath.Join("testdata", "specs.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("specs.golden differs at line %d:\n got: %s\nwant: %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("specs.golden differs in length: got %d lines, want %d", len(gl), len(wl))
	}
}
