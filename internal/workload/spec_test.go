package workload

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"unsched/internal/comm"
	"unsched/internal/quality"
	"unsched/internal/sched"
)

// allSpecs is one representative of every kind, all buildable on a
// 16-node machine.
var allSpecs = []string{
	"uniform:4:1024",
	"scatter:4:1024",
	"hotspot:4:1024:2",
	"halo:8x8:512",
	"spmv:6:8",
	"perm:2048",
	"transpose:4096",
	"shift:3:1024",
	"stencil3d:4x4x4:64",
	"bitcomp:1024",
	"alltoall:256",
	"mixed:4:1024",
}

func TestSpecRoundTrip(t *testing.T) {
	for _, s := range allSpecs {
		sp, err := ParseSpec(s)
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		if got := sp.String(); got != s {
			t.Errorf("%s: canonical form %q", s, got)
		}
		again, err := ParseSpec(sp.String())
		if err != nil {
			t.Fatalf("%s: reparse: %v", s, err)
		}
		if again != sp {
			t.Errorf("%s: reparse %+v != %+v", s, again, sp)
		}
	}
}

func TestSpecAliases(t *testing.T) {
	for alias, canon := range map[string]string{"dregular:8:4096": "uniform:8:4096", "random:8:4096": "scatter:8:4096"} {
		sp, err := ParseSpec(alias)
		if err != nil {
			t.Fatal(err)
		}
		if sp != MustParseSpec(canon) || sp.String() != canon {
			t.Errorf("alias %s parsed to %q", alias, sp.String())
		}
	}
	if MustParseSpec("dregular:8:4096") != UniformSpec(8, 4096) {
		t.Error("dregular alias != UniformSpec")
	}
	// An alias names a row only where a caller writes it: a Spec's Kind
	// is the row's name.
	if err := (Spec{Kind: "random", D: 4, Bytes: 64}).Validate(); err == nil {
		t.Error("Spec with an alias as Kind validated")
	}
}

// TestBareSpec: a bare kind name or alias takes its parameters from
// the fill values by grammar token; a kind that needs a token the fill
// lacks, an unknown name and out-of-range values are rejected.
func TestBareSpec(t *testing.T) {
	fill := map[string]int64{"D": 8, "BYTES": 4096, "HOT": 4}
	for name, want := range map[string]string{
		"uniform":  "uniform:8:4096",
		"dregular": "uniform:8:4096",
		"random":   "scatter:8:4096",
		"hotspot":  "hotspot:8:4096:4",
		"perm":     "perm:4096",
		"mixed":    "mixed:8:4096",
	} {
		sp, err := BareSpec(name, fill)
		if err != nil {
			t.Errorf("%s: %v", name, err)
		} else if sp != MustParseSpec(want) {
			t.Errorf("%s: %+v, want %s", name, rawSpec(sp), want)
		}
	}
	for _, name := range []string{"halo", "shift", "spmv", "stencil3d", "klein", "uniform:8:4096", ""} {
		if sp, err := BareSpec(name, fill); err == nil {
			t.Errorf("BareSpec(%q) accepted as %+v", name, rawSpec(sp))
		}
	}
	if _, err := BareSpec("uniform", map[string]int64{"D": 0, "BYTES": 64}); err == nil {
		t.Error("BareSpec accepted density 0")
	}
}

func TestSpecParseRejects(t *testing.T) {
	bad := []string{
		"",
		"uniform",
		"uniform:",
		"uniform:4",
		"uniform:4:1024:9",
		"uniform:x:1024",
		"uniform:0:1024",
		"uniform:4:0",
		"uniform:4:-5",
		"uniform:4:9999999999999999999",
		"scatter:4",
		"hotspot:4:1024",
		"hotspot:4:1024:0",
		"halo:8:512",
		"halo:1x8:512",
		"halo:8x8x8:512",
		"halo:99999x99999:512",
		"spmv:0:8",
		"spmv:6:8:1",
		"spmv:65:8",
		"perm:0",
		"perm:1:2",
		"transpose:-1",
		"shift:0:1024",
		"shift:3",
		"stencil3d:4x4:64",
		"stencil3d:0x4x4:64",
		"stencil3d:2000x2000x2000:64",
		"bitcomp:",
		"alltoall:0",
		"klein:4:1024",
		"uniform:2000000:1024",
		"random:4",
		"mixed:4",
		"mixed:0:64",
	}
	for _, s := range bad {
		if sp, err := ParseSpec(s); err == nil {
			t.Errorf("ParseSpec(%q) accepted as %+v", s, sp)
		}
	}
}

// TestSpecRoundTripRandomized: random structured specs that pass
// Validate must survive String -> ParseSpec unchanged.
func TestSpecRoundTripRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 200; i++ {
		// Fill every field in its kind's range: the kind must read its
		// own and ignore the rest.
		sp := Spec{
			Kind:  kinds[rng.Intn(len(kinds))].name,
			D:     1 + rng.Intn(100),
			Bytes: 1 + rng.Int63n(1<<20),
			Hot:   1 + rng.Intn(32),
			W:     2 + rng.Intn(100), H: 2 + rng.Intn(100),
			X: 1 + rng.Intn(32), Y: 1 + rng.Intn(32), Z: 1 + rng.Intn(32),
			NNZ: 1 + rng.Intn(64),
			K:   1 + rng.Intn(1000),
		}
		if err := sp.Validate(); err != nil {
			t.Fatalf("%+v: %v", sp, err)
		}
		back, err := ParseSpec(sp.String())
		if err != nil {
			t.Fatalf("%s: %v", sp, err)
		}
		if back.String() != sp.String() || fmt.Sprint(back.Key()) != fmt.Sprint(sp.Key()) {
			t.Errorf("round trip %+v -> %q -> %+v", rawSpec(sp), sp.String(), rawSpec(back))
		}
		if again, _ := ParseSpec(back.String()); again != back {
			t.Errorf("%q: reparse %+v != %+v", back, rawSpec(again), rawSpec(back))
		}
	}
}

// TestSpecBuildsValidMatrix: every spec builds a structurally valid
// matrix on every machine size it admits — no self sends, no negative
// sizes, and the degree/density bounds its kind promises.
func TestSpecBuildsValidMatrix(t *testing.T) {
	sendD := func(t *testing.T, sp Spec, m *comm.Matrix) {
		for i := 0; i < m.N(); i++ {
			if m.SendDegree(i) != sp.D {
				t.Errorf("node %d send degree %d, want %d", i, m.SendDegree(i), sp.D)
			}
		}
	}
	exactDensity := func(t *testing.T, sp Spec, m *comm.Matrix) {
		if got, want := m.Density(), sp.DensityHint(m.N()); got != want {
			t.Errorf("density %d, want %d", got, want)
		}
	}
	dRegular := func(t *testing.T, sp Spec, m *comm.Matrix) {
		sendD(t, sp, m)
		for i := 0; i < m.N(); i++ {
			if m.RecvDegree(i) != sp.D {
				t.Errorf("node %d receive degree %d, want %d", i, m.RecvDegree(i), sp.D)
			}
		}
	}
	// What each kind promises beyond a valid matrix; spmv, halo and
	// stencil3d promise no density.
	promises := map[string]func(*testing.T, Spec, *comm.Matrix){
		"uniform": dRegular,
		"mixed": func(t *testing.T, sp Spec, m *comm.Matrix) {
			dRegular(t, sp, m)
			for _, msg := range m.Messages() {
				if msg.Bytes < sp.Bytes/8+1 || msg.Bytes > sp.Bytes {
					t.Errorf("message %d->%d carries %d bytes, outside [%d,%d]", msg.Src, msg.Dst, msg.Bytes, sp.Bytes/8+1, sp.Bytes)
				}
			}
		},
		"scatter":   sendD,
		"hotspot":   sendD,
		"perm":      exactDensity,
		"transpose": exactDensity,
		"shift":     exactDensity,
		"bitcomp":   exactDensity,
		"alltoall":  exactDensity,
	}
	for _, n := range []int{4, 16, 64} {
		for _, s := range allSpecs {
			sp := MustParseSpec(s)
			if err := sp.ValidateFor(n); err != nil {
				continue // e.g. transpose on a non-square n
			}
			m, err := sp.Build(n, rand.New(rand.NewSource(11)))
			if err != nil {
				t.Fatalf("n=%d %s: %v", n, s, err)
			}
			if err := m.Validate(); err != nil {
				t.Errorf("n=%d %s: invalid matrix: %v", n, s, err)
			}
			if promise := promises[sp.Kind]; promise != nil {
				t.Run(fmt.Sprintf("n=%d/%s", n, s), func(t *testing.T) { promise(t, sp, m) })
			}
		}
	}
}

// TestSpecBuildDeterministic: identical seed, identical matrix — also
// when regenerated into a dirty reused buffer, the reuse contract the
// campaign workers rely on.
func TestSpecBuildDeterministic(t *testing.T) {
	const n = 16
	reused := comm.MustNew(n)
	for _, s := range allSpecs {
		sp := MustParseSpec(s)
		a, err := sp.Build(n, rand.New(rand.NewSource(3)))
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		b, err := sp.Build(n, rand.New(rand.NewSource(3)))
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		if !a.Equal(b) {
			t.Errorf("%s: same seed, different matrices", s)
		}
		if err := comm.AllToAllInto(reused, 1); err != nil {
			t.Fatal(err)
		}
		if err := sp.BuildInto(reused, rand.New(rand.NewSource(3))); err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		if !reused.Equal(a) {
			t.Errorf("%s: BuildInto over a dirty matrix differs from fresh build", s)
		}
	}
}

// TestSpecKeysDistinct: no two distinct specs may share a stream key,
// and no non-uniform key may collide with any plausible uniform
// (D, BYTES) key — uniform keys are all-positive, every other kind
// leads with a negative tag.
func TestSpecKeysDistinct(t *testing.T) {
	seen := map[string]string{}
	specs := append([]string{}, allSpecs...)
	specs = append(specs, "uniform:8:1024", "scatter:8:1024", "shift:8:1024", "spmv:8:1024", "hotspot:8:1024:8", "mixed:8:1024")
	for _, s := range specs {
		sp := MustParseSpec(s)
		key := fmt.Sprint(sp.Key())
		if prev, dup := seen[key]; dup {
			t.Errorf("specs %s and %s share stream key %s", prev, s, key)
		}
		seen[key] = s
		if sp.Kind != "uniform" && sp.Key()[0] >= 0 {
			t.Errorf("%s: non-uniform key must lead with a negative tag, got %v", s, sp.Key())
		}
	}
	// The uniform key is the bare historical (D, BYTES) tuple.
	if got := fmt.Sprint(UniformSpec(4, 1024).Key()); got != "[4 1024]" {
		t.Errorf("uniform key = %s, want [4 1024]", got)
	}
}

func TestSpecValidateFor(t *testing.T) {
	cases := []struct {
		spec string
		n    int
		ok   bool
	}{
		{"uniform:4:1024", 4, false}, // d >= n
		{"uniform:4:1024", 5, true},
		{"hotspot:2:64:9", 8, false}, // hot > n
		{"halo:8x8:64", 128, false},  // fewer elements than nodes
		{"halo:8x8:64", 64, true},
		{"transpose:64", 8, false}, // non-square
		{"transpose:64", 16, true},
		{"shift:8:64", 8, false}, // k % n == 0
		{"shift:8:64", 6, true},
		{"stencil3d:2x2x2:64", 16, false},
		{"stencil3d:2x2x2:64", 8, true},
		{"bitcomp:64", 12, false}, // not a power of two
		{"bitcomp:64", 16, true},
		{"alltoall:64", 2, true},
		{"perm:64", 1, false},
		{"mixed:4:1", 16, false}, // one size, nothing to mix
		{"mixed:4:2", 16, true},
		{"mixed:16:64", 16, false}, // d >= n
	}
	for _, c := range cases {
		sp := MustParseSpec(c.spec)
		err := sp.ValidateFor(c.n)
		if (err == nil) != c.ok {
			t.Errorf("%s on n=%d: err=%v, want ok=%v", c.spec, c.n, err, c.ok)
		}
	}
}

// TestSpecMaxMessageBytes: the per-message bound services gate on is
// the bare size for fixed-size kinds and the boundary-cross-section
// multiple for the aggregating kinds.
func TestSpecMaxMessageBytes(t *testing.T) {
	if got := MustParseSpec("uniform:8:4096").MaxMessageBytes(); got != 4096 {
		t.Errorf("uniform bound %d", got)
	}
	if got := MustParseSpec("halo:64x64:512").MaxMessageBytes(); got != 512*16*64 {
		t.Errorf("halo bound %d", got)
	}
	if got := MustParseSpec("stencil3d:8x4x2:64").MaxMessageBytes(); got != 64*12*4*2 {
		t.Errorf("stencil bound %d", got)
	}
	if got := MustParseSpec("spmv:8:8").MaxMessageBytes(); got != 8*2*spmvRowsPerProc {
		t.Errorf("spmv bound %d", got)
	}
}

// TestMaxMessageBytesBoundsBuilt: no message an aggregating spec
// builds exceeds its MaxMessageBytes, over non-square grids, machines
// of every size the grid admits, and two seeds.
func TestMaxMessageBytesBoundsBuilt(t *testing.T) {
	var specs []string
	sides := []int{2, 3, 7, 16, 100}
	for _, w := range sides {
		for _, h := range sides {
			specs = append(specs, fmt.Sprintf("halo:%dx%d:3", w, h))
			specs = append(specs, fmt.Sprintf("stencil3d:%dx%dx%d:3", w, h, sides[(w+h)%len(sides)]))
		}
	}
	specs = append(specs, "halo:16x1024:1", "spmv:1:3", "spmv:8:3", "spmv:64:3")
	for _, s := range specs {
		sp := MustParseSpec(s)
		for _, n := range []int{2, 3, 4, 7, 16, 64} {
			if sp.ValidateFor(n) != nil {
				continue
			}
			for seed := int64(1); seed <= 2; seed++ {
				m, err := sp.Build(n, rand.New(rand.NewSource(seed)))
				if err != nil {
					t.Fatalf("%s on n=%d: %v", s, n, err)
				}
				if got := m.MaxMessageBytes(); got > sp.MaxMessageBytes() {
					t.Errorf("%s on n=%d seed %d: built a %d-byte message, bound %d", s, n, seed, got, sp.MaxMessageBytes())
				}
			}
		}
	}
}

func TestSpecDensityHintAndBytes(t *testing.T) {
	if got := MustParseSpec("uniform:8:4096").DensityHint(64); got != 8 {
		t.Errorf("uniform hint %d", got)
	}
	if got := MustParseSpec("alltoall:64").DensityHint(16); got != 15 {
		t.Errorf("alltoall hint %d", got)
	}
	if got := MustParseSpec("halo:8x8:64").DensityHint(16); got != 0 {
		t.Errorf("halo hint %d, want 0 (data-dependent)", got)
	}
	if got := MustParseSpec("perm:512").MsgBytes(); got != 512 {
		t.Errorf("perm bytes %d", got)
	}
}

// TestMixedHintsMatchMeasuredBin: an auto request for a mixed spec
// resolves under the spec's hints, a campaign cell under the features
// it measures on the built matrix; both must name the same
// quality-model bin, over densities and sizes spanning the bands.
func TestMixedHintsMatchMeasuredBin(t *testing.T) {
	const n = 64
	for _, d := range []int{1, 8, 32} {
		for _, size := range []int64{2, 64, 4096, 131072} {
			sp := MustParseSpec(fmt.Sprintf("mixed:%d:%d", d, size))
			hinted := quality.BinKey("hypercube", sched.Features{Nodes: n, Density: sp.DensityHint(n), SizeCV: sp.SizeCVHint()})
			for seed := int64(1); seed <= 3; seed++ {
				m, err := sp.Build(n, rand.New(rand.NewSource(seed)))
				if err != nil {
					t.Fatalf("%s: %v", sp, err)
				}
				f := sched.MeasureFeatures(m)
				if measured := quality.BinKey("hypercube", f); measured != hinted {
					t.Errorf("%s seed %d: hints bin %s, measured bin %s (density %d, size CV %.3f)",
						sp, seed, hinted, measured, f.Density, f.SizeCV)
				}
			}
		}
	}
}

func TestSpecInvalidZeroValue(t *testing.T) {
	var sp Spec
	if err := sp.Validate(); err == nil {
		t.Error("zero Spec validated")
	}
	if !strings.HasPrefix(sp.String(), "invalid:") {
		t.Errorf("zero Spec renders %q", sp.String())
	}
	if _, err := sp.Build(8, rand.New(rand.NewSource(1))); err == nil {
		t.Error("zero Spec built")
	}
}

// TestAllSpecsCoverTable: allSpecs, which the round-trip, build and
// fuzz tests draw on, has one spec of every table row, in table order.
func TestAllSpecsCoverTable(t *testing.T) {
	if len(allSpecs) != len(kinds) {
		t.Fatalf("allSpecs has %d specs, the table %d kinds", len(allSpecs), len(kinds))
	}
	for i, s := range allSpecs {
		if got := MustParseSpec(s).Kind; got != kinds[i].name {
			t.Errorf("allSpecs[%d] = %s is a %s, table row %d is %s", i, s, got, i, kinds[i].name)
		}
	}
}

// TestKindTableMatchesREADME holds README's Workloads table to the
// kind table: the same kinds in the same order, each row led by its
// name:args grammar.
func TestKindTableMatchesREADME(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(raw), "\n## Workloads\n")
	if !ok {
		t.Fatal("README has no ## Workloads section")
	}
	section, _, _ = strings.Cut(section, "\n## ")
	var documented []string
	for _, line := range strings.Split(section, "\n") {
		if row, ok := strings.CutPrefix(line, "| `"); ok {
			documented = append(documented, row[:strings.IndexByte(row, '`')])
		}
	}
	if want := Grammars(); !slices.Equal(documented, want) {
		t.Errorf("README Workloads table lists\n%v\nbut the kind table has\n%v", documented, want)
	}
}
