package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"unsched/internal/quality"
	"unsched/internal/workload"
)

var update = flag.Bool("update", false, "rewrite golden files from current output")

// goldenRun executes the command in-process and returns stdout.
func goldenRun(t *testing.T, args ...string) string {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if err := run(args, &stdout, &stderr); err != nil {
		t.Fatalf("run %v: %v\nstderr: %s", args, err, stderr.String())
	}
	return stdout.String()
}

// checkGolden pins the reproduction's exact output bytes: any change
// to the measurement pipeline — RNG streams, aggregation order,
// formatting — shows up as a diff against testdata. Regenerate
// deliberately with `go test ./cmd/experiments -run Golden -update`.
func checkGolden(t *testing.T, name string, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
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
		t.Fatalf("missing golden file (regenerate with -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("output diverged from %s\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}

func TestGoldenTable1(t *testing.T) {
	got := goldenRun(t, "-samples", "2", "-seed", "1994", "-dim", "4", "table1")
	checkGolden(t, "table1_dim4_s2.golden", got)
}

func TestGoldenFig5(t *testing.T) {
	got := goldenRun(t, "-samples", "2", "-seed", "1994", "-dim", "4", "fig5")
	checkGolden(t, "fig5_dim4_s2.golden", got)
}

// TestGoldenOutputParallelInvariant reruns the golden workload at
// -parallel 1: the bytes must match the default-parallelism golden,
// the command-level form of the runner's determinism guarantee.
func TestGoldenOutputParallelInvariant(t *testing.T) {
	got := goldenRun(t, "-samples", "2", "-seed", "1994", "-dim", "4", "-parallel", "1", "table1")
	checkGolden(t, "table1_dim4_s2.golden", got)
}

// TestAllStopsAtFirstFailure: on a 16-node machine fig8 (d=16) is the
// first target in the canonical order that cannot run; `all` must
// produce everything before it, then stop with an error naming it.
func TestAllStopsAtFirstFailure(t *testing.T) {
	var stdout, stderr bytes.Buffer
	err := run([]string{"-samples", "1", "-seed", "1", "-dim", "4", "all"}, &stdout, &stderr)
	if err == nil {
		t.Fatal("all on a 16-node machine should fail at fig8")
	}
	if !strings.Contains(err.Error(), "fig8") {
		t.Errorf("error does not name the failing target: %v", err)
	}
	out := stdout.String()
	for _, ran := range []string{"==== table1 ====", "==== fig5 ====", "==== fig6 ====", "==== fig7 ===="} {
		if !strings.Contains(out, ran) {
			t.Errorf("target %q did not run before the failure", ran)
		}
	}
	if strings.Contains(out, "==== fig9 ====") {
		t.Error("all continued past the first failing target")
	}
}

// TestProgressWithoutTerminal: when stderr is not a character device
// the progress ticker must not emit carriage-return animation, and
// must be coarse (deciles), not one line per unit.
func TestProgressWithoutTerminal(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-samples", "2", "-seed", "1994", "-dim", "4", "-progress", "table1"}, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	prog := stderr.String()
	if strings.Contains(prog, "\r") {
		t.Error("non-terminal progress used carriage returns")
	}
	if !strings.Contains(prog, "(100%)") {
		t.Errorf("progress never reported completion:\n%s", prog)
	}
	lines := strings.Count(prog, "\n")
	// 2 densities x 3 sizes x 2 samples x 4 algorithms = 48 units; the
	// decile printer must compress that far below one line per unit.
	if lines > 15 {
		t.Errorf("progress printed %d lines for 48 units; want decile granularity", lines)
	}
}

// TestExitCodes: -h and -help print the flags' usage and exit 0, as
// unsched -h does; flags that do not parse print it and exit 2, and any
// other failure exits 1.
func TestExitCodes(t *testing.T) {
	for _, tc := range []struct {
		args []string
		code int
	}{
		{[]string{"-h"}, 0},
		{[]string{"-help"}, 0},
		{[]string{"-bogus", "table1"}, 2},
		{[]string{"-dim", "4", "fig99"}, 1},
	} {
		var stdout, stderr bytes.Buffer
		err := run(tc.args, &stdout, &stderr)
		if got := exitCode(err); got != tc.code {
			t.Errorf("%v: exit %d (%v), want %d", tc.args, got, err, tc.code)
		}
		if tc.code != 1 && !strings.Contains(stderr.String(), "-samples") {
			t.Errorf("%v: printed no usage:\n%s", tc.args, stderr.String())
		}
	}
}

// TestUnknownTargetFails: an unknown or missing target fails, and the
// usage a missing target prints lists every target of the table and
// `all`, as the package comment does.
func TestUnknownTargetFails(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-dim", "4", "fig99"}, &stdout, &stderr); err == nil {
		t.Fatal("unknown target accepted")
	}
	stderr.Reset()
	if err := run([]string{"-dim", "4"}, &stdout, &stderr); err == nil {
		t.Fatal("missing target accepted")
	}
	usage, _, _ := strings.Cut(stderr.String(), "\n")
	var names []string
	for _, tg := range targets("", "", nil) {
		names = append(names, tg.name)
	}
	if want := "usage: experiments [flags] <" + strings.Join(names, "|") + "|all>"; usage != want {
		t.Errorf("usage line reads\n%s\nwant\n%s", usage, want)
	}
	src, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	if doc := "//\t" + strings.TrimPrefix(usage, "usage: ") + "\n"; !strings.Contains(string(src), doc) {
		t.Errorf("package comment's usage line is not %q", doc)
	}
}

// TestTopoFlag drives the -topo spec path: a torus table renders, the
// cube spec reproduces the -dim golden byte for byte, and the flag
// conflicts and non-power-of-two machines are rejected up front.
func TestTopoFlag(t *testing.T) {
	got := goldenRun(t, "-samples", "1", "-seed", "7", "-topo", "torus:4x4", "table1")
	if !strings.Contains(got, "16-node machine") {
		t.Errorf("torus:4x4 table does not report the 16-node machine:\n%s", got)
	}
	// -topo cube:4 is the same machine as -dim 4: identical output.
	viaDim := goldenRun(t, "-samples", "2", "-seed", "1994", "-dim", "4", "table1")
	viaSpec := goldenRun(t, "-samples", "2", "-seed", "1994", "-topo", "cube:4", "table1")
	if viaDim != viaSpec {
		t.Errorf("-topo cube:4 output differs from -dim 4:\n--- dim\n%s--- topo\n%s", viaDim, viaSpec)
	}

	var stdout, stderr bytes.Buffer
	if err := run([]string{"-topo", "torus:4x4", "-dim", "4", "table1"}, &stdout, &stderr); err == nil {
		t.Error("-topo with explicit -dim accepted")
	}
	if err := run([]string{"-topo", "ring:12", "table1"}, &stdout, &stderr); err == nil ||
		!strings.Contains(err.Error(), "power-of-two") {
		t.Errorf("non-power-of-two machine error = %v, want a power-of-two explanation", err)
	}
	if err := run([]string{"-topo", "klein:4", "table1"}, &stdout, &stderr); err == nil {
		t.Error("bad spec accepted")
	}
}

// TestGoldenWorkloads pins the workload-generic campaign output: a
// mixed non-uniform grid on a torus, byte-identical across runs and —
// via the parallel variant below — across worker counts.
func TestGoldenWorkloads(t *testing.T) {
	got := goldenRun(t, "-samples", "2", "-seed", "1994", "-topo", "torus:4x4",
		"-workload", "halo:6x6:512,shift:3:2048,hotspot:4:1024:2,stencil3d:4x4x4:64", "workloads")
	checkGolden(t, "workloads_torus4x4_s2.golden", got)
}

func TestGoldenWorkloadsParallelInvariant(t *testing.T) {
	got := goldenRun(t, "-samples", "2", "-seed", "1994", "-topo", "torus:4x4",
		"-workload", "halo:6x6:512,shift:3:2048,hotspot:4:1024:2,stencil3d:4x4x4:64", "-parallel", "1", "workloads")
	checkGolden(t, "workloads_torus4x4_s2.golden", got)
}

// TestGoldenAutoeval pins the auto-vs-fixed comparison table: the
// calibration measurements, the model's per-cell pick, and the summary
// lines demonstrating the acceptance bar (auto's mean no worse than
// the best fixed algorithm, p50 scheduling cost no worse than RS_NL).
func TestGoldenAutoeval(t *testing.T) {
	got := goldenRun(t, "-samples", "2", "-seed", "1994", "-dim", "4", "autoeval")
	checkGolden(t, "autoeval_dim4_s2.golden", got)
}

func TestGoldenAutoevalParallelInvariant(t *testing.T) {
	got := goldenRun(t, "-samples", "2", "-seed", "1994", "-dim", "4", "-parallel", "1", "autoeval")
	checkGolden(t, "autoeval_dim4_s2.golden", got)
}

// TestGoldenAutofallback pins the generated fallback-table literal on
// the small machine; the committed internal/quality/fallback.go table
// comes from the same target on the 64-node default.
func TestGoldenAutofallback(t *testing.T) {
	got := goldenRun(t, "-samples", "2", "-seed", "1994", "-dim", "4", "autofallback")
	checkGolden(t, "autofallback_dim4_s2.golden", got)
}

// TestAutoFlags covers the new flag plumbing: -quality-db persists the
// calibration records of an autoeval run, a fixed -algorithm pins the
// evaluated policy, and misuse is rejected up front.
func TestAutoFlags(t *testing.T) {
	db := filepath.Join(t.TempDir(), "quality.usqr")
	got := goldenRun(t, "-samples", "1", "-seed", "7", "-dim", "4", "-quality-db", db, "autoeval")
	if !strings.Contains(got, "chosen") {
		t.Errorf("autoeval output missing the chosen column:\n%s", got)
	}
	model, err := quality.LoadModel(db)
	if err != nil {
		t.Fatal(err)
	}
	// 2 densities x 3 sizes x 4 algorithms on the 16-node machine.
	if model.Records() != 24 {
		t.Errorf("quality store holds %d records, want 24", model.Records())
	}

	pinned := goldenRun(t, "-samples", "1", "-seed", "7", "-dim", "4", "-algorithm", "RS_NL", "autoeval")
	if !strings.Contains(pinned, "RS_NL\n") || strings.Contains(pinned, " LP\n") {
		t.Errorf("-algorithm RS_NL did not pin every chosen cell:\n%s", pinned)
	}

	var stdout, stderr bytes.Buffer
	if err := run([]string{"-dim", "4", "-quality-db", db, "table1"}, &stdout, &stderr); err == nil {
		t.Error("-quality-db with a classic target accepted")
	}
	if err := run([]string{"-dim", "4", "-algorithm", "RS-NL", "autoeval"}, &stdout, &stderr); err == nil {
		t.Error("unknown -algorithm accepted")
	}
}

// TestWorkloadFlag covers the flag plumbing: the dregular alias
// reproduces the uniform row, misuse is rejected up front, and
// unbuildable specs fail with a clear error.
func TestWorkloadFlag(t *testing.T) {
	uni := goldenRun(t, "-samples", "1", "-seed", "7", "-dim", "4", "-workload", "uniform:4:1024", "workloads")
	ali := goldenRun(t, "-samples", "1", "-seed", "7", "-dim", "4", "-workload", "dregular:4:1024", "workloads")
	// The alias is the same generator under the same stream key; only
	// the canonical label is printed.
	if ali != uni {
		t.Errorf("-workload dregular:4:1024 differs from uniform:4:1024:\n--- uniform\n%s--- dregular\n%s", uni, ali)
	}
	if !strings.Contains(uni, "uniform:4:1024") {
		t.Errorf("workload table missing the canonical spec label:\n%s", uni)
	}

	var stdout, stderr bytes.Buffer
	if err := run([]string{"-dim", "4", "-workload", "perm:64", "table1"}, &stdout, &stderr); err == nil {
		t.Error("-workload with a classic target accepted")
	}
	if err := run([]string{"-dim", "4", "workloads"}, &stdout, &stderr); err == nil {
		t.Error("workloads target without -workload accepted")
	}
	if err := run([]string{"-dim", "4", "-workload", "klein:4", "workloads"}, &stdout, &stderr); err == nil {
		t.Error("bad workload spec accepted")
	}
	if err := run([]string{"-dim", "3", "-workload", "transpose:64", "workloads"}, &stdout, &stderr); err == nil ||
		!strings.Contains(err.Error(), "square") {
		t.Errorf("transpose on a non-square machine: err = %v, want a square-machine explanation", err)
	}
}

// TestUsageListsEveryWorkload holds the package comment's -workload
// entry to the workload kind table: every grammar, in table order.
func TestUsageListsEveryWorkload(t *testing.T) {
	src, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	_, entry, ok := strings.Cut(string(src), "//\t-workload SPECS")
	if !ok {
		t.Fatal("package comment documents no -workload flag")
	}
	entry, _, _ = strings.Cut(entry, "//\t-algorithm")
	entry = strings.Join(strings.Fields(strings.ReplaceAll(entry, "//", "")), " ")
	if want := "(" + strings.Join(workload.Grammars(), ", ") + ")"; !strings.Contains(entry, want) {
		t.Errorf("usage comment's -workload entry reads\n%s\nwant it to list\n%s", entry, want)
	}
}
