package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

const sampleBenchOutput = `goos: linux
goarch: amd64
pkg: unsched
cpu: some CPU
BenchmarkCampaignSequential-8   	       1	311093322 ns/op	         1.000 workers
BenchmarkCampaignParallel-16    	       2	 41817386 ns/op	         8.000 workers
BenchmarkSimulatorRSNL-8        	     100	    305929 ns/op	   28634 B/op	     170 allocs/op
BenchmarkSimulatorRSNLReused-8  	     120	    289101 ns/op	    1201 B/op	      14 allocs/op
PASS
ok  	unsched	3.210s
`

func TestParseBenchOutput(t *testing.T) {
	report, err := parseBench(strings.NewReader(sampleBenchOutput))
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Benchmarks) != 4 {
		t.Fatalf("parsed %d benchmarks, want 4: %+v", len(report.Benchmarks), report.Benchmarks)
	}
	// The -8 / -16 GOMAXPROCS suffixes must be stripped.
	sim, ok := report.Benchmarks["BenchmarkSimulatorRSNL"]
	if !ok {
		t.Fatal("BenchmarkSimulatorRSNL missing (suffix not stripped?)")
	}
	if sim.NsPerOp != 305929 || *sim.AllocsPerOp != 170 || *sim.BytesPerOp != 28634 {
		t.Errorf("SimulatorRSNL metrics wrong: %+v", sim)
	}
	if seq := report.Benchmarks["BenchmarkCampaignSequential"]; seq.NsPerOp != 311093322 || seq.AllocsPerOp != nil {
		t.Errorf("CampaignSequential ns/op = %v, allocs/op measured: %v", seq.NsPerOp, seq.AllocsPerOp != nil)
	}
}

// metrics are one benchmark's metrics; a negative allocs leaves its
// allocs/op unmeasured.
func metrics(ns, allocs float64) Metrics {
	m := Metrics{NsPerOp: ns}
	if allocs >= 0 {
		m.AllocsPerOp = &allocs
	}
	return m
}

func report(ns, allocs float64) *Report {
	return &Report{Benchmarks: map[string]Metrics{"BenchmarkSimulatorRSNL": metrics(ns, allocs)}}
}

func TestGatePassesWithinThreshold(t *testing.T) {
	// +20% is inside the 25% budget.
	_, failures := compare(report(1000, 100), report(1200, 100), 0.25, nil, 0.10)
	if failures != 0 {
		t.Errorf("20%% slowdown failed the 25%% gate")
	}
	// Improvements never fail.
	if _, failures := compare(report(1000, 100), report(10, 1), 0.25, nil, 0.10); failures != 0 {
		t.Errorf("improvement failed the gate")
	}
}

func TestGateFailsOnSyntheticRegression(t *testing.T) {
	// The synthetic >25% regression the CI gate must catch: +30% ns/op.
	lines, failures := compare(report(1000, 100), report(1300, 100), 0.25, nil, 0.10)
	if failures != 1 {
		t.Fatalf("30%% slowdown: %d failures, want 1\n%s", failures, strings.Join(lines, "\n"))
	}
	// Alloc regressions are gated too.
	if _, failures := compare(report(1000, 100), report(1000, 200), 0.25, nil, 0.10); failures != 1 {
		t.Error("alloc doubling passed the gate")
	}
	// A missing tracked benchmark is a failure, not a skip.
	empty := &Report{Benchmarks: map[string]Metrics{}}
	if _, failures := compare(report(1000, 100), empty, 0.25, nil, 0.10); failures != 1 {
		t.Error("missing tracked benchmark passed the gate")
	}
	// A tracked metric going unmeasured (benchmark ran without
	// -benchmem) is a failure, not a -100% improvement.
	if _, failures := compare(report(1000, 100), report(1000, -1), 0.25, nil, 0.10); failures != 1 {
		t.Error("vanished allocs/op metric passed the gate")
	}
}

func TestStrictAllocsGate(t *testing.T) {
	strict := regexp.MustCompile(`BenchmarkSimulator`)
	// +18% allocs/op: inside the default 25% budget, outside the 10%
	// strict budget — the strict regexp must flip it to a failure.
	if _, failures := compare(report(1000, 100), report(1000, 118), 0.25, nil, 0.10); failures != 0 {
		t.Error("18% alloc growth failed the default gate")
	}
	lines, failures := compare(report(1000, 100), report(1000, 118), 0.25, strict, 0.10)
	if failures != 1 {
		t.Fatalf("18%% alloc growth passed the strict gate:\n%s", strings.Join(lines, "\n"))
	}
	// ns/op keeps the noise-tolerant default even under strict allocs.
	if _, failures := compare(report(1000, 100), report(1180, 100), 0.25, strict, 0.10); failures != 0 {
		t.Error("18% slowdown failed under -strict-allocs (ns/op must keep the default threshold)")
	}
	// Non-matching benchmarks keep the default allocs threshold.
	loose := regexp.MustCompile(`BenchmarkCampaign`)
	if _, failures := compare(report(1000, 100), report(1000, 118), 0.25, loose, 0.10); failures != 0 {
		t.Error("strict regexp gated a non-matching benchmark")
	}
}

// TestGateZeroBaseline: a measured zero is tracked like any value. A
// zero baseline passes zero and fails any allocation, under the
// default and the strict threshold alike; a current zero passes a
// nonzero baseline; an unmeasured baseline stays untracked, and an
// unmeasured current value fails a tracked one.
func TestGateZeroBaseline(t *testing.T) {
	strict := regexp.MustCompile(`BenchmarkSimulator`)
	for _, c := range []struct {
		base, cur float64 // negative: unmeasured
		fails     bool
	}{
		{0, 0, false}, {0, 1, true}, {0, 0.05, true}, {0, -1, true},
		{100, 0, false}, {-1, 0, false}, {-1, 7, false},
	} {
		for _, re := range []*regexp.Regexp{nil, strict} {
			lines, failures := compare(report(1000, c.base), report(1000, c.cur), 0.25, re, 0.10)
			if (failures != 0) != c.fails {
				t.Errorf("allocs/op %v -> %v (strict %v): %d failures, want fails=%v\n%s",
					c.base, c.cur, re != nil, failures, c.fails, strings.Join(lines, "\n"))
			}
			_, _, ok := markdownMetric(metrics(1000, c.base).AllocsPerOp, metrics(1000, c.cur).AllocsPerOp, 0.25)
			if ok == c.fails {
				t.Errorf("allocs/op %v -> %v: markdown ok=%v, want %v", c.base, c.cur, ok, !c.fails)
			}
		}
	}
}

// TestZeroAllocsEndToEnd: a bench line of 0 allocs/op is written to
// the report as a measured zero, which the strict gate then holds at
// zero; a baseline without allocs/op leaves them untracked.
func TestZeroAllocsEndToEnd(t *testing.T) {
	dir := t.TempDir()
	benchTxt := filepath.Join(dir, "bench.txt")
	prJSON := filepath.Join(dir, "BENCH_PR.json")
	baseJSON := filepath.Join(dir, "BENCH_baseline.json")
	// gate parses bench into the report, gates it strictly against
	// baseline, and returns the report and the gate's error.
	gate := func(bench string, baseline *Report) (string, error) {
		t.Helper()
		if err := os.WriteFile(benchTxt, []byte(bench), 0o644); err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		if err := run([]string{"-parse", benchTxt, "-out", prJSON}, &out); err != nil {
			t.Fatalf("parse mode: %v", err)
		}
		raw, _ := json.Marshal(baseline)
		if err := os.WriteFile(baseJSON, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		pr, err := os.ReadFile(prJSON)
		if err != nil {
			t.Fatal(err)
		}
		return string(pr), run([]string{"-baseline", baseJSON, "-current", prJSON,
			"-strict-allocs", "BenchmarkSimulator", "-strict-allocs-threshold", "0.10"}, &out)
	}
	const zero = "BenchmarkSimulatorRSNL-8  10  1000 ns/op  0 B/op  0 allocs/op\n"
	const one = "BenchmarkSimulatorRSNL-8  10  1000 ns/op  8 B/op  1 allocs/op\n"
	pr, err := gate(zero, report(1000, 0))
	if err != nil {
		t.Errorf("0 allocs/op against a zero baseline: %v", err)
	}
	if !strings.Contains(pr, `"allocs_per_op": 0`) {
		t.Errorf("report drops a measured zero:\n%s", pr)
	}
	if _, err := gate(one, report(1000, 0)); err == nil {
		t.Error("1 allocs/op passed a zero baseline")
	}
	if _, err := gate(one, report(1000, -1)); err != nil {
		t.Errorf("1 allocs/op against an unmeasured baseline: %v", err)
	}
}

func TestStrictAllocsEndToEnd(t *testing.T) {
	dir := t.TempDir()
	benchTxt := filepath.Join(dir, "bench.txt")
	if err := os.WriteFile(benchTxt, []byte(sampleBenchOutput), 0o644); err != nil {
		t.Fatal(err)
	}
	prJSON := filepath.Join(dir, "BENCH_PR.json")
	var out bytes.Buffer
	if err := run([]string{"-parse", benchTxt, "-out", prJSON}, &out); err != nil {
		t.Fatalf("parse mode: %v", err)
	}
	// Baseline with 15% fewer simulator allocs than the current run:
	// passes the default gate, fails the 10% strict gate.
	baseline := &Report{Benchmarks: map[string]Metrics{
		"BenchmarkSimulatorRSNL": metrics(305929, 170/1.15),
	}}
	baseJSON := filepath.Join(dir, "BENCH_baseline.json")
	raw, _ := json.Marshal(baseline)
	if err := os.WriteFile(baseJSON, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if err := run([]string{"-baseline", baseJSON, "-current", prJSON}, &out); err != nil {
		t.Fatalf("default gate failed a 15%% alloc growth: %v\n%s", err, out.String())
	}
	out.Reset()
	err := run([]string{"-baseline", baseJSON, "-current", prJSON,
		"-strict-allocs", "BenchmarkSimulator", "-strict-allocs-threshold", "0.10"}, &out)
	if err == nil {
		t.Fatalf("strict gate passed a 15%% alloc growth:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "FAIL BenchmarkSimulatorRSNL allocs/op") {
		t.Errorf("strict gate output does not name the alloc regression:\n%s", out.String())
	}
	// A bad regexp is a usage error, not a pass.
	if err := run([]string{"-baseline", baseJSON, "-current", prJSON, "-strict-allocs", "("}, &out); err == nil {
		t.Error("invalid -strict-allocs regexp accepted")
	}
}

func TestGateIgnoresUntrackedNewBenchmarks(t *testing.T) {
	current := report(1000, 100)
	current.Benchmarks["BenchmarkBrandNew"] = Metrics{NsPerOp: 1}
	lines, failures := compare(report(1000, 100), current, 0.25, nil, 0.10)
	if failures != 0 {
		t.Errorf("new benchmark caused failures:\n%s", strings.Join(lines, "\n"))
	}
}

// TestEndToEnd drives the CLI exactly as the CI workflow does: parse a
// bench log, write the report, gate it against a baseline with one
// synthetic >25% regression, and expect a non-zero outcome.
func TestEndToEnd(t *testing.T) {
	dir := t.TempDir()
	benchTxt := filepath.Join(dir, "bench.txt")
	if err := os.WriteFile(benchTxt, []byte(sampleBenchOutput), 0o644); err != nil {
		t.Fatal(err)
	}
	prJSON := filepath.Join(dir, "BENCH_PR.json")
	var out bytes.Buffer
	if err := run([]string{"-parse", benchTxt, "-out", prJSON}, &out); err != nil {
		t.Fatalf("parse mode: %v", err)
	}

	// Baseline claiming the simulator used to be 30% faster.
	baseline := &Report{Benchmarks: map[string]Metrics{
		"BenchmarkSimulatorRSNL": metrics(305929/1.3, 170),
	}}
	baseJSON := filepath.Join(dir, "BENCH_baseline.json")
	raw, _ := json.Marshal(baseline)
	if err := os.WriteFile(baseJSON, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	err := run([]string{"-baseline", baseJSON, "-current", prJSON}, &out)
	if err == nil {
		t.Fatalf("synthetic regression passed the gate:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "FAIL BenchmarkSimulatorRSNL ns/op") {
		t.Errorf("gate output does not name the regression:\n%s", out.String())
	}

	// With an honest baseline the same report passes.
	honest, _ := json.Marshal(report(305929, 170))
	if err := os.WriteFile(baseJSON, honest, 0o644); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if err := run([]string{"-baseline", baseJSON, "-current", prJSON}, &out); err != nil {
		t.Fatalf("honest baseline failed: %v\n%s", err, out.String())
	}
}

func TestRunNeedsAMode(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{}, &out); err == nil {
		t.Error("no-mode invocation succeeded")
	}
}

func TestMarkdownTable(t *testing.T) {
	baseline := report(1000, 100)
	current := report(1300, 100) // +30% ns/op: over the 25% threshold
	current.Benchmarks["BenchmarkBrandNew"] = metrics(42, 7)
	baseline.Benchmarks["BenchmarkGone"] = metrics(5, 1)

	doc := renderMarkdown(baseline, current, 0.25)
	for _, want := range []string{
		"| benchmark |",
		"❌ regressed",       // the tracked +30% row
		"+30.0%",            // its delta
		"🆕 untracked",       // BenchmarkBrandNew
		"❌ missing from PR", // BenchmarkGone
		"1000 → 1300",       // before/after cell
		"threshold +25%",
	} {
		if !strings.Contains(doc, want) {
			t.Errorf("markdown table missing %q:\n%s", want, doc)
		}
	}
}

func TestMarkdownWithinThreshold(t *testing.T) {
	doc := renderMarkdown(report(1000, 100), report(1100, 100), 0.25)
	if !strings.Contains(doc, "✅ ok") || strings.Contains(doc, "❌") {
		t.Errorf("+10%% run should be all-ok:\n%s", doc)
	}
}

// TestMarkdownModeNeverFails checks the CLI contract the CI summary
// step relies on: rendering exits 0 even over a gate-failing
// regression, appends to an existing summary file, and the same
// inputs still fail the plain gate mode.
func TestMarkdownModeNeverFails(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, r *Report) string {
		raw, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("base.json", report(1000, 100))
	cur := write("cur.json", report(2000, 100)) // 2x regression
	summary := filepath.Join(dir, "summary.md")
	if err := os.WriteFile(summary, []byte("# earlier step\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	var out bytes.Buffer
	if err := run([]string{"-baseline", base, "-current", cur, "-markdown", summary}, &out); err != nil {
		t.Fatalf("markdown mode failed on a regression: %v", err)
	}
	got, err := os.ReadFile(summary)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(got), "# earlier step\n") {
		t.Error("markdown mode truncated the existing step summary")
	}
	if !strings.Contains(string(got), "❌ regressed") {
		t.Errorf("summary missing the regression row:\n%s", got)
	}

	// stdout form
	out.Reset()
	if err := run([]string{"-baseline", base, "-current", cur, "-markdown", "-"}, &out); err != nil {
		t.Fatalf("markdown to stdout failed: %v", err)
	}
	if !strings.Contains(out.String(), "| benchmark |") {
		t.Error("stdout markdown missing table header")
	}

	// The identical comparison must still fail in gate mode.
	if err := run([]string{"-baseline", base, "-current", cur}, &out); err == nil {
		t.Error("gate mode passed a 2x regression")
	}
}
