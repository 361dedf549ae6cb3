// Command benchgate turns `go test -bench` output into a stable JSON
// report and gates benchmark regressions against a committed baseline.
// It is the -json mode of the CI bench smoke plus the regression gate
// built on top of it.
//
// Emit a report (BENCH_PR.json) from a bench run:
//
//	go test -run xxx -bench 'Campaign|Simulator' -benchmem -benchtime 2x ./... | tee bench.txt
//	benchgate -parse bench.txt -out BENCH_PR.json
//
// Gate a report against the committed baseline, failing (exit 1) when
// any tracked benchmark regresses more than -threshold (default 0.25,
// i.e. 25%) in ns/op or allocs/op:
//
//	benchgate -baseline BENCH_baseline.json -current BENCH_PR.json
//
// A subset of benchmarks can be held to a tighter allocs/op bar than
// the noise-tolerant default: -strict-allocs takes a regexp and
// -strict-allocs-threshold the allowed fraction (default 0.10).
// allocs/op is deterministic — there is no runner noise to forgive —
// so the simulator hot-path benchmarks are gated at 10% while ns/op
// keeps the machine-dependent 25%. A measured 0 allocs/op is tracked
// like any value: against a zero baseline, any allocation fails.
//
//	benchgate -baseline BENCH_baseline.json -current BENCH_PR.json \
//	    -strict-allocs 'BenchmarkSimulator' -strict-allocs-threshold 0.10
//
// Benchmarks present in the baseline but missing from the current
// report fail the gate: silently dropping a tracked benchmark is how
// regressions hide. New benchmarks in the current report are reported
// but do not fail; commit a refreshed baseline to start tracking them.
//
// Render the same comparison as a GitHub-flavored markdown table (for
// the Actions step summary) instead of gating — this mode always
// exits 0, so the summary renders even when the separate gate step
// will fail ("-" writes to stdout, e.g. >> $GITHUB_STEP_SUMMARY):
//
//	benchgate -baseline BENCH_baseline.json -current BENCH_PR.json -markdown -
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(1)
	}
}

// Report is the JSON document benchgate reads and writes.
type Report struct {
	Benchmarks map[string]Metrics `json:"benchmarks"`
}

// Metrics are the gated quantities of one benchmark. A run without
// -benchmem measures no allocations: nil tells that apart from a
// measured zero.
type Metrics struct {
	NsPerOp     float64  `json:"ns_per_op"`
	AllocsPerOp *float64 `json:"allocs_per_op,omitempty"`
	BytesPerOp  *float64 `json:"bytes_per_op,omitempty"`
}

func run(args []string, stdout io.Writer) error {
	var (
		parse        string
		out          string
		baseline     string
		current      string
		markdown     string
		threshold    float64
		strictAllocs string
		strictThresh float64
	)
	fs := flag.NewFlagSet("benchgate", flag.ContinueOnError)
	fs.StringVar(&parse, "parse", "", "parse `go test -bench` output from this file")
	fs.StringVar(&out, "out", "", "with -parse: write the JSON report here (default stdout)")
	fs.StringVar(&baseline, "baseline", "", "committed baseline report to gate against")
	fs.StringVar(&current, "current", "", "current report to gate")
	fs.StringVar(&markdown, "markdown", "", "with -baseline and -current: render a markdown before/after table to this file (\"-\" for stdout) instead of gating")
	fs.Float64Var(&threshold, "threshold", 0.25, "allowed fractional regression per metric")
	fs.StringVar(&strictAllocs, "strict-allocs", "", "regexp of benchmarks whose allocs/op are gated at -strict-allocs-threshold instead of -threshold")
	fs.Float64Var(&strictThresh, "strict-allocs-threshold", 0.10, "allowed fractional allocs/op regression for -strict-allocs benchmarks")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var strictRe *regexp.Regexp
	if strictAllocs != "" {
		var err error
		if strictRe, err = regexp.Compile(strictAllocs); err != nil {
			return fmt.Errorf("-strict-allocs: %v", err)
		}
	}
	switch {
	case parse != "":
		return runParse(parse, out, stdout)
	case baseline != "" && current != "" && markdown != "":
		return runMarkdown(baseline, current, markdown, threshold, stdout)
	case baseline != "" && current != "":
		return runCompare(baseline, current, threshold, strictRe, strictThresh, stdout)
	default:
		fs.Usage()
		return fmt.Errorf("need either -parse, or -baseline with -current")
	}
}

func runParse(parse, out string, stdout io.Writer) error {
	f, err := os.Open(parse)
	if err != nil {
		return err
	}
	defer f.Close()
	report, err := parseBench(f)
	if err != nil {
		return err
	}
	if len(report.Benchmarks) == 0 {
		return fmt.Errorf("%s contains no benchmark result lines", parse)
	}
	doc, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	doc = append(doc, '\n')
	if out == "" {
		_, err = stdout.Write(doc)
		return err
	}
	if err := os.WriteFile(out, doc, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote %d benchmarks to %s\n", len(report.Benchmarks), out)
	return nil
}

func runCompare(baselinePath, currentPath string, threshold float64, strictRe *regexp.Regexp, strictThresh float64, stdout io.Writer) error {
	baseline, err := readReport(baselinePath)
	if err != nil {
		return err
	}
	current, err := readReport(currentPath)
	if err != nil {
		return err
	}
	lines, failures := compare(baseline, current, threshold, strictRe, strictThresh)
	for _, l := range lines {
		fmt.Fprintln(stdout, l)
	}
	if failures > 0 {
		return fmt.Errorf("%d benchmark(s) regressed against %s", failures, baselinePath)
	}
	fmt.Fprintf(stdout, "gate passed: no benchmark regressed more than %.0f%%\n", threshold*100)
	return nil
}

// runMarkdown renders the baseline/current comparison as a GitHub-
// flavored markdown table. It never fails on regressions — the table
// is for the Actions step summary, and must render even (especially)
// when the separate gate invocation is about to fail the job.
func runMarkdown(baselinePath, currentPath, outPath string, threshold float64, stdout io.Writer) error {
	baseline, err := readReport(baselinePath)
	if err != nil {
		return err
	}
	current, err := readReport(currentPath)
	if err != nil {
		return err
	}
	doc := renderMarkdown(baseline, current, threshold)
	if outPath == "-" {
		_, err = io.WriteString(stdout, doc)
		return err
	}
	// Append rather than truncate: $GITHUB_STEP_SUMMARY accumulates
	// sections, and other steps may already have written theirs.
	f, err := os.OpenFile(outPath, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := io.WriteString(f, doc); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// renderMarkdown builds the before/after table: one row per benchmark
// in either report, tracked rows flagged when they breach threshold.
func renderMarkdown(baseline, current *Report, threshold float64) string {
	names := make([]string, 0, len(baseline.Benchmarks)+len(current.Benchmarks))
	for name := range baseline.Benchmarks {
		names = append(names, name)
	}
	for name := range current.Benchmarks {
		if _, ok := baseline.Benchmarks[name]; !ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)

	var b strings.Builder
	fmt.Fprintf(&b, "### Benchmark gate (threshold +%.0f%%)\n\n", threshold*100)
	b.WriteString("| benchmark | ns/op (base → PR) | Δ | allocs/op (base → PR) | Δ | status |\n")
	b.WriteString("|---|---:|---:|---:|---:|---|\n")
	for _, name := range names {
		base, inBase := baseline.Benchmarks[name]
		cur, inCur := current.Benchmarks[name]
		switch {
		case !inBase:
			fmt.Fprintf(&b, "| %s | — → %s | | — → %s | | 🆕 untracked |\n",
				name, fmtMetric(&cur.NsPerOp), fmtMetric(cur.AllocsPerOp))
		case !inCur:
			fmt.Fprintf(&b, "| %s | %s → — | | %s → — | | ❌ missing from PR |\n",
				name, fmtMetric(&base.NsPerOp), fmtMetric(base.AllocsPerOp))
		default:
			nsCell, nsDelta, nsOK := markdownMetric(&base.NsPerOp, &cur.NsPerOp, threshold)
			alCell, alDelta, alOK := markdownMetric(base.AllocsPerOp, cur.AllocsPerOp, threshold)
			status := "✅ ok"
			if !nsOK || !alOK {
				status = "❌ regressed"
			}
			fmt.Fprintf(&b, "| %s | %s | %s | %s | %s | %s |\n",
				name, nsCell, nsDelta, alCell, alDelta, status)
		}
	}
	b.WriteString("\n")
	return b.String()
}

// markdownMetric formats one before/after cell plus its delta, and
// reports whether the metric stays inside the gate (gateMetric's
// rule).
func markdownMetric(base, cur *float64, threshold float64) (cell, delta string, ok bool) {
	cell = fmt.Sprintf("%s → %s", fmtMetric(base), fmtMetric(cur))
	d, ok := judge(base, cur, threshold)
	if base != nil && *base > 0 && cur != nil {
		delta = fmt.Sprintf("%+.1f%%", d*100)
	}
	return cell, delta, ok
}

// fmtMetric renders a metric value compactly (benchmark ns/op values
// run to nine digits; full precision is noise in a summary table), and
// an unmeasured one as a dash.
func fmtMetric(v *float64) string {
	if v == nil {
		return "—"
	}
	return strconv.FormatFloat(*v, 'g', 5, 64)
}

func readReport(path string) (*Report, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(raw, &r); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	return &r, nil
}

// parseBench extracts benchmark result lines from `go test -bench`
// output. A result line looks like
//
//	BenchmarkSimulatorRSNL-8  100  305929 ns/op  28634 B/op  170 allocs/op  3.0 extra_metric
//
// The trailing "-8" GOMAXPROCS suffix is stripped so reports compare
// across machines with different core counts; custom b.ReportMetric
// units are ignored — the gate tracks time and allocation only.
func parseBench(r io.Reader) (*Report, error) {
	report := &Report{Benchmarks: map[string]Metrics{}}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		if _, err := strconv.ParseInt(fields[1], 10, 64); err != nil {
			continue // not an iteration count; not a result line
		}
		name := fields[0]
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		m := report.Benchmarks[name]
		for i := 2; i+1 < len(fields); i += 2 {
			value, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				break // metrics come in "value unit" pairs; stop at noise
			}
			switch fields[i+1] {
			case "ns/op":
				m.NsPerOp = value
			case "allocs/op":
				m.AllocsPerOp = &value
			case "B/op":
				m.BytesPerOp = &value
			}
		}
		if m.NsPerOp > 0 {
			report.Benchmarks[name] = m
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return report, nil
}

// compare evaluates every baseline-tracked benchmark against the
// current report, returning human-readable lines and the number of
// gate failures. Benchmarks matching strictRe have their allocs/op
// gated at strictThresh instead of threshold: allocation counts are
// deterministic, so the hot-path set gets no noise allowance.
func compare(baseline, current *Report, threshold float64, strictRe *regexp.Regexp, strictThresh float64) (lines []string, failures int) {
	names := make([]string, 0, len(baseline.Benchmarks))
	for name := range baseline.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		base := baseline.Benchmarks[name]
		cur, ok := current.Benchmarks[name]
		if !ok {
			failures++
			lines = append(lines, fmt.Sprintf("FAIL %s: tracked benchmark missing from current report", name))
			continue
		}
		allocThresh := threshold
		if strictRe != nil && strictRe.MatchString(name) {
			allocThresh = strictThresh
		}
		ok1, l1 := gateMetric(name, "ns/op", &base.NsPerOp, &cur.NsPerOp, threshold)
		ok2, l2 := gateMetric(name, "allocs/op", base.AllocsPerOp, cur.AllocsPerOp, allocThresh)
		if !ok1 {
			failures++
		}
		if !ok2 {
			failures++
		}
		lines = append(lines, l1, l2)
	}
	for name := range current.Benchmarks {
		if _, ok := baseline.Benchmarks[name]; !ok {
			lines = append(lines, fmt.Sprintf("note %s: not in baseline (commit a refreshed BENCH_baseline.json to track it)", name))
		}
	}
	return lines, failures
}

// judge applies the gate to one metric and returns the fractional
// change it measured. An unmeasured baseline is untracked and passes.
// A tracked metric vanishing (e.g. -benchmem dropped from the CI
// invocation leaves every allocs/op unmeasured) fails like a missing
// benchmark, not as a miraculous -100% improvement. A zero baseline
// fails on any nonzero value, since no fraction of zero allows one.
func judge(base, cur *float64, threshold float64) (delta float64, ok bool) {
	switch {
	case base == nil:
		return 0, true
	case cur == nil:
		return 0, false
	case *base <= 0:
		return 0, *cur <= 0
	}
	delta = (*cur - *base) / *base
	return delta, delta <= threshold
}

func gateMetric(name, unit string, base, cur *float64, threshold float64) (bool, string) {
	delta, ok := judge(base, cur, threshold)
	mark := "  ok"
	if !ok {
		mark = "FAIL"
	}
	var detail string
	switch {
	case base == nil:
		detail = "untracked (no baseline)"
	case cur == nil:
		detail = fmt.Sprintf("tracked metric missing from current report (baseline %.4g)", *base)
	case *base <= 0:
		detail = fmt.Sprintf("%.4g -> %.4g (a zero baseline allows none)", *base, *cur)
	case !ok:
		detail = fmt.Sprintf("%.4g -> %.4g (%+.1f%%, limit +%.0f%%)", *base, *cur, delta*100, threshold*100)
	default:
		detail = fmt.Sprintf("%.4g -> %.4g (%+.1f%%)", *base, *cur, delta*100)
	}
	return ok, fmt.Sprintf("%s %s %s: %s", mark, name, unit, detail)
}
