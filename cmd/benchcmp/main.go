// Command benchcmp is the CI perf-regression gate: it compares a freshly
// produced benchjson report (BENCH_<sha>.json, see cmd/benchjson) against
// the committed baseline (bench/baseline.json, same schema) and fails
// when the perf trajectory regresses. Four PRs of BENCH_<sha>.json
// artifacts were archived but never compared; this closes that loop.
//
// Gate rules (see compare):
//
//   - ns/op regressing by more than -max-regress (default 25%) on any
//     benchmark present in both reports fails the run — unless the two
//     reports were produced on visibly different hosts (cpu/goarch env
//     mismatch), in which case absolute-time comparisons are demoted to
//     warnings (a committed baseline cannot gate wall time across
//     machines) while the allocation gate below still applies.
//   - allocs/op growing at all on a hot-path benchmark (name matching
//     -allocs-pattern; default: the serial relational Filter/Project
//     micro-benches, whose counts are deterministic) fails the run.
//     Parallel benchmarks are excluded by default because worker-pool
//     scheduling perturbs their counts by a few allocations per run.
//   - a spill_overhead metric above 20.0 in the new report fails
//     unconditionally: the ratio of the budgeted external sort to the
//     in-memory sort of the same input is measured inside one run, so it
//     needs no baseline and survives host changes. It must stay a
//     bounded constant factor.
//   - benchmarks present in the baseline but missing from the new report
//     warn (renames should refresh the baseline deliberately).
//
// Refreshing the baseline is deliberate:
//
//	make bench-baseline            # re-run the CI bench set and rewrite bench/baseline.json
//	go run ./cmd/benchcmp -baseline bench/baseline.json -new BENCH_<sha>.json -update
//
// Usage in CI:
//
//	go run ./cmd/benchcmp -baseline bench/baseline.json -new "BENCH_${GITHUB_SHA}.json"
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
)

// Benchmark and Report mirror cmd/benchjson's output schema.
type Benchmark struct {
	Pkg        string             `json:"pkg,omitempty"`
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
}

// Report is one benchjson document.
type Report struct {
	SHA        string            `json:"sha,omitempty"`
	Env        map[string]string `json:"env,omitempty"`
	Benchmarks []Benchmark       `json:"benchmarks"`
}

// defaultAllocsPattern selects the hot-path benchmarks whose allocs/op
// are deterministic and gated strictly: the serial relational
// filter/project kernels (the PR 3 allocation-free hot path).
const defaultAllocsPattern = `^Benchmark(Filter(AllTrue|Selective|StringEq|In)|ProjectLiteralArith)`

// procsSuffix is the "-<GOMAXPROCS>" suffix go test appends to benchmark
// names on multi-core hosts (and omits when GOMAXPROCS is 1). Matching
// must ignore it, or a baseline produced on an n-core machine silently
// fails to line up with a report from an m-core runner and the whole
// gate degrades to "missing benchmark" warnings.
var procsSuffix = regexp.MustCompile(`-\d+$`)

// benchKey identifies a benchmark across hosts: package plus name with
// the GOMAXPROCS suffix stripped.
func benchKey(b Benchmark) string {
	return b.Pkg + "|" + procsSuffix.ReplaceAllString(b.Name, "")
}

func main() {
	baselinePath := flag.String("baseline", "bench/baseline.json", "committed baseline report")
	newPath := flag.String("new", "", "freshly produced report to gate")
	update := flag.Bool("update", false, "overwrite the baseline with -new (deliberate refresh)")
	maxRegress := flag.Float64("max-regress", 0.25, "allowed fractional ns/op growth before failing")
	allocsPattern := flag.String("allocs-pattern", defaultAllocsPattern,
		"regexp of benchmark names whose allocs/op must not grow")
	flag.Parse()

	if *newPath == "" {
		fmt.Fprintln(os.Stderr, "benchcmp: -new is required")
		os.Exit(2)
	}
	cur, err := readReport(*newPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchcmp: %v\n", err)
		os.Exit(2)
	}
	if *update {
		if err := writeReport(*baselinePath, cur); err != nil {
			fmt.Fprintf(os.Stderr, "benchcmp: %v\n", err)
			os.Exit(2)
		}
		fmt.Printf("benchcmp: baseline %s refreshed from %s (%d benchmarks)\n",
			*baselinePath, *newPath, len(cur.Benchmarks))
		return
	}
	base, err := readReport(*baselinePath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchcmp: %v\n", err)
		os.Exit(2)
	}
	allocsRe, err := regexp.Compile(*allocsPattern)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchcmp: bad -allocs-pattern: %v\n", err)
		os.Exit(2)
	}
	failures, warnings := compare(base, cur, *maxRegress, allocsRe)
	for _, w := range warnings {
		fmt.Printf("WARN  %s\n", w)
	}
	for _, f := range failures {
		fmt.Printf("FAIL  %s\n", f)
	}
	if len(failures) > 0 {
		fmt.Printf("benchcmp: %d perf regression(s) vs %s (refresh deliberately with -update / make bench-baseline)\n",
			len(failures), *baselinePath)
		os.Exit(1)
	}
	fmt.Printf("benchcmp: OK — %d benchmarks within %.0f%% of baseline, hot-path allocs not grown\n",
		len(cur.Benchmarks), *maxRegress*100)
}

// comparableHosts reports whether absolute-time metrics from the two
// reports can be compared: same CPU model and architecture. Missing env
// info is treated as comparable (local runs of both sides).
func comparableHosts(base, cur Report) bool {
	for _, k := range []string{"cpu", "goarch"} {
		b, c := base.Env[k], cur.Env[k]
		if b != "" && c != "" && b != c {
			return false
		}
	}
	return true
}

// compare applies the gate rules and returns failure and warning lines.
func compare(base, cur Report, maxRegress float64, allocsRe *regexp.Regexp) (failures, warnings []string) {
	curIdx := make(map[string]Benchmark, len(cur.Benchmarks))
	for _, b := range cur.Benchmarks {
		curIdx[benchKey(b)] = b
	}
	sameHost := comparableHosts(base, cur)
	if !sameHost {
		warnings = append(warnings, fmt.Sprintf(
			"baseline host (%s/%s) differs from current (%s/%s): ns/op regressions demoted to warnings",
			base.Env["cpu"], base.Env["goarch"], cur.Env["cpu"], cur.Env["goarch"]))
	}
	for _, b := range base.Benchmarks {
		c, ok := curIdx[benchKey(b)]
		if !ok {
			warnings = append(warnings, fmt.Sprintf(
				"%s %s: in baseline but missing from new report (renamed? refresh the baseline)", b.Pkg, b.Name))
			continue
		}
		baseNs, okB := b.Metrics["ns/op"]
		curNs, okC := c.Metrics["ns/op"]
		if okB && okC && baseNs > 0 && curNs > baseNs*(1+maxRegress) {
			line := fmt.Sprintf("%s ns/op regressed %.1f%%: %.0f -> %.0f (limit +%.0f%%)",
				b.Name, (curNs/baseNs-1)*100, baseNs, curNs, maxRegress*100)
			if sameHost {
				failures = append(failures, line)
			} else {
				warnings = append(warnings, line)
			}
		}
		baseAllocs, okB := b.Metrics["allocs/op"]
		curAllocs, okC := c.Metrics["allocs/op"]
		if okB && okC && allocsRe.MatchString(b.Name) && curAllocs > baseAllocs {
			failures = append(failures, fmt.Sprintf(
				"%s allocs/op grew: %.0f -> %.0f (hot-path allocations must not grow)",
				b.Name, baseAllocs, curAllocs))
		}
	}
	// The spill gate is absolute: spill_overhead is the budgeted external
	// sort's time over the in-memory sort of the same input, measured
	// inside one run on one host, so unlike ns/op it is valid without a
	// baseline and regardless of host comparability. Spilling must cost a
	// bounded constant factor; past 20x the external path has degenerated
	// (per-row I/O, re-reads).
	for _, c := range cur.Benchmarks {
		if ovh, ok := c.Metrics["spill_overhead"]; ok && ovh > 20.0 {
			failures = append(failures, fmt.Sprintf(
				"%s spill_overhead = %.3f: external sort cost over in-memory sort (must stay <= 20.0)",
				c.Name, ovh))
		}
	}
	// Benchmarks only in the new report are ungated until the baseline
	// records them; surface that loudly for hot-path names so a renamed
	// benchmark cannot silently drop out of the allocation gate.
	baseIdx := make(map[string]bool, len(base.Benchmarks))
	for _, b := range base.Benchmarks {
		baseIdx[benchKey(b)] = true
	}
	for _, c := range cur.Benchmarks {
		if !baseIdx[benchKey(c)] && allocsRe.MatchString(c.Name) {
			warnings = append(warnings, fmt.Sprintf(
				"%s %s: hot-path benchmark not in baseline — UNGATED until the baseline is refreshed", c.Pkg, c.Name))
		}
	}
	return failures, warnings
}

func readReport(path string) (Report, error) {
	var r Report
	raw, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(raw, &r); err != nil {
		return r, fmt.Errorf("parse %s: %v", path, err)
	}
	return r, nil
}

func writeReport(path string, r Report) error {
	out, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}
