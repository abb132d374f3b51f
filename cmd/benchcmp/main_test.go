package main

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

func mkReport(cpu string, benches ...Benchmark) Report {
	return Report{
		Env:        map[string]string{"cpu": cpu, "goarch": "amd64"},
		Benchmarks: benches,
	}
}

func bench(name string, ns, allocs float64) Benchmark {
	return Benchmark{
		Pkg:        "raven/internal/relational",
		Name:       name,
		Iterations: 20,
		Metrics:    map[string]float64{"ns/op": ns, "allocs/op": allocs},
	}
}

var allocsRe = regexp.MustCompile(defaultAllocsPattern)

// TestGateFailsOnSyntheticRegression is the acceptance check: feeding a
// degraded report (ns/op blown past the 25% threshold) must fail.
func TestGateFailsOnSyntheticRegression(t *testing.T) {
	base := mkReport("xeon", bench("BenchmarkFilterStringEq-8", 1000, 10))
	degraded := mkReport("xeon", bench("BenchmarkFilterStringEq-8", 1600, 10))
	failures, _ := compare(base, degraded, 0.25, allocsRe)
	if len(failures) != 1 || !strings.Contains(failures[0], "ns/op regressed 60.0%") {
		t.Fatalf("failures = %v", failures)
	}
}

func TestGatePassesWithinTolerance(t *testing.T) {
	base := mkReport("xeon",
		bench("BenchmarkFilterStringEq-8", 1000, 10),
		bench("BenchmarkProjectLiteralArith-8", 500, 3))
	// 20% slower and 10% faster: both inside the 25% window, allocs flat.
	cur := mkReport("xeon",
		bench("BenchmarkFilterStringEq-8", 1200, 10),
		bench("BenchmarkProjectLiteralArith-8", 450, 3))
	failures, warnings := compare(base, cur, 0.25, allocsRe)
	if len(failures) != 0 {
		t.Fatalf("failures = %v", failures)
	}
	if len(warnings) != 0 {
		t.Fatalf("warnings = %v", warnings)
	}
	// Identity comparison is trivially clean (baseline gates itself).
	failures, warnings = compare(base, base, 0.25, allocsRe)
	if len(failures) != 0 || len(warnings) != 0 {
		t.Fatalf("self-compare: failures=%v warnings=%v", failures, warnings)
	}
}

func TestGateFailsOnHotPathAllocGrowth(t *testing.T) {
	base := mkReport("xeon", bench("BenchmarkFilterIn-8", 1000, 4))
	grown := mkReport("xeon", bench("BenchmarkFilterIn-8", 1000, 5))
	failures, _ := compare(base, grown, 0.25, allocsRe)
	if len(failures) != 1 || !strings.Contains(failures[0], "allocs/op grew: 4 -> 5") {
		t.Fatalf("failures = %v", failures)
	}
	// Benchmarks outside the hot-path pattern (e.g. parallel speedup
	// benches, whose counts jitter with worker scheduling) do not gate.
	base = mkReport("xeon", bench("BenchmarkTopKOverPredict/shape=topk/dop=4", 1000, 6419))
	grown = mkReport("xeon", bench("BenchmarkTopKOverPredict/shape=topk/dop=4", 1000, 6436))
	failures, _ = compare(base, grown, 0.25, allocsRe)
	if len(failures) != 0 {
		t.Fatalf("non-hot-path alloc jitter failed the gate: %v", failures)
	}
}

// TestGateDemotesCrossHostTimes: a committed baseline from another
// machine cannot gate wall time — ns/op regressions become warnings, but
// the (machine-independent) allocation gate still fails.
func TestGateDemotesCrossHostTimes(t *testing.T) {
	base := mkReport("xeon", bench("BenchmarkFilterStringEq-8", 1000, 10))
	cur := mkReport("epyc", bench("BenchmarkFilterStringEq-8", 5000, 11))
	failures, warnings := compare(base, cur, 0.25, allocsRe)
	if len(failures) != 1 || !strings.Contains(failures[0], "allocs/op grew") {
		t.Fatalf("failures = %v", failures)
	}
	found := false
	for _, w := range warnings {
		if strings.Contains(w, "ns/op regressed") {
			found = true
		}
	}
	if !found {
		t.Fatalf("cross-host ns/op regression not warned: %v", warnings)
	}
}

func TestGateWarnsOnMissingBenchmark(t *testing.T) {
	base := mkReport("xeon",
		bench("BenchmarkFilterStringEq-8", 1000, 10),
		bench("BenchmarkGone-8", 1000, 10))
	cur := mkReport("xeon", bench("BenchmarkFilterStringEq-8", 1000, 10))
	failures, warnings := compare(base, cur, 0.25, allocsRe)
	if len(failures) != 0 {
		t.Fatalf("failures = %v", failures)
	}
	if len(warnings) != 1 || !strings.Contains(warnings[0], "missing from new report") {
		t.Fatalf("warnings = %v", warnings)
	}
}

func TestReadWriteRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "baseline.json")
	rep := mkReport("xeon", bench("BenchmarkFilterIn-8", 123, 4))
	rep.SHA = "abc"
	if err := writeReport(path, rep); err != nil {
		t.Fatal(err)
	}
	got, err := readReport(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.SHA != "abc" || len(got.Benchmarks) != 1 ||
		got.Benchmarks[0].Metrics["ns/op"] != 123 {
		t.Fatalf("round trip = %+v", got)
	}
	if _, err := readReport(filepath.Join(dir, "absent.json")); err == nil {
		t.Fatal("expected error for missing file")
	}
	if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := readReport(path); err == nil {
		t.Fatal("expected error for malformed JSON")
	}
}

// TestGateWarnsOnUngatedHotPathBenchmark: a hot-path benchmark that is
// only in the new report (e.g. renamed) must be flagged as ungated so
// the allocation gate cannot silently lose coverage.
func TestGateWarnsOnUngatedHotPathBenchmark(t *testing.T) {
	base := mkReport("xeon", bench("BenchmarkFilterIn-8", 1000, 4))
	cur := mkReport("xeon", bench("BenchmarkFilterInList-8", 1000, 9))
	failures, warnings := compare(base, cur, 0.25, allocsRe)
	if len(failures) != 0 {
		t.Fatalf("failures = %v", failures)
	}
	missing, ungated := false, false
	for _, w := range warnings {
		if strings.Contains(w, "missing from new report") {
			missing = true
		}
		if strings.Contains(w, "UNGATED until the baseline is refreshed") {
			ungated = true
		}
	}
	if !missing || !ungated {
		t.Fatalf("warnings = %v (want missing + ungated)", warnings)
	}
	// Non-hot-path additions stay quiet.
	cur = mkReport("xeon",
		bench("BenchmarkFilterIn-8", 1000, 4),
		bench("BenchmarkSomethingNew-8", 1000, 9))
	_, warnings = compare(base, cur, 0.25, allocsRe)
	if len(warnings) != 0 {
		t.Fatalf("warnings = %v (new non-hot-path bench should not warn)", warnings)
	}
}

// TestGateMatchesAcrossGOMAXPROCSSuffix: go test appends "-<GOMAXPROCS>"
// to benchmark names on multi-core hosts and omits it on 1-core ones, so
// the gate must line benchmarks up with the suffix stripped — otherwise
// a baseline produced on a 1-core machine silently matches nothing on a
// 4-core CI runner and the gate degrades to warnings.
func TestGateMatchesAcrossGOMAXPROCSSuffix(t *testing.T) {
	base := mkReport("xeon",
		bench("BenchmarkFilterStringEq/encoding=dict", 1000, 10),
		bench("BenchmarkFilterIn", 1000, 4))
	cur := mkReport("xeon",
		bench("BenchmarkFilterStringEq/encoding=dict-4", 1600, 10),
		bench("BenchmarkFilterIn-4", 1000, 5))
	failures, warnings := compare(base, cur, 0.25, allocsRe)
	if len(warnings) != 0 {
		t.Fatalf("suffixed names did not match baseline: %v", warnings)
	}
	if len(failures) != 2 {
		t.Fatalf("failures = %v (want ns/op regression + alloc growth through the suffix)", failures)
	}
	// And the reverse direction (multi-core baseline, 1-core report).
	failures, warnings = compare(cur, base, 0.25, allocsRe)
	if len(warnings) != 0 {
		t.Fatalf("reverse match warnings = %v", warnings)
	}
	if len(failures) != 0 {
		t.Fatalf("reverse failures = %v", failures)
	}
}

// TestGateFailsOnSpillOverhead: spill_overhead is an absolute in-run
// ratio, valid without a baseline entry and across hosts, failing past
// 20x.
func TestGateFailsOnSpillOverhead(t *testing.T) {
	spill := func(v float64) Benchmark {
		return Benchmark{
			Pkg:        "raven/internal/relational",
			Name:       "BenchmarkExternalSortSpill-8",
			Iterations: 1,
			Metrics:    map[string]float64{"ns/op": 2e8, "spill_overhead": v},
		}
	}
	base := mkReport("xeon")
	cur := mkReport("epyc", spill(27.5))
	failures, _ := compare(base, cur, 0.25, allocsRe)
	if len(failures) != 1 || !strings.Contains(failures[0], "spill_overhead = 27.500") {
		t.Fatalf("failures = %v", failures)
	}
	// A bounded overhead passes.
	cur = mkReport("epyc", spill(2.4))
	if failures, _ := compare(base, cur, 0.25, allocsRe); len(failures) != 0 {
		t.Fatalf("bounded spill overhead failed the gate: %v", failures)
	}
}
