package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// decl declares one metric; BENCHMARK.json carries the same list and the
// smoke test keeps the two in step.
type decl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the gated metrics, measured with tracing off. Bound is the
// relative worsening that counts as a regression.
var endToEnd = []decl{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "op_ms_p50", Unit: "ms", Better: "lower", Bound: 0.15},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.15},
	{Name: "peak_rss_mb", Unit: "MiB", Better: "lower", Bound: 0.25},
}

// perLayer are the explaining metrics of the traced run, one layer (one
// package) each. None is gated.
var perLayer = []decl{
	{Name: "sqlparse.parse_us", Unit: "us", Better: "lower"},
	{Name: "sqlparse.plan_us", Unit: "us", Better: "lower"},
	{Name: "opt.optimize_us", Unit: "us", Better: "lower"},
	{Name: "opt.rules_fired", Unit: "count", Better: "higher"},
	{Name: "raven.plancache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "engine.lower_us", Unit: "us", Better: "lower"},
	{Name: "engine.exec_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.predict_self_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.predict_rows", Unit: "count", Better: "lower"},
	{Name: "relational.scan_self_ms", Unit: "ms", Better: "lower"},
	{Name: "relational.join_self_ms", Unit: "ms", Better: "lower"},
	{Name: "relational.agg_self_ms", Unit: "ms", Better: "lower"},
	{Name: "relational.sort_self_ms", Unit: "ms", Better: "lower"},
	{Name: "relational.filter_project_self_ms", Unit: "ms", Better: "lower"},
	{Name: "relational.exchange_busy_ratio", Unit: "ratio", Better: "higher"},
	{Name: "relational.rows_scanned_per_result_row", Unit: "ratio", Better: "lower"},
	{Name: "relational.spill_bytes_per_op", Unit: "bytes", Better: "lower"},
	{Name: "relational.spills_per_op", Unit: "count", Better: "lower"},
	{Name: "mlruntime.predict_rows_per_s", Unit: "1/s", Better: "higher"},
	{Name: "mlruntime.session_reuse_ratio", Unit: "ratio", Better: "higher"},
	{Name: "sched.dispatch_us", Unit: "us", Better: "lower"},
	{Name: "sched.admitted_max", Unit: "count", Better: "lower"},
	{Name: "sched.recovered", Unit: "count", Better: "lower"},
	{Name: "data.csv_ingest_mb_s", Unit: "MB/s", Better: "higher"},
	{Name: "data.chunk_decode_ms", Unit: "ms", Better: "lower"},
	{Name: "data.write_csv_ms", Unit: "ms", Better: "lower"},
	{Name: "data.result_bytes_per_op", Unit: "bytes", Better: "lower"},
	{Name: "go.allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "go.alloc_mb_per_op", Unit: "MiB", Better: "lower"},
	{Name: "go.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "trace.coverage", Unit: "ratio", Better: "higher"},
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "lower"},
}

// metric is one measured value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run of one workload: the untraced run carries the
// end-to-end metrics, the traced run the per-layer ones.
type result struct {
	Workload  string `json:"workload"`
	Traced    bool   `json:"traced"`
	Correct   bool   `json:"correct"`
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
	// Samples is the number of op latencies behind op_ms_p50 (untraced) or
	// the number of traced ops behind the per-layer medians (traced).
	Samples int               `json:"samples"`
	Metrics map[string]metric `json:"metrics"`
	// Info holds figures that explain a run but are neither gated nor
	// declared: generator time, the tail where the sample supports one,
	// how late the open-loop generator ran.
	Info        map[string]metric `json:"info"`
	RulesFired  map[string]int    `json:"rules_fired,omitempty"`
	InputSHA256 string            `json:"input_sha256"`
	RSSReset    bool              `json:"rss_reset"`
	Failures    []string          `json:"failures,omitempty"`
}

// env states where a report was measured.
type env struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	Commit     string `json:"commit"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
}

// report is what -out writes: the env and every run made.
type report struct {
	Env     env      `json:"env"`
	Results []result `json:"results"`
}

func currentEnv(seed int64, seconds int) env {
	e := env{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		CPUModel: "unknown", Commit: "unknown", Seed: seed, Seconds: seconds}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				e.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				e.Commit = s.Value
			}
		}
	}
	return e
}

// print writes one `workload metric value unit` line per metric, declared
// ones first in declaration order, then the info figures by name.
func (r *result) print(w io.Writer) {
	decls := endToEnd
	if r.Traced {
		decls = perLayer
	}
	for _, d := range decls {
		if m, ok := r.Metrics[d.Name]; ok {
			fmt.Fprintf(w, "%s %s %.6g %s\n", r.Workload, d.Name, m.Value, m.Unit)
		}
	}
	names := make([]string, 0, len(r.Info))
	for name := range r.Info {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "%s %s %.6g %s (info)\n", r.Workload, name, r.Info[name].Value, r.Info[name].Unit)
	}
	for rule, n := range r.RulesFired {
		fmt.Fprintf(w, "%s opt.rules_fired[%s] %d count (info)\n", r.Workload, rule, n)
	}
	for _, f := range r.Failures {
		fmt.Fprintf(w, "%s FAILED %s\n", r.Workload, f)
	}
}

// contractLine renders the single JSON object the benchmark driver reads
// from the last line of standard output.
func (r *result) contractLine() string {
	b, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics})
	if err != nil {
		panic(err) // plain numbers and strings always marshal
	}
	return string(b)
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readReport(path string) (*report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// compare prints, per workload and end-to-end metric, both reports'
// values, their relative difference and the metric's bound, and reports
// whether every difference is within its bound. It is the repeatability
// check for two sets of runs of one commit, so the difference is
// symmetric: it does not matter which set is the slower one.
func compare(w io.Writer, a, b *report) bool {
	ok := true
	fmt.Fprintf(w, "%-13s %-12s %12s %12s %8s %6s\n", "workload", "metric", "a", "b", "diff", "bound")
	for _, ra := range a.Results {
		if ra.Traced {
			continue
		}
		for _, rb := range b.Results {
			if rb.Traced || rb.Workload != ra.Workload {
				continue
			}
			for _, d := range endToEnd {
				va, vb := ra.Metrics[d.Name].Value, rb.Metrics[d.Name].Value
				diff := math.Abs(vb-va) / math.Min(va, vb)
				verdict := ""
				if !(diff <= d.Bound) {
					verdict, ok = "  EXCEEDS", false
				}
				fmt.Fprintf(w, "%-13s %-12s %12.6g %12.6g %7.1f%% %5.0f%%%s\n",
					ra.Workload, d.Name, va, vb, 100*diff, 100*d.Bound, verdict)
			}
			if ra.Failed+rb.Failed > 0 {
				fmt.Fprintf(w, "%-13s failed ops: %d and %d  EXCEEDS\n", ra.Workload, ra.Failed, rb.Failed)
				ok = false
			}
		}
	}
	return ok
}
