package main

import (
	"context"
	"encoding/json"
	"io"
	"os"
	"reflect"
	"testing"
	"time"

	"raven/internal/data"
	"raven/internal/train"
)

// tiny shrinks a workload to smoke-test size: same code path, same load
// shape, constants small enough that all four run in a few seconds.
func tiny(w workload) workload {
	w.rows = 4096
	w.tune = func(s *train.Spec) { s.NEstimators = 5 }
	if w.chunkThreshold == 0 {
		w.chunkThreshold = 1024 // still chunk-backed at 4096 rows
	}
	if w.budget > 0 {
		w.budget = 16 << 10 // still far below the breakers' working set
	}
	if w.clients == 0 {
		w.period = 5 * time.Millisecond
	}
	return w
}

// benchmarkJSON mirrors BENCHMARK.json at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []decl `json:"end_to_end"`
	PerLayer []decl `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

// TestDeclarationsMatchBenchmarkJSON keeps the metric and workload tables
// in the code and in BENCHMARK.json in step.
func TestDeclarationsMatchBenchmarkJSON(t *testing.T) {
	bj := loadBenchmarkJSON(t)
	if !reflect.DeepEqual(bj.EndToEnd, endToEnd) {
		t.Errorf("end_to_end: BENCHMARK.json has %+v, the code %+v", bj.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(bj.PerLayer, perLayer) {
		t.Errorf("per_layer: BENCHMARK.json has %+v, the code %+v", bj.PerLayer, perLayer)
	}
	if bj.RunSeconds != runSeconds {
		t.Errorf("run_seconds = %d, the code's default is %d", bj.RunSeconds, runSeconds)
	}
	ws := workloads()
	if len(bj.Workloads) != len(ws) {
		t.Fatalf("BENCHMARK.json has %d workloads, the code %d", len(bj.Workloads), len(ws))
	}
	for i, w := range ws {
		if bj.Workloads[i].Name != w.name || bj.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the code %q: %q", i, bj.Workloads[i], w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("workload %s: why is %d characters, at most 200 allowed", w.name, len(w.why))
		}
	}
}

// TestSmoke runs all four workloads, untraced and traced, through the
// benchmark's own code at tiny constants.
func TestSmoke(t *testing.T) {
	ctx := context.Background()
	for _, w := range workloads() {
		w = tiny(w)
		for _, traced := range []bool{false, true} {
			res, spans, err := runWorkload(ctx, w, 1, 240*time.Millisecond, traced, t.TempDir())
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Info["failed_ratio"].Value != 0 {
				t.Errorf("%s traced=%v: %d of %d failed: %v", w.name, traced, res.Failed, res.Attempted, res.Failures)
			}
			if res.Samples == 0 {
				t.Errorf("%s traced=%v: no samples", w.name, traced)
			}
			decls := endToEnd
			if traced {
				decls = perLayer
			}
			checkDeclared(t, w.name, res, decls)
			if traced {
				checkSpans(t, w.name, spans, res.Samples)
				checkLayers(t, w, res)
			} else if spans != nil {
				t.Errorf("%s: untraced run recorded spans", w.name)
			}
		}
	}
}

// checkDeclared requires res to carry exactly the declared metrics, with
// their units, and the end-to-end ones to be non-zero.
func checkDeclared(t *testing.T, name string, res *result, decls []decl) {
	t.Helper()
	if len(res.Metrics) != len(decls) {
		t.Errorf("%s: %d metrics emitted, %d declared", name, len(res.Metrics), len(decls))
	}
	for _, d := range decls {
		m, ok := res.Metrics[d.Name]
		switch {
		case !ok:
			t.Errorf("%s: declared metric %s not emitted", name, d.Name)
		case m.Unit != d.Unit:
			t.Errorf("%s: %s has unit %q, declared %q", name, d.Name, m.Unit, d.Unit)
		case d.Bound > 0 && !(m.Value > 0):
			t.Errorf("%s: gated metric %s = %v, must be positive", name, d.Name, m.Value)
		}
	}
}

// checkSpans requires well-formed spans: one op span per op_id, every
// other span inside its parent and sharing its op_id, self times ≥ 0.
func checkSpans(t *testing.T, name string, spans []span, ops int) {
	t.Helper()
	byID := map[int]span{}
	covered := map[int]int64{} // span id → time covered by its children
	opSpans := map[int]int{}
	for _, s := range spans {
		if s.EndNs < s.StartNs {
			t.Errorf("%s: span %d (%s) ends before it starts", name, s.ID, s.Name)
		}
		byID[s.ID] = s
		if s.Parent == 0 {
			opSpans[s.OpID]++
			continue
		}
		p, ok := byID[s.Parent]
		if !ok {
			t.Errorf("%s: span %d (%s) has no earlier parent %d", name, s.ID, s.Name, s.Parent)
			continue
		}
		if s.StartNs < p.StartNs || s.EndNs > p.EndNs {
			t.Errorf("%s: span %d (%s) [%d,%d] leaves its parent %s [%d,%d]",
				name, s.ID, s.Name, s.StartNs, s.EndNs, p.Name, p.StartNs, p.EndNs)
		}
		if s.OpID != p.OpID {
			t.Errorf("%s: span %d has op_id %d, its parent %d", name, s.ID, s.OpID, p.OpID)
		}
		covered[s.Parent] += s.EndNs - s.StartNs
	}
	for id, c := range covered {
		if p := byID[id]; c > p.EndNs-p.StartNs {
			t.Errorf("%s: span %d (%s) has negative self time", name, id, p.Name)
		}
	}
	if len(opSpans) != ops {
		t.Errorf("%s: %d op ids for %d traced ops", name, len(opSpans), ops)
	}
	for id, n := range opSpans {
		if n != 1 {
			t.Errorf("%s: op_id %d has %d op spans", name, id, n)
		}
	}
}

// checkLayers requires the layer metrics to behave as the workloads were
// designed: who predicts, who spills, who hits the plan cache.
func checkLayers(t *testing.T, w workload, res *result) {
	t.Helper()
	v := func(name string) float64 { return res.Metrics[name].Value }
	if c := v("trace.coverage"); c < 0.9 || c > 1.1 {
		t.Errorf("%s: trace.coverage = %v", w.name, c)
	}
	if o := res.Info["relational.other_self_ms"].Value; o != 0 {
		t.Errorf("%s: %v ms of self time in operators no layer metric owns", w.name, o)
	}
	if spilled := v("relational.spill_bytes_per_op") > 0; spilled != (w.budget > 0) {
		t.Errorf("%s: spill_bytes_per_op = %v with budget %d", w.name, v("relational.spill_bytes_per_op"), w.budget)
	}
	hit := v("raven.plancache_hit_ratio")
	switch w.name {
	case "point_lookup":
		if hit != 0 {
			t.Errorf("point_lookup: plan cache hit ratio %v, every text should miss", hit)
		}
		if v("relational.rows_scanned_per_result_row") != float64(w.rows) {
			t.Errorf("point_lookup: scanned %v rows per result row", v("relational.rows_scanned_per_result_row"))
		}
	case "rank_join":
		if v("engine.predict_rows") != 0 || res.RulesFired["MLtoSQL"] == 0 {
			t.Errorf("rank_join: MLtoSQL should leave the ML runtime idle (predict rows %v, rules %v)",
				v("engine.predict_rows"), res.RulesFired)
		}
		fallthrough
	default:
		if hit < 0.95 {
			t.Errorf("%s: plan cache hit ratio %v", w.name, hit)
		}
	}
	if w.name == "batch_score" && v("engine.predict_rows") == 0 {
		t.Errorf("batch_score: the Predict operator saw no rows")
	}
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if v, ok := percentile(xs, 0.90); !ok || v != 90 {
		t.Errorf("p90 of 1..100 = %v, %v; want 90 with 10 samples beyond", v, ok)
	}
	if _, ok := percentile(xs[:99], 0.90); ok {
		t.Errorf("p90 of 99 samples reported with only 9 beyond")
	}
	if _, ok := percentile(xs, 0.99); ok {
		t.Errorf("p99 of 100 samples reported with 1 beyond")
	}
	if v, ok := percentile(xs[:20], 0.50); !ok || v != 10 {
		t.Errorf("p50 of 1..20 = %v, %v; want 10", v, ok)
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Errorf("percentile of nothing reported")
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

func TestSeedDecidesInputs(t *testing.T) {
	w, _ := findWorkload("rank_join")
	w = tiny(w)
	sha := func(seed int64) string {
		in, err := generate(w, seed, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		return in.sha256
	}
	a, b, c := sha(1), sha(1), sha(2)
	if a != b {
		t.Errorf("seed 1 gave inputs %s and %s", a, b)
	}
	if a == c {
		t.Errorf("seeds 1 and 2 gave the same inputs %s", a)
	}
}

func TestCompareFlagsWhatExceedsItsBound(t *testing.T) {
	mk := func(p50 float64) *report {
		m := map[string]metric{}
		for _, d := range endToEnd {
			m[d.Name] = metric{100, d.Unit}
		}
		m["op_ms_p50"] = metric{p50, "ms"}
		return &report{Results: []result{{Workload: "w", Metrics: m}}}
	}
	if !compare(io.Discard, mk(100), mk(105)) {
		t.Errorf("a 5%% difference was flagged against a 10%% bound")
	}
	if compare(io.Discard, mk(100), mk(120)) {
		t.Errorf("a 20%% difference passed a 10%% bound")
	}
}

func TestSameTableToleratesTiedKeys(t *testing.T) {
	// Rows 1 and 2 tie on the key; their ids may swap. Row 0 may not.
	mk := func(ids []int64, keys []float64) *data.Table {
		return data.MustNewTable("r", data.NewInt("d.srch_id", ids), data.NewFloat("s", keys))
	}
	want := mk([]int64{7, 8, 9}, []float64{0.9, 0.5, 0.5})
	if err := sameTable(mk([]int64{7, 9, 8}, []float64{0.9, 0.5, 0.5}), want, "s"); err != nil {
		t.Errorf("swapped tied rows rejected: %v", err)
	}
	if err := sameTable(mk([]int64{8, 7, 9}, []float64{0.9, 0.5, 0.5}), want, "s"); err == nil {
		t.Errorf("wrong id on an untied row accepted")
	}
	if err := sameTable(mk([]int64{7, 8, 9}, []float64{0.9, 0.5, 0.4}), want, "s"); err == nil {
		t.Errorf("wrong key value accepted")
	}
	if err := sameTable(mk([]int64{7, 9, 8}, []float64{0.9, 0.5, 0.5}), want, ""); err == nil {
		t.Errorf("swapped rows accepted on a text without a float key")
	}
}
