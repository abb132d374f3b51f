package raven

import (
	"fmt"
	"os"
	"runtime"
	"testing"

	"raven/internal/data"
	"raven/internal/model"
	"raven/internal/opt"
	"raven/internal/strategy"
)

// Adaptive mid-query re-optimization tests: a deliberately misestimated
// build side (equality filter on a heavily skewed two-value column, which
// the uniform-distribution estimator prices at 50%) forces the join-build
// observation to contradict the plan-time cardinality, so the predict
// segment re-chooses its runtime at the breaker boundary. The plan-time
// static choice (MLtoDNN, from dnnForEnsembles) must provably switch to the
// ML runtime — and the result must stay byte-identical to a serial
// non-adaptive session whose plan-time choice already was the ML runtime.

// dnnForEnsembles is the adaptive tests' runtime strategy: at plan time it
// compiles the pipeline to a tensor program (MLtoDNN), and once fewer than
// strategy.DefaultSmallInputRows rows are observed to reach the predict it
// keeps the pipeline on the ML runtime.
type dnnForEnsembles struct{}

func (dnnForEnsembles) Name() string                    { return "dnn-for-ensembles" }
func (dnnForEnsembles) Choose(*opt.Features) opt.Choice { return opt.ChoiceDNN }
func (dnnForEnsembles) ChooseWithCardinality(_ *opt.Features, _ int, rows float64) opt.Choice {
	if rows < strategy.DefaultSmallInputRows {
		return opt.ChoiceNone
	}
	return opt.ChoiceDNN
}

// adaptiveForest is a 2-tree random forest over the covid feature layout;
// an ensemble (not a DT), so CalibratedRule keeps it on the ML runtime
// rather than collapsing it to MLtoSQL.
func adaptiveForest() *model.Pipeline {
	t1 := model.Tree{Nodes: []model.TreeNode{
		{Feature: 3, Threshold: 0.5, Left: 1, Right: 2}, // asthma_yes
		{Feature: 1, Threshold: 0.3, Left: 3, Right: 4}, // scaled bpm
		{Feature: 0, Threshold: 0.6, Left: 5, Right: 6}, // scaled age
		{Feature: -1, Value: 0.2},
		{Feature: -1, Value: 0.6},
		{Feature: -1, Value: 0.4},
		{Feature: -1, Value: 0.8},
	}}
	t2 := model.Tree{Nodes: []model.TreeNode{
		{Feature: 0, Threshold: 0.2, Left: 1, Right: 2}, // scaled age
		{Feature: 4, Threshold: 0.5, Left: 3, Right: 4}, // hyper_no
		{Feature: -1, Value: 0.7},
		{Feature: -1, Value: 0.1},
		{Feature: -1, Value: 0.5},
	}}
	return &model.Pipeline{
		Name: "risk_rf",
		Inputs: []model.Input{
			{Name: "age"},
			{Name: "bpm"},
			{Name: "asthma", Categorical: true},
			{Name: "hypertension", Categorical: true},
		},
		Ops: []model.Operator{
			&model.Concat{Name: "num", In: []string{"age", "bpm"}, Out: "numv"},
			&model.StandardScaler{
				Name: "scaler", In: "numv", Out: "scaled",
				Offset: []float64{50, 80}, Scale: []float64{0.01, 0.0125},
			},
			&model.OneHotEncoder{
				Name: "ohe_asthma", In: "asthma", Out: "asthma_oh",
				Categories: []string{"no", "yes"},
			},
			&model.OneHotEncoder{
				Name: "ohe_hyper", In: "hypertension", Out: "hyper_oh",
				Categories: []string{"no", "yes"},
			},
			&model.Concat{Name: "feat", In: []string{"scaled", "asthma_oh", "hyper_oh"}, Out: "F"},
			&model.TreeEnsemble{
				Name: "forest", In: "F", OutLabel: "label", OutScore: "score",
				Trees: []model.Tree{t1, t2}, Task: model.Classification,
				Algo: model.RandomForest, Features: 6,
			},
		},
		Outputs: []string{"label", "score"},
	}
}

// adaptiveTables builds a 6000-row patients table and a 3000-row cohort
// whose grp column holds exactly 10 "rare" rows against 2990 "common"
// ones: the estimator prices grp = 'rare' at 1500 rows (two distinct
// values, uniform assumption), off from the truth by 150x.
func adaptiveTables() (patients, cohort *data.Table) {
	const n, m = 6000, 3000
	ids := make([]int64, n)
	age := make([]float64, n)
	bpm := make([]float64, n)
	asthma := make([]string, n)
	hyper := make([]string, n)
	for i := 0; i < n; i++ {
		ids[i] = int64(i + 1)
		age[i] = float64(20 + i%60)
		bpm[i] = float64(60 + (i*7)%70)
		if i%2 == 0 {
			asthma[i] = "yes"
		} else {
			asthma[i] = "no"
		}
		if i%3 == 0 {
			hyper[i] = "yes"
		} else {
			hyper[i] = "no"
		}
	}
	patients = data.MustNewTable("patients",
		data.NewInt("id", ids),
		data.NewFloat("age", age),
		data.NewFloat("bpm", bpm),
		data.NewString("asthma", asthma),
		data.NewString("hypertension", hyper),
	)
	cids := make([]int64, m)
	grp := make([]string, m)
	for i := 0; i < m; i++ {
		cids[i] = int64(i + 1)
		// Ten rare rows with mixed parity, so the joined survivors span
		// both asthma groups (patients alternate asthma by id parity).
		if i%600 == 0 || i%600 == 301 {
			grp[i] = "rare"
		} else {
			grp[i] = "common"
		}
	}
	cohort = data.MustNewTable("cohort",
		data.NewInt("cid", cids),
		data.NewString("grp", grp),
	)
	return patients, cohort
}

// adaptiveQuery joins the skew-filtered cohort (the hash-join build side)
// against patients and predicts over the survivors. The filter sits below
// the join inside its own CTE, so the join-build breaker is where the
// misestimate becomes observable. d.grp is selected so the cohort side
// contributes a used column — otherwise the FK join-elimination rule
// would remove the join (and the breaker) entirely.
const adaptiveQuery = `
WITH c AS (SELECT * FROM cohort WHERE grp = 'rare'),
     d AS (SELECT * FROM patients AS pa JOIN c AS co ON pa.id = co.cid)
SELECT d.id, d.grp, p.score
FROM PREDICT(MODEL = risk_rf, DATA = d) WITH (score FLOAT) AS p`

func adaptiveSession(t testing.TB, options ...Option) *Session {
	t.Helper()
	s := NewSession(options...)
	patients, cohort := adaptiveTables()
	s.RegisterTable(patients)
	s.RegisterTable(cohort)
	if err := s.RegisterModel(adaptiveForest()); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestAdaptiveSwitchMatchesSerial(t *testing.T) {
	// Baseline: serial, non-adaptive. CalibratedRule keeps a small
	// forest on the ML runtime, so this is the execution path the adaptive
	// sessions must switch INTO — byte-identity then proves both that the
	// switch landed and that it did not perturb the results.
	base, err := adaptiveSession(t).Query(adaptiveQuery)
	if err != nil {
		t.Fatal(err)
	}
	if base.Table.NumRows() == 0 || base.Table.NumRows() >= 100 {
		t.Fatalf("baseline rows = %d, want a small non-empty result", base.Table.NumRows())
	}
	if base.Adaptive != nil {
		t.Fatal("non-adaptive session carries runtime stats")
	}
	dops := []int{1, 2, 4}
	if n := runtime.NumCPU(); n > 4 {
		dops = append(dops, n)
	}
	for _, dop := range dops {
		t.Run(fmt.Sprintf("dop=%d", dop), func(t *testing.T) {
			s := adaptiveSession(t, WithStrategy(dnnForEnsembles{}), WithAdaptive(), WithParallelism(dop))
			res, err := s.Query(adaptiveQuery)
			if err != nil {
				t.Fatal(err)
			}
			if res.Adaptive == nil {
				t.Fatal("adaptive session returned no runtime stats")
			}
			// The plan-time choice is MLtoDNN; the observed 10-row predict
			// input must switch it to the runtime.
			var switched bool
			for _, sw := range res.Adaptive.Switches() {
				if sw.Point == "predict" && sw.From == "MLtoDNN" && sw.To == "none" {
					switched = true
				}
			}
			if !switched {
				t.Fatalf("no predict switch fired; switches = %+v, observations = %+v",
					res.Adaptive.Switches(), res.Adaptive.Observations())
			}
			// The trigger evidence: a join-build observation whose truth is
			// far below its estimate.
			var observed bool
			for _, o := range res.Adaptive.Observations() {
				if o.Point == "join_build" && o.Observed == 10 && o.Estimated > 100 {
					observed = true
				}
			}
			if !observed {
				t.Fatalf("missing join_build misestimate; observations = %+v",
					res.Adaptive.Observations())
			}
			assertResultIdentical(t, base, res)
		})
	}
}

// TestAdaptiveGroupedMatchesSerial drives the same skewed workload through
// the grouped-aggregation and sort breakers: the group merge and the sort
// merge record observations, and the ordered grouped output stays
// byte-identical to the serial non-adaptive session at every DOP.
func TestAdaptiveGroupedMatchesSerial(t *testing.T) {
	query := `
WITH c AS (SELECT * FROM cohort WHERE grp = 'rare'),
     d AS (SELECT * FROM patients AS pa JOIN c AS co ON pa.id = co.cid)
SELECT d.asthma, d.grp, AVG(p.score) AS avg_score
FROM PREDICT(MODEL = risk_rf, DATA = d) WITH (score FLOAT) AS p
GROUP BY d.asthma, d.grp
ORDER BY AVG(p.score) DESC`
	base, err := adaptiveSession(t).Query(query)
	if err != nil {
		t.Fatal(err)
	}
	if base.Table.NumRows() != 2 {
		t.Fatalf("baseline groups = %d, want 2", base.Table.NumRows())
	}
	for _, dop := range []int{1, 4} {
		s := adaptiveSession(t, WithStrategy(dnnForEnsembles{}), WithAdaptive(), WithParallelism(dop))
		res, err := s.Query(query)
		if err != nil {
			t.Fatalf("dop=%d: %v", dop, err)
		}
		if res.Adaptive == nil {
			t.Fatalf("dop=%d: no runtime stats", dop)
		}
		points := map[string]bool{}
		for _, o := range res.Adaptive.Observations() {
			points[o.Point] = true
		}
		for _, want := range []string{"join_build", "group_merge", "sort_merge"} {
			if !points[want] {
				t.Errorf("dop=%d: no %s observation; have %+v", dop, want, res.Adaptive.Observations())
			}
		}
		assertResultIdentical(t, base, res)
	}
}

// TestMemoryBudgetSpillsMatchInMemory drives the whole engine path: a
// session memory budget of one byte forces the join build, the
// grouped-aggregation merge and the sort to spill, and the results must
// stay byte-identical to the unbudgeted in-memory execution — serial and
// parallel — with the spill volume surfaced on the Result and every temp
// file gone when Query returns.
func TestMemoryBudgetSpillsMatchInMemory(t *testing.T) {
	query := `
WITH c AS (SELECT * FROM cohort),
     d AS (SELECT * FROM patients AS pa JOIN c AS co ON pa.id = co.cid)
SELECT d.asthma, d.grp, AVG(p.score) AS avg_score, COUNT(*) AS n
FROM PREDICT(MODEL = risk_rf, DATA = d) WITH (score FLOAT) AS p
GROUP BY d.asthma, d.grp
ORDER BY avg_score DESC, d.asthma`
	base, err := adaptiveSession(t).Query(query)
	if err != nil {
		t.Fatal(err)
	}
	if base.SpilledBytes != 0 {
		t.Fatalf("unbudgeted query reported %d spilled bytes", base.SpilledBytes)
	}
	for _, dop := range []int{1, 4} {
		dir := t.TempDir()
		s := adaptiveSession(t, WithGlobalMemoryBudget(1, dir), WithParallelism(dop))
		res, err := s.Query(query)
		if err != nil {
			t.Fatalf("dop=%d: %v", dop, err)
		}
		if res.SpilledBytes == 0 {
			t.Fatalf("dop=%d: one-byte budget did not spill", dop)
		}
		assertResultIdentical(t, base, res)
		// The engine's deferred budget cleanup ran before Query returned.
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(ents) != 0 {
			t.Fatalf("dop=%d: %d spill files outlived the query", dop, len(ents))
		}
	}
}

// TestAdaptiveLimitDoesNotMisTrigger is the regression test for the PR 7
// caveat: under a LIMIT, the parallel per-worker sort runs are truncated
// to their top-k windows before the merge, so the merged row count is far
// below the (accurate) plan-time estimate. That observation must be
// recorded as "sort_merge_truncated" and excluded from re-optimization —
// a ranking query with correct estimates must not fire any switch.
func TestAdaptiveLimitDoesNotMisTrigger(t *testing.T) {
	query := `
WITH d AS (SELECT * FROM patients)
SELECT d.id, p.score
FROM PREDICT(MODEL = risk_rf, DATA = d) WITH (score FLOAT) AS p
ORDER BY p.score DESC, d.id
LIMIT 7`
	base, err := adaptiveSession(t).Query(query)
	if err != nil {
		t.Fatal(err)
	}
	if base.Table.NumRows() != 7 {
		t.Fatalf("baseline rows = %d, want 7", base.Table.NumRows())
	}
	s := adaptiveSession(t, WithAdaptive(), WithParallelism(4))
	res, err := s.Query(query)
	if err != nil {
		t.Fatal(err)
	}
	if res.Adaptive == nil {
		t.Fatal("adaptive session returned no runtime stats")
	}
	var truncated bool
	for _, o := range res.Adaptive.Observations() {
		switch o.Point {
		case "sort_merge_truncated":
			truncated = true
			if o.Observed >= o.Estimated {
				t.Errorf("truncated merge observed %v >= estimated %v — fixture not truncating", o.Observed, o.Estimated)
			}
		case "sort_merge":
			t.Errorf("LIMIT merge recorded as %q (estimated %v, observed %v); must be sort_merge_truncated",
				o.Point, o.Estimated, o.Observed)
		}
	}
	if !truncated {
		t.Fatalf("no sort_merge_truncated observation; have %+v", res.Adaptive.Observations())
	}
	// The estimates are accurate everywhere else, so no cardinality-driven
	// switch may fire — the truncated count is the only large
	// "misestimate" and it is inert. (An "exchange_dop" clamp to the
	// morsels actually available is legitimate and unrelated.)
	for _, sw := range res.Adaptive.Switches() {
		if sw.Point != "exchange_dop" {
			t.Errorf("spurious switch %+v from a limit-truncated observation", sw)
		}
	}
	if adj, trigger := res.Adaptive.Reoptimize(100); trigger || adj != 100 {
		t.Errorf("Reoptimize(100) = (%v, %v), want (100, false)", adj, trigger)
	}
	assertResultIdentical(t, base, res)
}

// assertResultIdentical compares two results byte-for-byte (AsString
// round-trips every column type exactly, including float64 values).
func assertResultIdentical(t *testing.T, want, got *Result) {
	t.Helper()
	if got.Table.NumRows() != want.Table.NumRows() {
		t.Fatalf("rows = %d, want %d", got.Table.NumRows(), want.Table.NumRows())
	}
	for _, wc := range want.Table.Cols {
		gc := got.Table.Col(wc.Name)
		if gc == nil {
			t.Fatalf("missing column %q", wc.Name)
		}
		for i := 0; i < wc.Len(); i++ {
			if wc.AsString(i) != gc.AsString(i) {
				t.Fatalf("column %q row %d: %s != %s", wc.Name, i, gc.AsString(i), wc.AsString(i))
			}
		}
	}
}
