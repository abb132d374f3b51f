package opt_test

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"raven/internal/data"
	"raven/internal/datagen"
	"raven/internal/engine"
	"raven/internal/ir"
	"raven/internal/model"
	"raven/internal/opt"
	"raven/internal/sqlparse"
	"raven/internal/testfix"
	"raven/internal/train"
)

// bigCovidCatalog registers replicated covid tables and the fixture model.
func bigCovidCatalog(t *testing.T, factor int) *engine.Catalog {
	t.Helper()
	cat := engine.NewCatalog()
	pi, pt, bt := testfix.CovidTables()
	cat.RegisterTable(data.Replicate(pi, factor, "id"))
	cat.RegisterTable(data.Replicate(pt, factor, "id"))
	cat.RegisterTable(data.Replicate(bt, factor, "id"))
	if err := cat.RegisterModel(testfix.CovidPipeline()); err != nil {
		t.Fatal(err)
	}
	return cat
}

func planCovid(t *testing.T, cat *engine.Catalog) *ir.Graph {
	t.Helper()
	g, err := sqlparse.ParseAndPlan(testfix.CovidQuery, cat)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// runPlan executes and returns the result table sorted by d.id.
func runPlan(t *testing.T, g *ir.Graph, cat *engine.Catalog) *data.Table {
	t.Helper()
	res, err := engine.Run(g, cat, engine.Local)
	if err != nil {
		t.Fatal(err)
	}
	return sortByCol(res.Table, "d.id")
}

func sortByCol(tb *data.Table, col string) *data.Table {
	c := tb.Col(col)
	if c == nil {
		return tb
	}
	idx := make([]int, tb.NumRows())
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return c.AsFloat(idx[a]) < c.AsFloat(idx[b]) })
	return tb.Gather(idx)
}

func tablesEqual(a, b *data.Table) bool {
	if a.NumRows() != b.NumRows() || a.NumCols() != b.NumCols() {
		return false
	}
	for _, ca := range a.Cols {
		cb := b.Col(ca.Name)
		if cb == nil {
			return false
		}
		for i := 0; i < ca.Len(); i++ {
			if ca.AsString(i) != cb.AsString(i) {
				return false
			}
		}
	}
	return true
}

func TestOptimizedPlanSameResults(t *testing.T) {
	cat := bigCovidCatalog(t, 10)
	g := planCovid(t, cat)
	baseline := runPlan(t, g, cat)

	for _, opts := range []opt.Options{
		opt.NoOpt(),
		{PredicatePruning: true, EngineOnly: true, AssumeFK: true},
		{ModelProjection: true, EngineOnly: true, AssumeFK: true},
		opt.DefaultOptions(),
		func() opt.Options {
			o := opt.DefaultOptions()
			o.Strategy = opt.FixedStrategy{C: opt.ChoiceSQL}
			return o
		}(),
		// The MLtoDNN path computes in float32 and is compared with a
		// tolerance in TestMLtoDNNTargets instead.
	} {
		og, rep, err := opt.New(cat, opts).Optimize(g)
		if err != nil {
			t.Fatalf("opts %+v: %v", opts, err)
		}
		got := runPlan(t, og, cat)
		if !tablesEqual(baseline, got) {
			t.Fatalf("opts %+v changed results (report: %s)\nbaseline:\n%v\ngot:\n%v",
				opts, rep, baseline, got)
		}
	}
}

func TestPredicatePruningEffects(t *testing.T) {
	cat := bigCovidCatalog(t, 1)
	g := planCovid(t, cat)
	og, rep, err := opt.New(cat, opt.Options{PredicatePruning: true, EngineOnly: true}).Optimize(g)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.DidFire("predicate-based-model-pruning") {
		t.Fatalf("rule did not fire: %s", rep)
	}
	// asthma = 'yes' becomes a constant input.
	if len(rep.ConstantInputs) != 1 || rep.ConstantInputs[0] != "asthma" {
		t.Fatalf("constant inputs = %v", rep.ConstantInputs)
	}
	pr := ir.Find(og.Root, func(n *ir.Node) bool { return n.Kind == ir.KindPredict })
	if _, bound := pr.InputMap["asthma"]; bound {
		t.Fatal("asthma still bound after constant folding")
	}
	// The tree root tested asthma_yes; after pruning the root must test a
	// different feature and the tree must shrink.
	ens := pr.Pipeline.FinalModel().(*model.TreeEnsemble)
	if ens.TotalNodes() >= 11 {
		t.Fatalf("tree not pruned: %d nodes", ens.TotalNodes())
	}
	if rep.TreeNodesPruned == 0 {
		t.Fatal("report did not count pruned nodes")
	}
}

func TestOutputPredicatePruning(t *testing.T) {
	// Purpose-built tree: the left subtree's leaves all fail score > 0.5
	// and must collapse into a single failing leaf.
	tree := model.Tree{Nodes: []model.TreeNode{
		{Feature: 0, Threshold: 0, Left: 1, Right: 2},
		{Feature: 1, Threshold: 0, Left: 3, Right: 4},
		{Feature: 1, Threshold: 0, Left: 5, Right: 6},
		{Feature: -1, Value: 0.1},
		{Feature: -1, Value: 0.2},
		{Feature: -1, Value: 0.9},
		{Feature: -1, Value: 0.4},
	}}
	p := &model.Pipeline{
		Name:   "dt",
		Inputs: []model.Input{{Name: "a"}, {Name: "b"}},
		Ops: []model.Operator{
			&model.Concat{Name: "c", In: []string{"a", "b"}, Out: "F"},
			&model.TreeEnsemble{Name: "m", In: "F", OutLabel: "label", OutScore: "score",
				Trees: []model.Tree{tree}, Task: model.Classification,
				Algo: model.DecisionTree, Features: 2},
		},
		Outputs: []string{"label", "score"},
	}
	cat := engine.NewCatalog()
	tb := data.MustNewTable("t",
		data.NewFloat("a", []float64{-1, -1, 1, 1}),
		data.NewFloat("b", []float64{-1, 1, -1, 1}),
	)
	cat.RegisterTable(tb)
	if err := cat.RegisterModel(p); err != nil {
		t.Fatal(err)
	}
	g, err := sqlparse.ParseAndPlan(
		"SELECT d.a, p.score FROM PREDICT(MODEL = dt, DATA = t AS d) WITH (score FLOAT) AS p WHERE p.score > 0.5", cat)
	if err != nil {
		t.Fatal(err)
	}
	base := runPlan(t, g, cat)
	og, rep, err := opt.New(cat, opt.Options{PredicatePruning: true, EngineOnly: true}).Optimize(g)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.DidFire("output-predicate-pruning") {
		t.Fatalf("output pruning did not fire: %s", rep)
	}
	pr := ir.Find(og.Root, func(n *ir.Node) bool { return n.Kind == ir.KindPredict })
	ens := pr.Pipeline.FinalModel().(*model.TreeEnsemble)
	if ens.TotalNodes() >= 7 {
		t.Fatalf("tree not collapsed: %d nodes", ens.TotalNodes())
	}
	got := runPlan(t, og, cat)
	if !tablesEqual(base, got) {
		t.Fatalf("output pruning changed results\nbase:\n%v\ngot:\n%v", base, got)
	}
}

func TestModelProjectionEffects(t *testing.T) {
	cat := bigCovidCatalog(t, 1)
	g := planCovid(t, cat)
	o := opt.DefaultOptions()
	og, rep, err := opt.New(cat, o).Optimize(g)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.DidFire("model-projection-pushdown") {
		t.Fatalf("model projection did not fire: %s", rep)
	}
	// After asthma=yes pruning, bpm becomes unused and must be removed
	// from the pipeline inputs entirely.
	pr := ir.Find(og.Root, func(n *ir.Node) bool { return n.Kind == ir.KindPredict })
	for _, in := range pr.Pipeline.Inputs {
		if in.Name == "bpm" {
			t.Fatalf("bpm survived projection pushdown: %v", pr.Pipeline.InputNames())
		}
	}
	// The pulmonary_test join only provided bpm → join eliminated; the
	// blood_test join provided nothing → eliminated as well.
	if rep.EliminatedJoins != 2 {
		t.Fatalf("eliminated joins = %d, want 2\n%s", rep.EliminatedJoins, og.Explain())
	}
	// The patient_info scan must not read bpm-irrelevant columns.
	joins := ir.FindAll(og.Root, func(n *ir.Node) bool { return n.Kind == ir.KindJoin })
	if len(joins) != 0 {
		t.Fatalf("joins remain: %d", len(joins))
	}
}

func TestOHECategoriesRestricted(t *testing.T) {
	// After pruning with asthma=yes, the hyper_no feature is unused; the
	// hypertension OHE must shrink to the used category only.
	cat := bigCovidCatalog(t, 1)
	g := planCovid(t, cat)
	og, _, err := opt.New(cat, opt.DefaultOptions()).Optimize(g)
	if err != nil {
		t.Fatal(err)
	}
	pr := ir.Find(og.Root, func(n *ir.Node) bool { return n.Kind == ir.KindPredict })
	var ohe *model.OneHotEncoder
	for _, op := range pr.Pipeline.Ops {
		if o, ok := op.(*model.OneHotEncoder); ok {
			ohe = o
		}
	}
	if ohe == nil {
		t.Fatalf("no OHE left in pipeline:\n%s", pr.Pipeline)
	}
	if !reflect.DeepEqual(ohe.Categories, []string{"yes"}) {
		t.Fatalf("OHE categories = %v, want [yes]", ohe.Categories)
	}
}

func TestIntervalAlgebra(t *testing.T) {
	iv := opt.Unbounded()
	iv = iv.Intersect(opt.Interval{Lo: 3, Hi: math.Inf(1), LoStrict: true})
	iv = iv.Intersect(opt.Interval{Lo: math.Inf(-1), Hi: 10})
	if iv.Lo != 3 || !iv.LoStrict || iv.Hi != 10 || iv.HiStrict {
		t.Fatalf("intersect = %+v", iv)
	}
	if !iv.AlwaysRight(3) {
		t.Fatal("(3,10] must always be right of threshold 3")
	}
	if iv.AlwaysRight(4) || iv.AlwaysLeft(9) {
		t.Fatal("interval straddles thresholds 4 and 9")
	}
	if !iv.AlwaysLeft(10) {
		t.Fatal("(3,10] must be left of threshold 10")
	}
	af := opt.Interval{Lo: 0, Hi: 10}.Affine(5, 2)
	if af.Lo != -10 || af.Hi != 10 {
		t.Fatalf("affine = %+v", af)
	}
	neg := opt.Interval{Lo: 0, Hi: 10, HiStrict: true}.Affine(0, -1)
	if neg.Lo != -10 || !neg.LoStrict || neg.Hi != 0 {
		t.Fatalf("negative-scale affine = %+v", neg)
	}
	if !opt.Point(4).IsPoint() || opt.Unbounded().IsPoint() {
		t.Fatal("IsPoint wrong")
	}
}

func TestPruneTreeWithIntervalsSound(t *testing.T) {
	// Property: for inputs satisfying the interval constraints, pruned and
	// original trees agree.
	pipe := testfix.CovidPipeline()
	ens := pipe.FinalModel().(*model.TreeEnsemble)
	ivs := make([]opt.Interval, 6)
	for i := range ivs {
		ivs[i] = opt.Unbounded()
	}
	ivs[testfix.FAsthmaYes] = opt.Point(1)
	ivs[testfix.FAsthmaNo] = opt.Point(0)
	pruned, changed := opt.PruneTreeWithIntervalsForTest(&ens.Trees[0], ivs)
	if !changed {
		t.Fatal("expected pruning")
	}
	if len(pruned.Nodes) >= len(ens.Trees[0].Nodes) {
		t.Fatal("pruned tree is not smaller")
	}
	f := func(age, bpm float64, hyper bool) bool {
		if math.IsNaN(age) || math.IsNaN(bpm) {
			return true
		}
		x := make([]float64, 6)
		x[testfix.FAge] = age
		x[testfix.FBPM] = bpm
		x[testfix.FAsthmaYes] = 1
		if hyper {
			x[testfix.FHyperYes] = 1
		} else {
			x[testfix.FHyperNo] = 1
		}
		return ens.Trees[0].Eval(x) == pruned.Eval(x)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestMLtoSQLMatchesRuntime(t *testing.T) {
	cat := bigCovidCatalog(t, 5)
	g := planCovid(t, cat)
	base := runPlan(t, g, cat)
	o := opt.Options{EngineOnly: true, AssumeFK: true, Strategy: opt.FixedStrategy{C: opt.ChoiceSQL}}
	og, rep, err := opt.New(cat, o).Optimize(g)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Choice != opt.ChoiceSQL || rep.SQLSize == 0 {
		t.Fatalf("MLtoSQL not applied: %s", rep)
	}
	pr := ir.Find(og.Root, func(n *ir.Node) bool { return n.Kind == ir.KindPredict })
	if pr.Target != ir.TargetSQL || len(pr.SQLExprs) == 0 {
		t.Fatal("predict node not retargeted to SQL")
	}
	got := runPlan(t, og, cat)
	if !tablesEqual(base, got) {
		t.Fatalf("MLtoSQL changed results\nbase:\n%v\ngot:\n%v", base, got)
	}
}

func TestMLtoSQLUnsupportedFallsBack(t *testing.T) {
	// A pipeline with a Normalizer cannot fold; the strategy choice must
	// fall back to the ML runtime.
	cat := engine.NewCatalog()
	tb := data.MustNewTable("t",
		data.NewFloat("a", []float64{1, 2, 3}),
		data.NewFloat("b", []float64{4, 5, 6}),
	)
	cat.RegisterTable(tb)
	p := &model.Pipeline{
		Name:   "norm",
		Inputs: []model.Input{{Name: "a"}, {Name: "b"}},
		Ops: []model.Operator{
			&model.Concat{Name: "c", In: []string{"a", "b"}, Out: "v"},
			&model.Normalizer{Name: "n", In: "v", Out: "F", Norm: "l2"},
			&model.LinearModel{Name: "m", In: "F", OutLabel: "label", OutScore: "score",
				Coef: []float64{1, 1}, Task: model.Classification},
		},
		Outputs: []string{"label", "score"},
	}
	if err := cat.RegisterModel(p); err != nil {
		t.Fatal(err)
	}
	g, err := sqlparse.ParseAndPlan(
		"SELECT d.a, p.score FROM PREDICT(MODEL = norm, DATA = t AS d) WITH (score FLOAT) AS p", cat)
	if err != nil {
		t.Fatal(err)
	}
	o := opt.DefaultOptions()
	o.Strategy = opt.FixedStrategy{C: opt.ChoiceSQL}
	og, rep, err := opt.New(cat, o).Optimize(g)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Choice != opt.ChoiceNone {
		t.Fatalf("choice = %v, want fallback to none", rep.Choice)
	}
	if _, err := engine.Run(og, cat, engine.Local); err != nil {
		t.Fatal(err)
	}
}

func TestDataInducedGlobalPrunes(t *testing.T) {
	// All patients are older than 60 → the age split (scaled threshold
	// 0.6 ⇔ age 110... choose data so a branch is provably dead).
	cat := engine.NewCatalog()
	tb := data.MustNewTable("patients",
		data.NewInt("id", []int64{1, 2}),
		data.NewFloat("age", []float64{20, 30}), // scaled: -0.3, -0.2 → always <= 0.6
		data.NewFloat("bpm", []float64{70, 80}),
		data.NewString("asthma", []string{"yes", "yes"}),
		data.NewString("hypertension", []string{"no", "yes"}),
	)
	cat.RegisterTable(tb)
	if err := cat.RegisterModel(testfix.CovidPipeline()); err != nil {
		t.Fatal(err)
	}
	g, err := sqlparse.ParseAndPlan(`
SELECT d.id, p.score FROM PREDICT(MODEL = covid_risk, DATA = patients AS d) WITH (score FLOAT) AS p`, cat)
	if err != nil {
		t.Fatal(err)
	}
	base := runPlan(t, g, cat)
	o := opt.Options{DataInduced: true, EngineOnly: true}
	og, rep, err := opt.New(cat, o).Optimize(g)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.DidFire("data-induced-pruning") {
		t.Fatalf("data-induced rule did not fire: %s", rep)
	}
	got := runPlan(t, og, cat)
	if !tablesEqual(base, got) {
		t.Fatal("data-induced pruning changed results")
	}
}

func TestDataInducedPerPartition(t *testing.T) {
	// Partition patients by an age group column; each partition gets its
	// own pruned model.
	rng := rand.New(rand.NewSource(5))
	n := 200
	ids := make([]int64, n)
	age := make([]float64, n)
	bpm := make([]float64, n)
	asthma := make([]string, n)
	hyper := make([]string, n)
	group := make([]string, n)
	for i := 0; i < n; i++ {
		ids[i] = int64(i)
		if i%2 == 0 {
			age[i] = 20 + 30*rng.Float64() // young: scaled <= 0.0
			group[i] = "young"
		} else {
			age[i] = 115 + 10*rng.Float64() // old: scaled > 0.65 → right branch
			group[i] = "old"
		}
		bpm[i] = 60 + 60*rng.Float64()
		asthma[i] = []string{"no", "yes"}[rng.Intn(2)]
		hyper[i] = []string{"no", "yes"}[rng.Intn(2)]
	}
	tb := data.MustNewTable("patients",
		data.NewInt("id", ids), data.NewFloat("age", age), data.NewFloat("bpm", bpm),
		data.NewString("asthma", asthma), data.NewString("hypertension", hyper),
		data.NewString("agegroup", group),
	)
	pt, err := data.PartitionBy(tb, "agegroup")
	if err != nil {
		t.Fatal(err)
	}
	cat := engine.NewCatalog()
	cat.RegisterPartitioned(pt)
	if err := cat.RegisterModel(testfix.CovidPipeline()); err != nil {
		t.Fatal(err)
	}
	g, err := sqlparse.ParseAndPlan(`
SELECT d.id, p.score FROM PREDICT(MODEL = covid_risk, DATA = patients AS d) WITH (score FLOAT) AS p`, cat)
	if err != nil {
		t.Fatal(err)
	}
	base := runPlan(t, g, cat)
	og, rep, err := opt.New(cat, opt.DefaultOptions()).Optimize(g)
	if err != nil {
		t.Fatal(err)
	}
	if rep.PartitionModels != 2 {
		t.Fatalf("partition models = %d, want 2\n%s", rep.PartitionModels, rep)
	}
	if len(rep.PrunedColumnsPerPartition) != 2 {
		t.Fatalf("pruned columns per partition = %v", rep.PrunedColumnsPerPartition)
	}
	got := runPlan(t, og, cat)
	if !tablesEqual(base, got) {
		t.Fatalf("per-partition plans changed results\nbase:\n%v\ngot:\n%v", base, got)
	}
	// Each per-partition pipeline should differ from the original (the
	// old partition's model prunes the age split entirely).
	union := ir.Find(og.Root, func(n *ir.Node) bool { return n.Kind == ir.KindUnion })
	if union == nil {
		t.Fatalf("no union in plan:\n%s", og.Explain())
	}
	preds := ir.FindAll(union, func(n *ir.Node) bool { return n.Kind == ir.KindPredict })
	if len(preds) != 2 {
		t.Fatalf("per-partition predicts = %d", len(preds))
	}
	orig := testfix.CovidPipeline().FinalModel().(*model.TreeEnsemble).TotalNodes()
	prunedAny := false
	for _, p := range preds {
		if p.Pipeline.FinalModel().(*model.TreeEnsemble).TotalNodes() < orig {
			prunedAny = true
		}
	}
	if !prunedAny {
		t.Fatal("no per-partition model was pruned")
	}
}

func TestZonePredicatePushdown(t *testing.T) {
	cat := bigCovidCatalog(t, 1)
	g := planCovid(t, cat)
	og, rep, err := opt.New(cat, opt.DefaultOptions()).Optimize(g)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.DidFire("zone-predicate-pushdown") {
		t.Fatalf("zone pushdown did not fire: %s\n%s", rep, og.Explain())
	}
	scan := ir.Find(og.Root, func(n *ir.Node) bool {
		return n.Kind == ir.KindScan && n.Table == "patient_info"
	})
	if scan == nil || len(scan.Prune) == 0 {
		t.Fatalf("patient_info scan has no zone predicates:\n%s", og.Explain())
	}
}

func TestExtractFeatures(t *testing.T) {
	p := testfix.CovidPipeline()
	f := opt.ExtractFeatures(p)
	if f.Get("num_inputs") != 4 {
		t.Fatalf("num_inputs = %v", f.Get("num_inputs"))
	}
	if f.Get("num_features") != 6 {
		t.Fatalf("num_features = %v", f.Get("num_features"))
	}
	if f.Get("num_onehot") != 2 || f.Get("mean_ohe_width") != 2 || f.Get("max_ohe_width") != 2 {
		t.Fatalf("ohe stats wrong: %+v", f.V)
	}
	if f.Get("is_dt") != 1 || f.Get("is_linear") != 0 {
		t.Fatal("model type flags wrong")
	}
	if f.Get("num_trees") != 1 || f.Get("max_tree_depth") != 3 {
		t.Fatalf("tree stats wrong: depth=%v", f.Get("max_tree_depth"))
	}
	// The fixture tree never tests asthma_no (feature 2): 1/6 unused.
	if math.Abs(f.Get("frac_unused_features")-1.0/6) > 1e-9 {
		t.Fatalf("unused frac = %v", f.Get("frac_unused_features"))
	}
	if !math.IsNaN(f.Get("nonexistent")) {
		t.Fatal("unknown feature should be NaN")
	}
	if len(f.Slice()) != opt.NumFeatures {
		t.Fatal("Slice length wrong")
	}
	// Sparse linear model: unused fraction reflects zero weights.
	lin := &model.Pipeline{
		Name:   "l",
		Inputs: []model.Input{{Name: "a"}, {Name: "b"}},
		Ops: []model.Operator{
			&model.Concat{Name: "c", In: []string{"a", "b"}, Out: "F"},
			&model.LinearModel{Name: "m", In: "F", OutScore: "score",
				Coef: []float64{0, 2}, Task: model.Regression},
		},
		Outputs: []string{"score"},
	}
	lf := opt.ExtractFeatures(lin)
	if lf.Get("is_linear") != 1 || lf.Get("frac_unused_features") != 0.5 {
		t.Fatalf("linear features wrong: %v", lf.V)
	}
}

func TestFixedStrategy(t *testing.T) {
	s := opt.FixedStrategy{C: opt.ChoiceDNN}
	if s.Choose(nil) != opt.ChoiceDNN {
		t.Fatal("fixed strategy must return its choice")
	}
	if !strings.Contains(s.Name(), "MLtoDNN") {
		t.Fatalf("name = %s", s.Name())
	}
	if opt.ChoiceNone.String() != "none" || opt.ChoiceSQL.String() != "MLtoSQL" || opt.ChoiceDNN.String() != "MLtoDNN" {
		t.Fatal("choice names")
	}
}

func TestMLtoDNNTargets(t *testing.T) {
	cat := bigCovidCatalog(t, 2)
	g := planCovid(t, cat)
	base := runPlan(t, g, cat)
	o := opt.DefaultOptions()
	o.Strategy = opt.FixedStrategy{C: opt.ChoiceDNN}
	og, rep, err := opt.New(cat, o).Optimize(g)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Choice != opt.ChoiceDNN {
		t.Fatalf("choice = %v", rep.Choice)
	}
	pr := ir.Find(og.Root, func(n *ir.Node) bool { return n.Kind == ir.KindPredict })
	if pr.Target != ir.TargetDNN {
		t.Fatalf("target = %v", pr.Target)
	}
	got := runPlan(t, og, cat)
	// float32 may round scores; compare with tolerance.
	if got.NumRows() != base.NumRows() {
		t.Fatalf("row count changed: %d vs %d", base.NumRows(), got.NumRows())
	}
	for i := 0; i < base.NumRows(); i++ {
		if math.Abs(base.Col("p.score").F64[i]-got.Col("p.score").F64[i]) > 1e-5 {
			t.Fatalf("score %d drifted", i)
		}
	}
}

// Property: with random predicates, the fully optimized plan matches the
// unoptimized plan row for row.
func TestQuickOptimizerEquivalence(t *testing.T) {
	cat := bigCovidCatalog(t, 8)
	optm := opt.New(cat, func() opt.Options {
		o := opt.DefaultOptions()
		o.Strategy = opt.FixedStrategy{C: opt.ChoiceSQL}
		return o
	}())
	queries := []string{
		`WITH d AS (SELECT * FROM patient_info AS pi JOIN pulmonary_test AS pt ON pi.id = pt.id JOIN blood_test AS bt ON pt.id = bt.id)
		 SELECT d.id, p.score FROM PREDICT(MODEL = covid_risk, DATA = d) WITH (score FLOAT) AS p WHERE d.asthma = 'no'`,
		`WITH d AS (SELECT * FROM patient_info AS pi JOIN pulmonary_test AS pt ON pi.id = pt.id JOIN blood_test AS bt ON pt.id = bt.id)
		 SELECT d.id, p.score FROM PREDICT(MODEL = covid_risk, DATA = d) WITH (score FLOAT) AS p WHERE d.age > 40 AND p.score < 0.8`,
		`WITH d AS (SELECT * FROM patient_info AS pi JOIN pulmonary_test AS pt ON pi.id = pt.id JOIN blood_test AS bt ON pt.id = bt.id)
		 SELECT d.id, p.score FROM PREDICT(MODEL = covid_risk, DATA = d) WITH (score FLOAT) AS p WHERE d.hypertension = 'yes' AND d.age <= 70`,
		`WITH d AS (SELECT * FROM patient_info AS pi JOIN pulmonary_test AS pt ON pi.id = pt.id)
		 SELECT d.id, p.label FROM PREDICT(MODEL = covid_risk, DATA = d) WITH (label FLOAT) AS p WHERE p.label = 1`,
	}
	for _, q := range queries {
		g, err := sqlparse.ParseAndPlan(q, cat)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		base := runPlan(t, g, cat)
		og, rep, err := optm.Optimize(g)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		got := runPlan(t, og, cat)
		if !tablesEqual(base, got) {
			t.Fatalf("query %q results differ (report %s)\nbase:\n%v\ngot:\n%v", q, rep, base, got)
		}
	}
}

func TestTrainedPipelineOptimizationEquivalence(t *testing.T) {
	// End to end with a *trained* GB pipeline rather than the fixture.
	rng := rand.New(rand.NewSource(31))
	n := 400
	age := make([]float64, n)
	bpm := make([]float64, n)
	flag := make([]string, n)
	label := make([]float64, n)
	ids := make([]int64, n)
	for i := 0; i < n; i++ {
		ids[i] = int64(i)
		age[i] = 20 + 60*rng.Float64()
		bpm[i] = 60 + 60*rng.Float64()
		flag[i] = []string{"a", "b", "c"}[rng.Intn(3)]
		if age[i] > 50 && flag[i] != "c" {
			label[i] = 1
		}
	}
	tb := data.MustNewTable("pts",
		data.NewInt("id", ids), data.NewFloat("age", age), data.NewFloat("bpm", bpm),
		data.NewString("flag", flag), data.NewFloat("label", label))
	pipe, err := train.FitPipeline(tb, train.Spec{
		Name: "gb", Numeric: []string{"age", "bpm"}, Categorical: []string{"flag"},
		Label: "label", Kind: train.KindGradientBoosting, NEstimators: 10, MaxDepth: 3,
		LearningRate: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	cat := engine.NewCatalog()
	cat.RegisterTable(tb)
	if err := cat.RegisterModel(pipe); err != nil {
		t.Fatal(err)
	}
	q := `SELECT d.id, p.score FROM PREDICT(MODEL = gb, DATA = pts AS d) WITH (score FLOAT) AS p WHERE d.flag = 'a' AND d.age > 40`
	g, err := sqlparse.ParseAndPlan(q, cat)
	if err != nil {
		t.Fatal(err)
	}
	base := runPlan(t, g, cat)
	for _, choice := range []opt.Choice{opt.ChoiceNone, opt.ChoiceSQL} {
		o := opt.DefaultOptions()
		o.Strategy = opt.FixedStrategy{C: choice}
		og, rep, err := opt.New(cat, o).Optimize(g)
		if err != nil {
			t.Fatal(err)
		}
		got := runPlan(t, og, cat)
		if got.NumRows() != base.NumRows() {
			t.Fatalf("%v: rows %d vs %d (%s)", choice, got.NumRows(), base.NumRows(), rep)
		}
		for i := 0; i < base.NumRows(); i++ {
			if math.Abs(base.Col("p.score").F64[i]-got.Col("p.score").F64[i]) > 1e-9 {
				t.Fatalf("%v: score %d drifted", choice, i)
			}
		}
	}
}

// TestOptimizeLeavesGlobalStatsUnchanged: GlobalStats is computed once per
// table and shared by every optimization, so no rule may write into it.
// Optimizing every datagen query shape, with and without WHERE conjuncts
// and per-partition plans, must leave each table's statistics deep-equal
// to a copy taken before, and every call must return the one shared map.
func TestOptimizeLeavesGlobalStatsUnchanged(t *testing.T) {
	sets := []func(int, int64) *datagen.Dataset{datagen.CreditCard, datagen.Hospital, datagen.Expedia, datagen.Flights}
	for _, gen := range sets {
		ds := gen(2000, 1)
		t.Run(ds.Name, func(t *testing.T) {
			cat := ds.Catalog()
			pipe, err := ds.Train(train.KindDecisionTree, nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := cat.RegisterModel(pipe); err != nil {
				t.Fatal(err)
			}
			snapshot := map[string]data.TableStats{}
			for _, name := range cat.TableNames() {
				pt, _ := cat.Table(name)
				snapshot[name] = copyStats(pt.GlobalStats())
			}
			where := "d." + ds.Spec.Numeric[0] + " >= 0"
			queries := []string{ds.Query(pipe.Name), ds.Query(pipe.Name, where), ds.AggregateQuery(pipe.Name, where)}
			if len(ds.Spec.Categorical) > 0 {
				queries = append(queries, ds.GroupedAggregateQuery(pipe.Name, where),
					ds.RankedGroupedQuery(pipe.Name, 0.5, 10), ds.OrderedGroupedQuery(pipe.Name, true, where))
			}
			for _, q := range queries {
				g, err := sqlparse.ParseAndPlan(q, cat)
				if err != nil {
					t.Fatalf("%s: %v", q, err)
				}
				opts := opt.DefaultOptions()
				opts.PerPartition = true
				if _, _, err := opt.New(cat, opts).Optimize(g); err != nil {
					t.Fatalf("%s: %v", q, err)
				}
			}
			for name, want := range snapshot {
				pt, _ := cat.Table(name)
				got := pt.GlobalStats()
				if !reflect.DeepEqual(want, got) {
					t.Fatalf("table %s: statistics changed by Optimize", name)
				}
				if reflect.ValueOf(got).Pointer() != reflect.ValueOf(pt.GlobalStats()).Pointer() {
					t.Fatalf("table %s: GlobalStats returned two different maps", name)
				}
			}
		})
	}
}

// copyStats deep-copies table statistics.
func copyStats(s data.TableStats) data.TableStats {
	out := make(data.TableStats, len(s))
	for k, cs := range s {
		cp := *cs
		cp.Distinct = append([]string(nil), cs.Distinct...)
		out[k] = &cp
	}
	return out
}
