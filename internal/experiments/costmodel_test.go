package experiments

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"raven/internal/data"
	"raven/internal/datagen"
	"raven/internal/engine"
	"raven/internal/opt"
	"raven/internal/strategy"
	"raven/internal/testfix"
	"raven/internal/train"
)

// covidQuery is predict over two joined tables: a data-parallel chain the
// cost model divides by DOP, with one ML session at the boundary.
const covidQuery = `
WITH d AS (
  SELECT * FROM patient_info AS pi
  JOIN pulmonary_test AS pt ON pi.id = pt.id
)
SELECT d.id, p.score
FROM PREDICT(MODEL = covid_risk, DATA = d) WITH (score FLOAT) AS p`

// runCovid executes covidQuery unoptimized, under the given profile, on
// the covid fixture replicated the given number of times.
func runCovid(t *testing.T, replicate int, prof engine.Profile) *engine.Result {
	t.Helper()
	cat := engine.NewCatalog()
	pi, pt, bt := testfix.CovidTables()
	cat.RegisterTable(data.Replicate(pi, replicate, "id"))
	cat.RegisterTable(data.Replicate(pt, replicate, "id"))
	cat.RegisterTable(bt)
	if err := cat.RegisterModel(testfix.CovidPipeline()); err != nil {
		t.Fatal(err)
	}
	g, _, err := planQuery(cat, covidQuery, opt.NoOpt())
	if err != nil {
		t.Fatal(err)
	}
	res, err := engine.Run(g, cat, prof)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func reported(t *testing.T, m CostModel, root engine.Operator) time.Duration {
	t.Helper()
	d, err := m.Reported(root)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestProfileOverheadsInReportedTime(t *testing.T) {
	root := runCovid(t, 1, engine.Local).Root
	local := reported(t, CostModel{}, root)
	spark := reported(t, Spark.Cost, root)
	// Spark pays at least the 100ms session init that Local does not.
	if spark < 100*time.Millisecond {
		t.Fatalf("spark reported = %v, expected >= session init", spark)
	}
	if local >= spark {
		t.Fatalf("local (%v) should report less than spark (%v)", local, spark)
	}
}

func TestDOPReducesReportedTime(t *testing.T) {
	// Large enough that parallel work dominates constant overheads.
	root := runCovid(t, 4000, engine.Local).Root
	d1 := reported(t, SQLServerDOP1.Cost, root)
	d16 := reported(t, SQLServerDOP16.Cost, root)
	if d16 >= d1 {
		t.Fatalf("DOP16 (%v) not faster than DOP1 (%v)", d16, d1)
	}
}

func TestPredictPenaltyScalesReportedTime(t *testing.T) {
	root := runCovid(t, 1, engine.Local).Root
	a := reported(t, CostModel{}, root)
	b := reported(t, CostModel{PredictPenalty: 50}, root)
	if b <= a {
		t.Fatalf("penalty did not increase reported time: %v vs %v", a, b)
	}
}

// TestCostModelNamesEveryFigureOperator lowers the query of every figure
// configuration — each dataset, model family, query shape, rule
// combination and cluster profile the Fig functions pass to runQuery — and
// fails on an operator the cost model's switch does not name: a missed
// case must be loud, not a silent full charge.
func TestCostModelNamesEveryFigureOperator(t *testing.T) {
	seen := map[string]bool{}
	check := func(cat *engine.Catalog, sql string, opts opt.Options, cl Cluster) {
		t.Helper()
		g, _, err := planQuery(cat, sql, opts)
		if err != nil {
			t.Fatal(err)
		}
		root, err := engine.Lower(g, cat, cl.Profile)
		if err != nil {
			t.Fatal(err)
		}
		var walk func(op engine.Operator)
		walk = func(op engine.Operator) {
			if _, ok := dataParallel(op); !ok {
				t.Errorf("%s: cost model does not name operator %T", cl.Profile.Name, op)
			}
			name := fmt.Sprintf("%T", op)
			seen[name[strings.LastIndexByte(name, '.')+1:]] = true
			for _, c := range op.Children() {
				walk(c)
			}
		}
		walk(root)
	}
	raven := ravenOptions(strategy.CalibratedRule{})
	combos := []opt.Options{
		comboOptions(false, opt.ChoiceNone), comboOptions(true, opt.ChoiceNone),
		comboOptions(false, opt.ChoiceSQL), comboOptions(true, opt.ChoiceSQL),
		comboOptions(true, opt.ChoiceDNN),
	}

	for _, ds := range datagen.All(400, 3) {
		cat := ds.Catalog()
		models, err := trainFig6(ds, cat)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range models {
			// Figs. 6, 7, 9, 10, 12: the row-returning query on Spark.
			for _, cl := range []Cluster{Spark, SparkSKL, SparkML} {
				check(cat, ds.Query(name), opt.NoOpt(), cl)
			}
			check(cat, ds.Query(name), raven, Spark)
			for _, o := range combos {
				check(cat, ds.Query(name), o, Spark)
			}
			check(cat, ds.Query(name), comboOptions(false, opt.ChoiceDNN), SparkGPU)
			// Fig. 8: the aggregate query on SQL Server and MADlib.
			for _, cl := range []Cluster{SQLServerDOP1, SQLServerDOP16, MADlib} {
				check(cat, ds.AggregateQuery(name), opt.NoOpt(), cl)
			}
			check(cat, ds.AggregateQuery(name), raven, SQLServerDOP16)
		}
	}

	// Fig. 11: per-partition plans over a partitioned Hospital table.
	ds := datagen.Hospital(400, 3)
	pt, err := datagen.HospitalPartitionColumn(ds.Tables[0], "rcount")
	if err != nil {
		t.Fatal(err)
	}
	cat := engine.NewCatalog()
	cat.RegisterPartitioned(pt)
	p, err := ds.Train(train.KindDecisionTree, func(s *train.Spec) { s.MaxDepth = 10 })
	if err != nil {
		t.Fatal(err)
	}
	if err := cat.RegisterModel(p); err != nil {
		t.Fatal(err)
	}
	check(cat, ds.Query(p.Name), ravenOptions(opt.FixedStrategy{C: opt.ChoiceSQL}), Spark)

	// The sweep must have reached both classes and every predict form, or
	// it is not exercising what the figures run.
	for _, want := range []string{"Scan", "Project", "HashJoin", "GroupAggregate", "Union", "PredictOp", "DNNOp"} {
		if !seen[want] {
			t.Errorf("figure sweep never lowered a %s", want)
		}
	}
}

// TestReportedRejectsUnmodeledPlans pins the loud failure: a really
// parallel plan (exchanges) has no modeled time.
func TestReportedRejectsUnmodeledPlans(t *testing.T) {
	prof := engine.Local
	prof.ExecDOP = 4
	res := runCovid(t, 1200, prof)
	if _, err := Spark.Cost.Reported(res.Root); err == nil || !strings.Contains(err.Error(), "Exchange") {
		t.Fatalf("Reported over an exchange plan: err = %v, want an unknown-operator error", err)
	}
}
