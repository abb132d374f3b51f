package engine

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"raven/internal/data"
	"raven/internal/ir"
	"raven/internal/model"
	"raven/internal/relational"
	"raven/internal/testfix"
)

func covidCatalog(t *testing.T) *Catalog {
	t.Helper()
	cat := NewCatalog()
	pi, pt, bt := testfix.CovidTables()
	cat.RegisterTable(pi)
	cat.RegisterTable(pt)
	cat.RegisterTable(bt)
	if err := cat.RegisterModel(testfix.CovidPipeline()); err != nil {
		t.Fatal(err)
	}
	return cat
}

// covidIR builds predict-over-joined-tables IR by hand.
func covidIR(t *testing.T, cat *Catalog) *ir.Graph {
	t.Helper()
	g := &ir.Graph{}
	s1 := g.NewNode(ir.KindScan)
	s1.Table, s1.Alias = "patient_info", "pi"
	s2 := g.NewNode(ir.KindScan)
	s2.Table, s2.Alias = "pulmonary_test", "pt"
	j := g.NewNode(ir.KindJoin, s1, s2)
	j.LeftKey, j.RightKey = "pi.id", "pt.id"
	pr := g.NewNode(ir.KindPredict, j)
	pr.Pipeline = testfix.CovidPipeline()
	pr.InputMap = map[string]string{
		"age": "pi.age", "bpm": "pt.bpm",
		"asthma": "pi.asthma", "hypertension": "pi.hypertension",
	}
	pr.OutputMap = map[string]string{"score": "p.score"}
	pr.KeepInput = true
	out := ir.NewGraph(pr)
	if err := out.Validate(cat); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestCatalogBasics(t *testing.T) {
	cat := covidCatalog(t)
	if _, ok := cat.Table("patient_info"); !ok {
		t.Fatal("table lookup failed")
	}
	if _, ok := cat.Table("ghost"); ok {
		t.Fatal("ghost table found")
	}
	if _, ok := cat.Model("covid_risk"); !ok {
		t.Fatal("model lookup failed")
	}
	if got := cat.TableNames(); len(got) != 3 || got[0] != "blood_test" {
		t.Fatalf("TableNames = %v", got)
	}
	if got := cat.ModelNames(); len(got) != 1 || got[0] != "covid_risk" {
		t.Fatalf("ModelNames = %v", got)
	}
	// Invalid model is rejected.
	bad := &model.Pipeline{Name: "bad", Outputs: []string{"ghost"}}
	if err := cat.RegisterModel(bad); err == nil {
		t.Fatal("invalid model registered")
	}
}

func TestRunPredictEndToEnd(t *testing.T) {
	cat := covidCatalog(t)
	g := covidIR(t, cat)
	res, err := Run(g, cat, Local)
	if err != nil {
		t.Fatal(err)
	}
	if res.Table.NumRows() != 6 {
		t.Fatalf("rows = %d", res.Table.NumRows())
	}
	if res.Table.Col("p.score") == nil {
		t.Fatalf("cols = %v", res.Table.Schema().Names())
	}
	if res.Sessions != 1 {
		t.Fatalf("sessions = %d", res.Sessions)
	}
	if res.PredictBatches < 1 || res.BytesConverted <= 0 {
		t.Fatalf("boundary accounting: batches=%d bytes=%d", res.PredictBatches, res.BytesConverted)
	}
	if res.Wall <= 0 {
		t.Fatal("wall time not positive")
	}
	if res.Root == nil || res.Root.Stats().Rows != 6 {
		t.Fatalf("executed tree not reported: %v", res.Root)
	}
}

// TestResultCountersPinned pins the five boundary counters of
// engine.Result to golden values, serial and under a real exchange; a cold
// run is followed by a warm one on the same catalog. Session counts under
// an exchange depend on how many worker clones the work-conserving
// scheduler engaged, so there they are pinned to a range.
func TestResultCountersPinned(t *testing.T) {
	type counters struct {
		batches, bytes int64
		parts          int
	}
	for _, tc := range []struct {
		name      string
		replicate int
		want      counters
	}{
		{"covid", 1, counters{batches: 1, bytes: 318, parts: 2}},
		{"covid-x1200", 1200, counters{batches: 8, bytes: 381600, parts: 2}},
	} {
		for _, dop := range []int{1, 4} {
			cat := NewCatalog()
			pi, pt, bt := testfix.CovidTables()
			cat.RegisterTable(data.Replicate(pi, tc.replicate, "id"))
			cat.RegisterTable(data.Replicate(pt, tc.replicate, "id"))
			cat.RegisterTable(bt)
			if err := cat.RegisterModel(testfix.CovidPipeline()); err != nil {
				t.Fatal(err)
			}
			g := covidIR(t, cat)
			prof := Local
			prof.ExecDOP = dop
			// The 6-row fixture stays below the exchange threshold, so it
			// runs one chain at any DOP.
			maxSessions := 1
			if tc.replicate > 1 {
				maxSessions = dop
			}
			for _, run := range []string{"cold", "warm"} {
				res, err := Run(g, cat, prof)
				if err != nil {
					t.Fatal(err)
				}
				label := fmt.Sprintf("%s dop=%d %s", tc.name, dop, run)
				got := counters{res.PredictBatches, res.BytesConverted, res.PartitionsScanned}
				if got != tc.want {
					t.Errorf("%s: batches/bytes/partitions = %+v, want %+v", label, got, tc.want)
				}
				if res.Sessions < 1 || res.Sessions > maxSessions {
					t.Errorf("%s: sessions = %d, want within [1,%d]", label, res.Sessions, maxSessions)
				}
				// A fresh catalog initializes every session cold; afterwards
				// at least one comes back warm from the pool.
				if run == "cold" && res.ColdSessions != res.Sessions ||
					run == "warm" && res.ColdSessions >= res.Sessions {
					t.Errorf("%s: cold sessions = %d of %d", label, res.ColdSessions, res.Sessions)
				}
			}
		}
	}
}

// madlib is Local with MADlib's execution style: featurization output is
// materialized before the model runs.
func madlib() Profile {
	p := Local
	p.MaterializeFeaturization = true
	return p
}

func TestMADlibMaterializedMode(t *testing.T) {
	cat := covidCatalog(t)
	g := covidIR(t, cat)
	res, err := Run(g, cat, madlib())
	if err != nil {
		t.Fatal(err)
	}
	// Same predictions as the plain path.
	plain, err := Run(g, cat, Local)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < res.Table.NumRows(); i++ {
		if res.Table.Col("p.score").F64[i] != plain.Table.Col("p.score").F64[i] {
			t.Fatalf("row %d: MADlib mode changed predictions", i)
		}
	}
	// Two sessions: featurization + model.
	if res.Sessions != 2 {
		t.Fatalf("MADlib sessions = %d, want 2", res.Sessions)
	}
}

func TestMADlibColumnLimit(t *testing.T) {
	// A model whose featurization exceeds MaxMaterializedColumns must fail
	// under MaterializeFeaturization (PostgreSQL's column limit) but run
	// fine without it.
	cat := NewCatalog()
	n := 10
	keys := make([]string, n)
	for i := range keys {
		keys[i] = "k0"
	}
	tb := data.MustNewTable("wide", data.NewString("c", keys))
	cat.RegisterTable(tb)
	cats := make([]string, MaxMaterializedColumns+1)
	for i := range cats {
		cats[i] = "k" + string(rune('0'+i%10)) + string(rune('a'+i/10%26)) + string(rune('a'+i/260))
	}
	p := &model.Pipeline{
		Name:   "wideohe",
		Inputs: []model.Input{{Name: "c", Categorical: true}},
		Ops: []model.Operator{
			&model.OneHotEncoder{Name: "e", In: "c", Out: "F", Categories: cats},
			&model.LinearModel{Name: "m", In: "F", OutScore: "score",
				Coef: make([]float64, len(cats)), Task: model.Regression},
		},
		Outputs: []string{"score"},
	}
	if err := cat.RegisterModel(p); err != nil {
		t.Fatal(err)
	}
	g := &ir.Graph{}
	scan := g.NewNode(ir.KindScan)
	scan.Table, scan.Alias = "wide", "d"
	pr := g.NewNode(ir.KindPredict, scan)
	pr.Pipeline = p
	pr.InputMap = map[string]string{"c": "d.c"}
	pr.OutputMap = map[string]string{"score": "s"}
	pr.KeepInput = false
	graph := ir.NewGraph(pr)
	if err := graph.Validate(cat); err != nil {
		t.Fatal(err)
	}
	if _, err := Run(graph, cat, Local); err != nil {
		t.Fatalf("local run failed: %v", err)
	}
	_, err := Run(graph, cat, madlib())
	if err == nil || !strings.Contains(err.Error(), "column") {
		t.Fatalf("expected column-limit error, got %v", err)
	}
}

func TestLowerSQLTarget(t *testing.T) {
	cat := covidCatalog(t)
	g := covidIR(t, cat)
	pr := ir.Find(g.Root, func(n *ir.Node) bool { return n.Kind == ir.KindPredict })
	pr.Target = ir.TargetSQL
	pr.SQLExprs = []relational.NamedExpr{
		{Name: "p.score", E: relational.Num(0.42)},
	}
	res, err := Run(g, cat, Local)
	if err != nil {
		t.Fatal(err)
	}
	if res.Sessions != 0 {
		t.Fatalf("SQL target must not start ML sessions, got %d", res.Sessions)
	}
	if got := res.Table.Col("p.score").F64[0]; got != 0.42 {
		t.Fatalf("score = %v", got)
	}
	// Empty expression list is rejected.
	pr.SQLExprs = nil
	if _, err := Run(g, cat, Local); err == nil {
		t.Fatal("expected error for SQL target without expressions")
	}
}

func TestLowerDNNTargets(t *testing.T) {
	cat := covidCatalog(t)
	g := covidIR(t, cat)
	pr := ir.Find(g.Root, func(n *ir.Node) bool { return n.Kind == ir.KindPredict })
	pr.Target = ir.TargetDNN
	res, err := Run(g, cat, Local)
	if err != nil {
		t.Fatal(err)
	}
	score := res.Table.Col("p.score")
	if score == nil || score.Len() != 6 {
		t.Fatal("bad result")
	}
	// float32 parity with the ML runtime.
	ml, err := Run(covidIR(t, cat), cat, Local)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if math.Abs(score.F64[i]-ml.Table.Col("p.score").F64[i]) > 1e-5 {
			t.Fatalf("row %d drifted", i)
		}
	}
	if res.Sessions != 1 {
		t.Fatalf("sessions = %d", res.Sessions)
	}
}

func TestLowerUnionPerPartition(t *testing.T) {
	// A union of two single-partition scans must cover all rows once.
	tb := data.MustNewTable("t",
		data.NewFloat("v", []float64{1, 2, 3, 4}),
		data.NewString("g", []string{"a", "a", "b", "b"}),
	)
	pt, err := data.PartitionBy(tb, "g")
	if err != nil {
		t.Fatal(err)
	}
	cat := NewCatalog()
	cat.RegisterPartitioned(pt)
	g := &ir.Graph{}
	mk := func(part int) *ir.Node {
		s := g.NewNode(ir.KindScan)
		s.Table, s.Alias, s.PartIndex = "t", "d", part
		return s
	}
	union := g.NewNode(ir.KindUnion, mk(0), mk(1))
	graph := ir.NewGraph(union)
	res, err := Run(graph, cat, Local)
	if err != nil {
		t.Fatal(err)
	}
	if res.Table.NumRows() != 4 {
		t.Fatalf("rows = %d", res.Table.NumRows())
	}
}

func TestRenamePipelineInputsErrors(t *testing.T) {
	p := testfix.CovidPipeline()
	err := renamePipelineInputs(p.Clone(), map[string]string{"age": "d.age"})
	if err == nil {
		t.Fatal("expected unbound-input error")
	}
}

// parallelFixture builds a single-table predict plan big enough to split
// into many morsels: Predict(Filter(Scan)) over a replicated patients
// table carrying all four pipeline inputs.
func parallelFixture(t *testing.T, rows int) (*Catalog, *ir.Graph) {
	t.Helper()
	n := rows
	ids := make([]int64, n)
	age := make([]float64, n)
	bpm := make([]float64, n)
	asthma := make([]string, n)
	hyper := make([]string, n)
	yn := []string{"no", "yes"}
	for i := 0; i < n; i++ {
		ids[i] = int64(i)
		age[i] = float64(20 + (i*7)%60)
		bpm[i] = float64(60 + (i*13)%70)
		asthma[i] = yn[(i/3)%2]
		hyper[i] = yn[(i/5)%2]
	}
	tbl := data.MustNewTable("patients",
		data.NewInt("id", ids), data.NewFloat("age", age), data.NewFloat("bpm", bpm),
		data.NewString("asthma", asthma), data.NewString("hypertension", hyper))
	cat := NewCatalog()
	cat.RegisterTable(tbl)
	if err := cat.RegisterModel(testfix.CovidPipeline()); err != nil {
		t.Fatal(err)
	}
	g := &ir.Graph{}
	s := g.NewNode(ir.KindScan)
	s.Table, s.Alias = "patients", "d"
	f := g.NewNode(ir.KindFilter, s)
	f.Pred = relational.NewBinOp(relational.OpGt, relational.Col("d.age"), relational.Num(25))
	pr := g.NewNode(ir.KindPredict, f)
	pr.Pipeline = testfix.CovidPipeline()
	pr.InputMap = map[string]string{
		"age": "d.age", "bpm": "d.bpm",
		"asthma": "d.asthma", "hypertension": "d.hypertension",
	}
	pr.OutputMap = map[string]string{"score": "p.score"}
	pr.KeepInput = true
	out := ir.NewGraph(pr)
	if err := out.Validate(cat); err != nil {
		t.Fatal(err)
	}
	return cat, out
}

func assertResultsIdentical(t *testing.T, want, got *data.Table, label string) {
	t.Helper()
	if want.NumRows() != got.NumRows() || want.NumCols() != got.NumCols() {
		t.Fatalf("%s: shape %dx%d, want %dx%d", label,
			got.NumRows(), got.NumCols(), want.NumRows(), want.NumCols())
	}
	for _, wc := range want.Cols {
		gc := got.Col(wc.Name)
		if gc == nil {
			t.Fatalf("%s: missing column %q", label, wc.Name)
		}
		for i := 0; i < wc.Len(); i++ {
			// AsString round-trips float64 exactly, so this is a
			// byte-identity check for every column type.
			if wc.AsString(i) != gc.AsString(i) {
				t.Fatalf("%s: column %q row %d: %s != %s",
					label, wc.Name, i, gc.AsString(i), wc.AsString(i))
			}
		}
	}
}

func TestParallelPredictMatchesSerial(t *testing.T) {
	cat, g := parallelFixture(t, 8000)
	serial, err := Run(g, cat, Local)
	if err != nil {
		t.Fatal(err)
	}
	if serial.Sessions != 1 {
		t.Fatalf("serial sessions = %d", serial.Sessions)
	}
	for _, dop := range []int{1, 2, 8} {
		prof := Local
		prof.ExecDOP = dop
		res, err := Run(g, cat, prof)
		if err != nil {
			t.Fatalf("dop=%d: %v", dop, err)
		}
		assertResultsIdentical(t, serial.Table, res.Table, "predict")
		if res.PredictBatches != serial.PredictBatches {
			t.Errorf("dop=%d: batches=%d, serial=%d", dop, res.PredictBatches, serial.PredictBatches)
		}
		if res.BytesConverted != serial.BytesConverted {
			t.Errorf("dop=%d: bytes=%d, serial=%d", dop, res.BytesConverted, serial.BytesConverted)
		}
		// The shared scheduler is work-conserving: short queries may run on
		// fewer than DOP clones, each engaged clone checking out exactly
		// one session. More than DOP can never be engaged.
		if res.Sessions < 1 || res.Sessions > dop {
			t.Errorf("dop=%d: sessions=%d, want within [1,%d] (one per engaged clone)", dop, res.Sessions, dop)
		}
		if res.ColdSessions > res.Sessions {
			t.Errorf("dop=%d: cold sessions %d exceed checkouts %d", dop, res.ColdSessions, res.Sessions)
		}
	}
}

func TestParallelDNNMatchesSerial(t *testing.T) {
	cat, g := parallelFixture(t, 6000)
	g.Root.Target = ir.TargetDNN
	serial, err := Run(g, cat, Local)
	if err != nil {
		t.Fatal(err)
	}
	prof := Local
	prof.ExecDOP = 4
	res, err := Run(g, cat, prof)
	if err != nil {
		t.Fatal(err)
	}
	assertResultsIdentical(t, serial.Table, res.Table, "dnn")
	if res.Sessions != serial.Sessions {
		t.Errorf("sessions=%d, serial=%d (program is compiled once and shared)",
			res.Sessions, serial.Sessions)
	}
}

func TestParallelJoinPlanMatchesSerial(t *testing.T) {
	cat := NewCatalog()
	pi, pt, bt := testfix.CovidTables()
	cat.RegisterTable(data.Replicate(pi, 1200, "id"))
	cat.RegisterTable(data.Replicate(pt, 1200, "id"))
	cat.RegisterTable(bt)
	if err := cat.RegisterModel(testfix.CovidPipeline()); err != nil {
		t.Fatal(err)
	}
	g := covidIR(t, cat)
	serial, err := Run(g, cat, Local)
	if err != nil {
		t.Fatal(err)
	}
	prof := Local
	prof.ExecDOP = 4
	res, err := Run(g, cat, prof)
	if err != nil {
		t.Fatal(err)
	}
	// The join is no longer a pipeline breaker: the probe side and the
	// predict above the join run inside one exchange (one ML session per
	// engaged clone), probing a shared build table.
	assertResultsIdentical(t, serial.Table, res.Table, "join plan")
	if res.Sessions < 1 || res.Sessions > 4 {
		t.Errorf("sessions = %d, want within [1,4] (predict above the join parallelizes across the exchange clones)", res.Sessions)
	}
}
