package raven

import (
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"raven/internal/data"
	"raven/internal/testfix"
)

func covidSession(t *testing.T, options ...Option) *Session {
	t.Helper()
	s := NewSession(options...)
	pi, pt, bt := testfix.CovidTables()
	s.RegisterTable(pi)
	s.RegisterTable(pt)
	s.RegisterTable(bt)
	if err := s.RegisterModel(testfix.CovidPipeline()); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSessionQueryEndToEnd(t *testing.T) {
	s := covidSession(t)
	res, err := s.Query(testfix.CovidQuery)
	if err != nil {
		t.Fatal(err)
	}
	if res.Table.NumRows() != 1 || res.Table.Col("d.id").I64[0] != 3 {
		t.Fatalf("result:\n%v", res.Table)
	}
	if res.Report == nil || len(res.Report.Fired) == 0 {
		t.Fatal("no optimizer report")
	}
	if !res.Report.DidFire("predicate-based-model-pruning") {
		t.Fatalf("rules fired: %v", res.Report.Fired)
	}
	if res.Plan == "" || !strings.Contains(res.Plan, "Predict") {
		t.Fatalf("plan: %s", res.Plan)
	}
	if res.Wall <= 0 {
		t.Fatal("missing wall time")
	}
}

func TestSessionWithoutOptimizations(t *testing.T) {
	s := covidSession(t, WithoutOptimizations())
	res, err := s.Query(testfix.CovidQuery)
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.DidFire("model-projection-pushdown") {
		t.Fatal("no-opt session applied Raven rules")
	}
	// Results identical to the optimized session.
	opt := covidSession(t)
	res2, err := opt.Query(testfix.CovidQuery)
	if err != nil {
		t.Fatal(err)
	}
	if res.Table.NumRows() != res2.Table.NumRows() {
		t.Fatal("optimization changed results")
	}
}

func TestSessionExplain(t *testing.T) {
	s := covidSession(t)
	plan, rep, err := s.Explain(testfix.CovidQuery)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "Scan patient_info") {
		t.Fatalf("plan:\n%s", plan)
	}
	if rep.Choice.String() == "" {
		t.Fatal("no choice in report")
	}
}

func TestSessionProfileOption(t *testing.T) {
	prof := ProfileLocal
	prof.BatchSize = 2
	s := covidSession(t, WithProfile(prof))
	if s.profile.BatchSize != 2 {
		t.Fatalf("profile.BatchSize = %d, want 2", s.profile.BatchSize)
	}
	res, err := s.Query(testfix.CovidQuery)
	if err != nil {
		t.Fatal(err)
	}
	if res.Table.NumRows() != 1 || res.Table.Col("d.id").I64[0] != 3 {
		t.Fatalf("result under a 2-row batch profile:\n%v", res.Table)
	}
}

func TestSessionCatalogIntrospection(t *testing.T) {
	s := covidSession(t)
	if got := s.Tables(); len(got) != 3 {
		t.Fatalf("Tables = %v", got)
	}
	if got := s.Models(); len(got) != 1 || got[0] != "covid_risk" {
		t.Fatalf("Models = %v", got)
	}
}

func TestSessionErrors(t *testing.T) {
	s := covidSession(t)
	if _, err := s.Query("SELECT broken FROM"); err == nil {
		t.Fatal("expected parse error")
	}
	if _, err := s.Query("SELECT x FROM ghost"); err == nil {
		t.Fatal("expected unknown table error")
	}
	if _, _, err := s.Explain("SELECT"); err == nil {
		t.Fatal("expected explain error")
	}
}

func TestColumnConstructorsAndCSV(t *testing.T) {
	tb, err := NewTable("t",
		NewIntColumn("id", []int64{1, 2}),
		NewFloatColumn("x", []float64{0.5, 1.5}),
		NewStringColumn("k", []string{"a", "b"}),
		NewBoolColumn("f", []bool{true, false}),
	)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSession()
	s.RegisterTable(tb)
	if len(s.Tables()) != 1 {
		t.Fatal("RegisterTable failed")
	}
}

func TestModelFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/covid.onnx.json"
	if err := testfix.CovidPipeline().Save(path); err != nil {
		t.Fatal(err)
	}
	s := NewSession()
	p, err := s.RegisterModelFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if p.Name != "covid_risk" {
		t.Fatalf("loaded %q", p.Name)
	}
	if _, err := s.RegisterModelFile(dir + "/missing.json"); err == nil {
		t.Fatal("expected error for missing model file")
	}
}

func TestPartitionedRegistration(t *testing.T) {
	s := NewSession()
	pi, _, _ := testfix.CovidTables()
	if err := s.RegisterPartitionedTable(pi, "asthma"); err != nil {
		t.Fatal(err)
	}
	if err := s.RegisterPartitionedTable(pi, "ghost"); err == nil {
		t.Fatal("expected error for missing partition column")
	}
	if err := s.RegisterModel(testfix.CovidPipeline()); err != nil {
		t.Fatal(err)
	}
	// Querying the partitioned table exercises the per-partition path.
	pt, bt := func() (*Table, *Table) { _, a, b := testfix.CovidTables(); return a, b }()
	s.RegisterTable(pt)
	s.RegisterTable(bt)
	res, err := s.Query(testfix.CovidQuery)
	if err != nil {
		t.Fatal(err)
	}
	if res.Table.NumRows() != 1 {
		t.Fatalf("rows = %d", res.Table.NumRows())
	}
}

func TestTrainPipelineReexport(t *testing.T) {
	pi, _, _ := testfix.CovidTables()
	tb := pi.Clone()
	label := make([]float64, tb.NumRows())
	for i := range label {
		if tb.Col("age").F64[i] > 50 {
			label[i] = 1
		}
	}
	if err := tb.AddColumn(NewFloatColumn("label", label)); err != nil {
		t.Fatal(err)
	}
	p, err := TrainPipeline(tb, TrainSpec{
		Name: "m", Numeric: []string{"age"}, Categorical: []string{"asthma"},
		Label: "label", MaxDepth: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := NewSession()
	s.RegisterTable(pi.Rename("patients"))
	if err := s.RegisterModel(p); err != nil {
		t.Fatal(err)
	}
	res, err := s.Query("SELECT d.id, p.score FROM PREDICT(MODEL = m, DATA = patients AS d) WITH (score FLOAT) AS p")
	if err != nil {
		t.Fatal(err)
	}
	if res.Table.NumRows() != 6 {
		t.Fatalf("rows = %d", res.Table.NumRows())
	}
}

func TestWithParallelismMatchesSerial(t *testing.T) {
	// Replicate the covid tables so the scans exceed one morsel and the
	// parallel rewrite actually fires.
	build := func(options ...Option) *Session {
		s := NewSession(options...)
		pi, pt, bt := testfix.CovidTables()
		s.RegisterTable(Replicate(pi, 2000, "id"))
		s.RegisterTable(Replicate(pt, 2000, "id"))
		s.RegisterTable(Replicate(bt, 2000, "id"))
		if err := s.RegisterModel(testfix.CovidPipeline()); err != nil {
			t.Fatal(err)
		}
		return s
	}
	serial, err := build().Query(testfix.CovidQuery)
	if err != nil {
		t.Fatal(err)
	}
	for _, dop := range []int{2, 8} {
		par, err := build(WithParallelism(dop)).Query(testfix.CovidQuery)
		if err != nil {
			t.Fatalf("dop=%d: %v", dop, err)
		}
		if par.Table.NumRows() != serial.Table.NumRows() {
			t.Fatalf("dop=%d: rows=%d, serial=%d", dop, par.Table.NumRows(), serial.Table.NumRows())
		}
		for _, wc := range serial.Table.Cols {
			gc := par.Table.Col(wc.Name)
			if gc == nil {
				t.Fatalf("dop=%d: missing column %q", dop, wc.Name)
			}
			for i := 0; i < wc.Len(); i++ {
				if wc.AsString(i) != gc.AsString(i) {
					t.Fatalf("dop=%d: column %q row %d differs: %s != %s",
						dop, wc.Name, i, gc.AsString(i), wc.AsString(i))
				}
			}
		}
	}
}

func TestWithParallelismComposesWithProfileOrder(t *testing.T) {
	// The knob must survive WithProfile appearing after it (and before).
	prof := ProfileLocal
	prof.BatchSize = 10000
	for _, opts := range [][]Option{
		{WithParallelism(4), WithProfile(prof)},
		{WithProfile(prof), WithParallelism(4)},
	} {
		s := NewSession(opts...)
		if s.profile.ExecDOP != 4 {
			t.Fatalf("opts %v: profile.ExecDOP = %d, want 4", opts, s.profile.ExecDOP)
		}
		if s.opts.ExecDOP != 4 {
			t.Fatalf("opts %v: opts.ExecDOP = %d, want 4", opts, s.opts.ExecDOP)
		}
	}
}

// TestEmptyOrderedResultKeepsColumnTypes pins the typed-empty-result fix
// end-to-end: an ordered prediction query matching zero rows must return
// an empty table whose columns carry the real schema types (Int64 id,
// String category, Float64 score), not all-Float64 placeholders.
func TestEmptyOrderedResultKeepsColumnTypes(t *testing.T) {
	s := covidSession(t)
	res, err := s.Query(`
WITH d AS (
  SELECT * FROM patient_info AS pi
  JOIN pulmonary_test AS pt ON pi.id = pt.id
)
SELECT d.id, d.asthma, p.score
FROM PREDICT(MODEL = covid_risk, DATA = d) WITH (score FLOAT) AS p
WHERE p.score > 2.0
ORDER BY p.score DESC`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Table.NumRows() != 0 {
		t.Fatalf("rows = %d, want 0 (scores are sigmoid outputs < 1)", res.Table.NumRows())
	}
	want := map[string]data.Type{
		"d.id": data.Int64, "d.asthma": data.String, "p.score": data.Float64,
	}
	for name, typ := range want {
		c := res.Table.Col(name)
		if c == nil {
			t.Fatalf("missing column %q in %v", name, res.Table.Schema().Names())
		}
		if c.Type != typ {
			t.Errorf("column %q: type = %v, want %v", name, c.Type, typ)
		}
	}
}

// Zone maps must never prune a zone that holds a NaN. The engine's float
// comparison puts NaN in the "equal" branch, so `x = 5` keeps the NaN row
// although 5 lies outside the zone's [min, max] (which ignores NaNs) —
// pruning by that range would change the answer. Pinned at partition
// granularity (in memory) and chunk granularity (the {1, 2} chunk is
// excluded, the NaN chunk is not).
func TestZoneMapsKeepNaNRows(t *testing.T) {
	tb, err := NewTable("t",
		NewFloatColumn("x", []float64{1, 2, math.NaN()}),
		NewIntColumn("id", []int64{1, 2, 3}),
	)
	if err != nil {
		t.Fatal(err)
	}
	for _, chunked := range []bool{false, true} {
		s := NewSession()
		if !chunked {
			s.RegisterTable(tb)
		} else if err := s.RegisterTableChunked(tb, 2); err != nil {
			t.Fatal(err)
		}
		for lit, want := range map[string][]int64{"2": {2, 3}, "5": {3}} {
			res, err := s.Query("SELECT id FROM t WHERE x = " + lit)
			if err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(res.Plan, "prune=1") {
				t.Fatalf("chunked=%v: no zone predicate on the scan:\n%s", chunked, res.Plan)
			}
			if res.Table.NumCols() != 1 || !slices.Equal(res.Table.Cols[0].I64, want) {
				t.Fatalf("chunked=%v x = %s: got %v, want ids %v", chunked, lit, res.Table, want)
			}
			if chunked && lit == "5" && (res.ChunksSkipped != 1 || res.ChunksDecoded != 1) {
				t.Fatalf("x = 5: %d chunks skipped, %d decoded; want the {1, 2} chunk skipped only",
					res.ChunksSkipped, res.ChunksDecoded)
			}
		}
	}
}

// TestMinMaxOverInfiniteCSVValues pins the MIN/MAX fold identities end to
// end: CSV input parses "inf", "-inf" and values beyond 1e308 as floats, and
// MIN and MAX must return them as they are — grouped and global, serially
// and in parallel.
func TestMinMaxOverInfiniteCSVValues(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.csv")
	csv := "g,x\nbig,1.5e308\nbig,1.7e308\ninf,inf\ninf,inf\nneg,-inf\nneg,-inf\n"
	if err := os.WriteFile(path, []byte(csv), 0o644); err != nil {
		t.Fatal(err)
	}
	inf := math.Inf(1)
	want := map[string][2]float64{"big": {1.5e308, 1.7e308}, "inf": {inf, inf}, "neg": {-inf, -inf}}
	for _, dop := range []int{1, 2} {
		prof := ProfileLocal
		prof.BatchSize, prof.ExecDOP = 1, dop
		s := NewSession(WithProfile(prof))
		if _, err := s.RegisterTableCSV(path); err != nil {
			t.Fatal(err)
		}
		grouped, err := s.Query("SELECT g, MIN(x) AS lo, MAX(x) AS hi FROM t GROUP BY g")
		if err != nil {
			t.Fatal(err)
		}
		if grouped.Table.NumRows() != len(want) {
			t.Fatalf("dop=%d: %d groups, want %d", dop, grouped.Table.NumRows(), len(want))
		}
		for r := 0; r < grouped.Table.NumRows(); r++ {
			g := grouped.Table.Cols[0].AsString(r) // the group key column
			if lo, hi := grouped.Table.Col("lo").F64[r], grouped.Table.Col("hi").F64[r]; lo != want[g][0] || hi != want[g][1] {
				t.Fatalf("dop=%d group %s: MIN, MAX = %v, %v, want %v", dop, g, lo, hi, want[g])
			}
		}
		for g, w := range want {
			global, err := s.Query("SELECT MIN(x) AS lo, MAX(x) AS hi FROM t WHERE g = '" + g + "'")
			if err != nil {
				t.Fatal(err)
			}
			if lo, hi := global.Table.Col("lo").F64[0], global.Table.Col("hi").F64[0]; lo != w[0] || hi != w[1] {
				t.Fatalf("dop=%d WHERE g = %s: MIN, MAX = %v, %v, want %v", dop, g, lo, hi, w)
			}
		}
	}
}
