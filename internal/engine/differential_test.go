package engine_test

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"

	"raven/internal/data"
	"raven/internal/datagen"
	"raven/internal/engine"
	"raven/internal/ir"
	"raven/internal/opt"
	"raven/internal/sqlparse"
	"raven/internal/strategy"
	"raven/internal/train"
)

// Differential harness over the datagen datasets: every generated plan
// shape — multi-table join pyramids, predict-over-join, aggregate-over-
// predict, grouped-aggregate-over-predict (GROUP BY through the
// PREDICT TVF), with and without logical optimization and MLtoSQL — must
// produce byte-identical results across BOTH string representations
// (dictionary-encoded catalogs, as datagen produces, and decoded raw-
// string catalogs) at ExecDOP 1, 2, 4 and NumCPU. This is the end-to-end
// twin of internal/relational/differential_test.go, exercising the
// parser, optimizer, lowering and the morsel-driven executor together
// (run under -race in CI).

func diffAssertIdentical(t *testing.T, want, got *data.Table, label string) {
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
			// AsString round-trips float64 exactly, so this is a byte
			// identity check for every column type and representation.
			if wc.AsString(i) != gc.AsString(i) {
				t.Fatalf("%s: column %q row %d: %s != %s",
					label, wc.Name, i, gc.AsString(i), wc.AsString(i))
			}
		}
	}
}

// diffCase is one dataset+optimizer configuration under test.
type diffCase struct {
	name string
	ds   *datagen.Dataset
	opts opt.Options
}

// diffCatalogs returns the dictionary-encoded catalog (datagen tables as
// generated) and its raw-string twin (every table decoded), both
// registering the same trained pipeline so plans differ only in data
// representation.
func diffCatalogs(t *testing.T, c diffCase) (dict, raw *engine.Catalog, model string) {
	t.Helper()
	pipe, err := c.ds.Train(train.KindLogistic, nil)
	if err != nil {
		t.Fatal(err)
	}
	dict = c.ds.Catalog()
	raw = engine.NewCatalog()
	for _, tb := range c.ds.Tables {
		raw.RegisterTable(data.DecodeTable(tb))
	}
	if err := dict.RegisterModel(pipe); err != nil {
		t.Fatal(err)
	}
	if err := raw.RegisterModel(pipe); err != nil {
		t.Fatal(err)
	}
	return dict, raw, pipe.Name
}

func diffPlan(t *testing.T, c diffCase, cat *engine.Catalog, sql string) *ir.Graph {
	t.Helper()
	g, err := sqlparse.ParseAndPlan(sql, cat)
	if err != nil {
		t.Fatal(err)
	}
	og, _, err := opt.New(cat, c.opts).Optimize(g)
	if err != nil {
		t.Fatal(err)
	}
	return og
}

func TestDifferentialDatagenPlans(t *testing.T) {
	if testing.Short() {
		t.Skip("differential harness is not short")
	}
	dops := []int{2, 4}
	if n := runtime.NumCPU(); n > 4 {
		dops = append(dops, n)
	}
	withSQL := opt.DefaultOptions()
	withSQL.Strategy = strategy.CalibratedRule{}
	cases := []diffCase{
		{name: "hospital-noopt", ds: datagen.Hospital(4500, 11), opts: opt.NoOpt()},
		{name: "hospital-mltosql", ds: datagen.Hospital(4500, 11), opts: withSQL},
		{name: "expedia-noopt", ds: datagen.Expedia(3500, 12), opts: opt.NoOpt()},
		{name: "expedia-opt", ds: datagen.Expedia(3500, 12), opts: opt.DefaultOptions()},
		{name: "flights-opt", ds: datagen.Flights(2500, 13), opts: opt.DefaultOptions()},
	}
	for _, c := range cases {
		dictCat, rawCat, model := diffCatalogs(t, c)
		for _, q := range []struct{ kind, sql string }{
			{"predict", c.ds.Query("%s")},
			{"aggregate", c.ds.AggregateQuery("%s")},
			{"groupby", c.ds.GroupedAggregateQuery("%s")},
			// Ranked: HAVING on the AVG over predict, top-5 by score —
			// ordered output, so row order itself is asserted.
			{"ranked", c.ds.RankedGroupedQuery("%s", 0.05, 5)},
			// Ordered by the (dict-encoded vs raw) string group key.
			{"ordered-asc", c.ds.OrderedGroupedQuery("%s", false)},
			{"ordered-desc", c.ds.OrderedGroupedQuery("%s", true) + " LIMIT 1000"},
		} {
			sql := fmt.Sprintf(q.sql, model)
			prof := engine.Local
			// Dict-encoded serial execution is the baseline; the raw
			// representation and every DOP of both must reproduce it.
			serial, err := engine.Run(diffPlan(t, c, dictCat, sql), dictCat, prof)
			if err != nil {
				t.Fatalf("%s/%s dict serial: %v", c.name, q.kind, err)
			}
			if q.kind == "aggregate" && serial.Table.NumRows() != 1 {
				t.Fatalf("%s aggregate returned %d rows", c.name, serial.Table.NumRows())
			}
			if (q.kind == "groupby" || strings.HasPrefix(q.kind, "ordered")) &&
				serial.Table.NumRows() < 2 {
				t.Fatalf("%s %s returned %d groups", c.name, q.kind, serial.Table.NumRows())
			}
			if q.kind == "ranked" {
				n := serial.Table.NumRows()
				if n < 1 || n > 5 {
					t.Fatalf("%s ranked returned %d rows, want 1..5", c.name, n)
				}
				scores := serial.Table.Col("avg_score").F64
				for i := range scores {
					if scores[i] <= 0.05 {
						t.Fatalf("%s ranked row %d: avg_score %v fails HAVING", c.name, i, scores[i])
					}
					if i > 0 && scores[i] > scores[i-1] {
						t.Fatalf("%s ranked rows not descending: %v", c.name, scores)
					}
				}
			}
			for repr, cat := range map[string]*engine.Catalog{"dict": dictCat, "raw": rawCat} {
				g := diffPlan(t, c, cat, sql)
				for _, dop := range append([]int{1}, dops...) {
					if repr == "dict" && dop == 1 {
						continue // the baseline itself
					}
					par := prof
					par.ExecDOP = dop
					res, err := engine.Run(g, cat, par)
					if err != nil {
						t.Fatalf("%s/%s %s dop=%d: %v", c.name, q.kind, repr, dop, err)
					}
					diffAssertIdentical(t, serial.Table, res.Table,
						fmt.Sprintf("%s/%s %s dop=%d", c.name, q.kind, repr, dop))
				}
			}
		}
	}
}

// tablesIdentical is the goroutine-safe twin of diffAssertIdentical: it
// returns an error instead of failing the test, so concurrent executors
// can report mismatches with t.Error from worker goroutines.
func tablesIdentical(want, got *data.Table) error {
	if want.NumRows() != got.NumRows() || want.NumCols() != got.NumCols() {
		return fmt.Errorf("shape %dx%d, want %dx%d",
			got.NumRows(), got.NumCols(), want.NumRows(), want.NumCols())
	}
	for _, wc := range want.Cols {
		gc := got.Col(wc.Name)
		if gc == nil {
			return fmt.Errorf("missing column %q", wc.Name)
		}
		for i := 0; i < wc.Len(); i++ {
			if wc.AsString(i) != gc.AsString(i) {
				return fmt.Errorf("column %q row %d: %s != %s",
					wc.Name, i, gc.AsString(i), wc.AsString(i))
			}
		}
	}
	return nil
}

// TestDifferentialConcurrentExecution is the concurrency twin of
// TestDifferentialDatagenPlans: N goroutines execute the SAME optimized
// plan against the SAME catalog simultaneously — the cached-plan serving
// contract — and every execution must be byte-identical to the serial
// baseline. Run under -race in CI, this pins down that optimized IR
// graphs, shared ML session pools and the process-wide morsel scheduler
// are safe to share across concurrent queries at any DOP.
func TestDifferentialConcurrentExecution(t *testing.T) {
	if testing.Short() {
		t.Skip("differential harness is not short")
	}
	c := diffCase{name: "expedia-concurrent", ds: datagen.Expedia(2500, 17), opts: opt.DefaultOptions()}
	dictCat, _, model := diffCatalogs(t, c)
	type planned struct {
		kind string
		g    *ir.Graph
		want *data.Table
	}
	var plans []planned
	for _, q := range []struct{ kind, sql string }{
		{"predict", c.ds.Query("%s", "d.channel IN ('v1', 'v3')")},
		{"ranked", c.ds.RankedGroupedQuery("%s", 0.05, 5)},
		// The positional window ties OFFSET into the concurrent harness:
		// groups ordered by string key descending, rows 2..4 of them.
		{"offset-window", c.ds.OrderedGroupedQuery("%s", true) + " LIMIT 3 OFFSET 2"},
	} {
		sql := fmt.Sprintf(q.sql, model)
		g := diffPlan(t, c, dictCat, sql)
		serial, err := engine.Run(g, dictCat, engine.Local)
		if err != nil {
			t.Fatalf("%s serial baseline: %v", q.kind, err)
		}
		if serial.Table.NumRows() == 0 {
			t.Fatalf("%s: serial baseline is empty, test would be vacuous", q.kind)
		}
		plans = append(plans, planned{q.kind, g, serial.Table})
	}
	dops := []int{1, 2, 4}
	if n := runtime.NumCPU(); n > 4 {
		dops = append(dops, n)
	}
	for _, conc := range []int{2, 4, 8} {
		for _, dop := range dops {
			var wg sync.WaitGroup
			for w := 0; w < conc; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for _, p := range plans {
						prof := engine.Local
						prof.ExecDOP = dop
						res, err := engine.Run(p.g, dictCat, prof)
						if err != nil {
							t.Errorf("conc=%d dop=%d worker=%d %s: %v", conc, dop, w, p.kind, err)
							return
						}
						if err := tablesIdentical(p.want, res.Table); err != nil {
							t.Errorf("conc=%d dop=%d worker=%d %s: %v", conc, dop, w, p.kind, err)
						}
					}
				}(w)
			}
			wg.Wait()
			if t.Failed() {
				t.Fatalf("conc=%d dop=%d: concurrent executions diverged from serial", conc, dop)
			}
		}
	}
}

// TestDifferentialStringPredicates drives the dict-predicate lowering
// end-to-end: string equality and IN filters over categorical columns,
// with and without MLtoSQL, must match across representations and DOPs.
func TestDifferentialStringPredicates(t *testing.T) {
	if testing.Short() {
		t.Skip("differential harness is not short")
	}
	withSQL := opt.DefaultOptions()
	withSQL.Strategy = strategy.CalibratedRule{}
	for _, c := range []diffCase{
		{name: "expedia-pred-noopt", ds: datagen.Expedia(3000, 21), opts: opt.NoOpt()},
		{name: "expedia-pred-mltosql", ds: datagen.Expedia(3000, 21), opts: withSQL},
	} {
		dictCat, rawCat, model := diffCatalogs(t, c)
		sql := fmt.Sprintf(
			c.ds.Query("%s", "d.channel IN ('v1', 'v3', 'v5')", "d.device <> 'v0'"),
			model)
		serial, err := engine.Run(diffPlan(t, c, dictCat, sql), dictCat, engine.Local)
		if err != nil {
			t.Fatalf("%s dict serial: %v", c.name, err)
		}
		if serial.Table.NumRows() == 0 {
			t.Fatalf("%s: predicate query selected no rows", c.name)
		}
		dop := runtime.NumCPU()
		if dop < 2 {
			dop = 2
		}
		for repr, cat := range map[string]*engine.Catalog{"dict": dictCat, "raw": rawCat} {
			g := diffPlan(t, c, cat, sql)
			for _, d := range []int{1, dop} {
				par := engine.Local
				par.ExecDOP = d
				res, err := engine.Run(g, cat, par)
				if err != nil {
					t.Fatalf("%s %s dop=%d: %v", c.name, repr, d, err)
				}
				diffAssertIdentical(t, serial.Table, res.Table,
					fmt.Sprintf("%s %s dop=%d", c.name, repr, d))
			}
		}
	}
}

// TestChunkedPointLookupDifferential runs the benchmark's point_lookup text
// against a chunk-backed Hospital catalog and its in-memory twin: the
// answers must be byte-identical at every DOP, and because eid is sorted
// the chunk zone maps must leave at most two chunks to decode (none for an
// absent key, which the partition's own zone map excludes).
func TestChunkedPointLookupDifferential(t *testing.T) {
	const rows, chunkRows = 20000, 2048
	c := diffCase{name: "hospital-point", ds: datagen.Hospital(rows, 19), opts: opt.DefaultOptions()}
	pipe, err := c.ds.Train(train.KindGradientBoosting, func(s *train.Spec) { s.NEstimators = 5; s.MaxDepth = 3 })
	if err != nil {
		t.Fatal(err)
	}
	mem := c.ds.Catalog()
	chunked, err := c.ds.ChunkedCatalog(chunkRows)
	if err != nil {
		t.Fatal(err)
	}
	for _, cat := range []*engine.Catalog{mem, chunked} {
		if err := cat.RegisterModel(pipe); err != nil {
			t.Fatal(err)
		}
	}
	eids := c.ds.Tables[0].Col("eid").I64
	keys := map[string]int64{"first": eids[0], "middle": eids[rows/2], "last": eids[rows-1], "absent": eids[rows-1] + 7}
	dops := []int{1, 2}
	if n := runtime.NumCPU(); n > 2 {
		dops = append(dops, n)
	}
	for name, key := range keys {
		sql := fmt.Sprintf("SELECT d.eid, p.score FROM PREDICT(MODEL = %s, DATA = hospital AS d)"+
			" WITH (score FLOAT) AS p WHERE d.eid = %d", pipe.Name, key)
		want, err := engine.Run(diffPlan(t, c, mem, sql), mem, engine.Local)
		if err != nil {
			t.Fatalf("%s in memory: %v", name, err)
		}
		if n := want.Table.NumRows(); (n == 1) == (name == "absent") || n > 1 {
			t.Fatalf("%s: in-memory answer has %d rows", name, n)
		}
		g := diffPlan(t, c, chunked, sql)
		for _, dop := range dops {
			prof := engine.Local
			prof.ExecDOP = dop
			res, err := engine.Run(g, chunked, prof)
			if err != nil {
				t.Fatalf("%s dop=%d: %v", name, dop, err)
			}
			label := fmt.Sprintf("%s dop=%d", name, dop)
			diffAssertIdentical(t, want.Table, res.Table, label)
			total := int64((rows + chunkRows - 1) / chunkRows)
			if res.ChunksDecoded > 2 || res.ChunksDecoded+res.ChunksSkipped < total ||
				(name == "absent" && res.ChunksDecoded != 0) {
				t.Fatalf("%s: %d chunks decoded, %d skipped of %d", label, res.ChunksDecoded, res.ChunksSkipped, total)
			}
		}
	}
}
