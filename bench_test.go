package raven

// One benchmark per table and figure of the paper's evaluation, plus
// library-level micro-benchmarks. The experiment benches run the same
// harness as cmd/ravenbench at reduced scale and report the headline
// ratio as a custom metric, so `go test -bench=.` regenerates every
// result. Absolute times are host-specific; the shapes are asserted in
// internal/experiments/experiments_test.go.

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"raven/internal/data"
	"raven/internal/datagen"
	"raven/internal/engine"
	"raven/internal/experiments"
	"raven/internal/hummingbird"
	"raven/internal/mlruntime"
	"raven/internal/opt"
	"raven/internal/sqlparse"
	"raven/internal/strategy"
	"raven/internal/testfix"
	"raven/internal/train"
)

// ---- Figure / table reproduction benches ----

func BenchmarkFig1OpenMLStats(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig1(experiments.Config{Seed: 1}, 40); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable1DatasetStats(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table1(experiments.Config{Rows: 2000, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig4Strategies(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig4(experiments.Config{Seed: 1}, 40, 4, 2); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig6Spark(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep, err := experiments.Fig6(experiments.Config{Rows: 5000, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		if len(rep.Rows) != 12 {
			b.Fatalf("rows = %d", len(rep.Rows))
		}
	}
}

func BenchmarkFig7Scalability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig7(experiments.Config{Seed: 1}, []int{1000, 10000}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig8SQLServer(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig8(experiments.Config{Rows: 5000, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig9LinearSparsity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig9(experiments.Config{Rows: 8000, Seed: 1},
			[]float64{0.001, 0.1, 2}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig10TreeDepth(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig10(experiments.Config{Rows: 8000, Seed: 1},
			[]int{3, 10, 20}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig11DataInduced(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := experiments.Fig11(experiments.Config{Rows: 8000, Seed: 1},
			[]int{10, 15}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable2PrunedColumns(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, tab2, err := experiments.Fig11(experiments.Config{Rows: 4000, Seed: 1}, []int{10})
		if err != nil {
			b.Fatal(err)
		}
		if len(tab2.Rows) != 1 {
			b.Fatal("missing table 2 rows")
		}
	}
}

func BenchmarkFig12(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig12(experiments.Config{Rows: 20000, Seed: 1},
			[][2]int{{20, 4}, {100, 7}}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAccuracyParity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Accuracy(experiments.Config{Rows: 1500, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Library micro-benches ----

// benchEnv builds a hospital workload once for the operator benches.
type benchEnv struct {
	ds   *datagen.Dataset
	cat  *engine.Catalog
	gb   string
	prog *hummingbird.Program
	sess *mlruntime.Session
}

func newBenchEnv(b *testing.B, rows, estimators, depth int) *benchEnv {
	b.Helper()
	ds := datagen.Hospital(rows, 1)
	cat := ds.Catalog()
	p, err := ds.Train(train.KindGradientBoosting, func(s *train.Spec) {
		s.NEstimators = estimators
		s.MaxDepth = depth
		s.LearningRate = 0.2
	})
	if err != nil {
		b.Fatal(err)
	}
	if err := cat.RegisterModel(p); err != nil {
		b.Fatal(err)
	}
	prog, err := hummingbird.Compile(p)
	if err != nil {
		b.Fatal(err)
	}
	sess, err := mlruntime.NewSession(p)
	if err != nil {
		b.Fatal(err)
	}
	return &benchEnv{ds: ds, cat: cat, gb: p.Name, prog: prog, sess: sess}
}

// verdictEnvs memoizes the trained models of the MLtoDNN verdict grid, so
// a sub-benchmark rerun at a larger b.N does not retrain.
var verdictEnvs = map[[2]int]*benchEnv{}

// benchVerdict runs score over the MLtoDNN verdict grid that
// BenchmarkMLRuntimeGB and BenchmarkHummingbirdCPU share: gradient-boosting
// ensembles (estimators×depth) from small (20×4, at most 300 internal
// nodes) to large (500×8), trained on 5k rows and scored over 1k and 100k
// rows, reporting rows/s.
func benchVerdict(b *testing.B, score func(env *benchEnv, tbl *data.Table) error) {
	for _, m := range [][2]int{{20, 4}, {100, 8}, {500, 8}} {
		for _, rows := range []int{1000, 100000} {
			b.Run(fmt.Sprintf("est=%d/depth=%d/rows=%d", m[0], m[1], rows), func(b *testing.B) {
				env := verdictEnvs[m]
				if env == nil {
					env = newBenchEnv(b, 5000, m[0], m[1])
					verdictEnvs[m] = env
				}
				tbl := datagen.Hospital(rows, 2).Tables[0]
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := score(env, tbl); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(rows*b.N)/b.Elapsed().Seconds(), "rows/s")
			})
		}
	}
}

func BenchmarkMLRuntimeGB(b *testing.B) {
	benchVerdict(b, func(env *benchEnv, tbl *data.Table) error {
		_, err := env.sess.RunTable(tbl)
		return err
	})
}

func BenchmarkHummingbirdCPU(b *testing.B) {
	benchVerdict(b, func(env *benchEnv, tbl *data.Table) error {
		_, _, err := env.prog.Run(tbl)
		return err
	})
}

func BenchmarkMLtoSQLEval(b *testing.B) {
	env := newBenchEnv(b, 10000, 20, 4)
	tbl := env.ds.Tables[0]
	pipe, _ := env.cat.Model(env.gb)
	inputMap := map[string]string{}
	for _, in := range pipe.Inputs {
		inputMap[in.Name] = in.Name
	}
	exprs, err := opt.CompileToSQL(pipe, inputMap, map[string]string{"score": "score"})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, ne := range exprs {
			if _, err := ne.E.Eval(tbl); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(tbl.NumRows()*b.N)/b.Elapsed().Seconds(), "rows/s")
}

func BenchmarkOptimizerCovidQuery(b *testing.B) {
	cat := engine.NewCatalog()
	pi, pt, bt := testfix.CovidTables()
	cat.RegisterTable(pi)
	cat.RegisterTable(pt)
	cat.RegisterTable(bt)
	if err := cat.RegisterModel(testfix.CovidPipeline()); err != nil {
		b.Fatal(err)
	}
	g, err := sqlparse.ParseAndPlan(testfix.CovidQuery, cat)
	if err != nil {
		b.Fatal(err)
	}
	o := opt.New(cat, ravenDefaultOpts())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := o.Optimize(g); err != nil {
			b.Fatal(err)
		}
	}
}

func ravenDefaultOpts() opt.Options {
	o := opt.DefaultOptions()
	o.Strategy = strategy.PaperRule{}
	return o
}

func BenchmarkParseAndPlan(b *testing.B) {
	cat := engine.NewCatalog()
	pi, pt, bt := testfix.CovidTables()
	cat.RegisterTable(pi)
	cat.RegisterTable(pt)
	cat.RegisterTable(bt)
	if err := cat.RegisterModel(testfix.CovidPipeline()); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sqlparse.ParseAndPlan(testfix.CovidQuery, cat); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEndToEndSession(b *testing.B) {
	s := NewSession()
	pi, pt, bt := testfix.CovidTables()
	s.RegisterTable(pi)
	s.RegisterTable(pt)
	s.RegisterTable(bt)
	if err := s.RegisterModel(testfix.CovidPipeline()); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Query(testfix.CovidQuery); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParallelSpeedup measures real morsel-driven execution on the
// Fig7 scalability workload (partitioned hospital scan + GB predict): the
// same query runs at DOP=1, DOP=4 and DOP=NumCPU, each sub-benchmark
// emitting machine-readable ns/op plus rows/s, and the parallel ones a
// "speedup" metric vs the measured DOP=1 baseline. Speedups require
// multiple cores; on a single-core host the metric degrades to ~1x while
// results stay byte-identical (asserted in the engine tests).
func BenchmarkParallelSpeedup(b *testing.B) {
	const rows = 40000
	ds := datagen.Hospital(rows, 1)
	pipe, err := ds.Train(train.KindGradientBoosting, func(s *train.Spec) {
		s.NEstimators = 20
		s.MaxDepth = 4
		s.LearningRate = 0.2
	})
	if err != nil {
		b.Fatal(err)
	}
	newSession := func(b *testing.B, dop int) *Session {
		s := NewSession(WithParallelism(dop))
		s.RegisterTable(ds.Tables[0])
		if err := s.RegisterModel(pipe); err != nil {
			b.Fatal(err)
		}
		return s
	}
	q := ds.Query(pipe.Name)
	dops := []int{1, 4}
	if n := runtime.NumCPU(); n > 4 {
		dops = append(dops, n)
	}
	var baselineNs float64
	for _, dop := range dops {
		b.Run(fmt.Sprintf("dop=%d", dop), func(b *testing.B) {
			s := newSession(b, dop)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.Query(q); err != nil {
					b.Fatal(err)
				}
			}
			perOp := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
			b.ReportMetric(float64(rows*b.N)/b.Elapsed().Seconds(), "rows/s")
			if dop == 1 {
				baselineNs = perOp
			} else if baselineNs > 0 {
				b.ReportMetric(baselineNs/perOp, "speedup")
			}
		})
	}
}

// BenchmarkJoinAggParallelSpeedup measures morsel-driven execution across
// both former pipeline breakers at once: the Expedia 3-table join feeds a
// GB predict whose scores are averaged (the SQL Server-style aggregate
// query), so the probe, the predict and the partial aggregation all run
// inside one exchange. Each DOP sub-benchmark emits ns/op plus rows/s,
// and the parallel ones a "speedup" metric vs the measured DOP=1
// baseline. Like BenchmarkParallelSpeedup, real speedups require
// multiple cores; results stay byte-identical at any DOP (asserted by
// the differential harnesses).
func BenchmarkJoinAggParallelSpeedup(b *testing.B) {
	const rows = 30000
	ds := datagen.Expedia(rows, 1)
	pipe, err := ds.Train(train.KindGradientBoosting, func(s *train.Spec) {
		s.NEstimators = 20
		s.MaxDepth = 4
		s.LearningRate = 0.2
	})
	if err != nil {
		b.Fatal(err)
	}
	newSession := func(b *testing.B, dop int) *Session {
		s := NewSession(WithParallelism(dop))
		for _, t := range ds.Tables {
			s.RegisterTable(t)
		}
		if err := s.RegisterModel(pipe); err != nil {
			b.Fatal(err)
		}
		return s
	}
	q := ds.AggregateQuery(pipe.Name)
	dops := []int{1, 4}
	if n := runtime.NumCPU(); n > 4 {
		dops = append(dops, n)
	}
	var baselineNs float64
	for _, dop := range dops {
		b.Run(fmt.Sprintf("dop=%d", dop), func(b *testing.B) {
			s := newSession(b, dop)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := s.Query(q)
				if err != nil {
					b.Fatal(err)
				}
				if res.Table.NumRows() != 1 {
					b.Fatalf("aggregate returned %d rows", res.Table.NumRows())
				}
			}
			perOp := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
			b.ReportMetric(float64(rows*b.N)/b.Elapsed().Seconds(), "rows/s")
			if dop == 1 {
				baselineNs = perOp
			} else if baselineNs > 0 {
				b.ReportMetric(baselineNs/perOp, "speedup")
			}
		})
	}
}

// BenchmarkGroupByParallelSpeedup measures grouped aggregation across the
// two grouping paths and the morsel-parallel breaker. Two query shapes
// run: "kernel" is a pure grouped aggregation over the dictionary-encoded
// Expedia fact table (grouping dominates, so the dense-vs-hash gap is
// visible), and "predict" is the Expedia-style grouped AVG-over-predict —
// average predicted score per market — where grouping shares the exchange
// with the model. Each shape runs with hash grouping — its key column
// registered as raw strings — and with the dense code-indexed path over
// the dictionary-encoded key, at DOP 1, 4 and NumCPU; sub-benchmarks emit
// ns/op, allocs/op and rows/s, the parallel ones a "speedup" metric vs
// the measured DOP=1 baseline of the same shape+grouping, and the dense
// ones a "dense_speedup" metric vs hash grouping at the same shape+DOP.
// Results are byte-identical across all twelve configurations (asserted
// by the differential harnesses); this bench records what the dense path
// and the parallel breaker are worth.
func BenchmarkGroupByParallelSpeedup(b *testing.B) {
	const rows = 30000
	ds := datagen.Expedia(rows, 1)
	pipe, err := ds.Train(train.KindGradientBoosting, func(s *train.Spec) {
		s.NEstimators = 20
		s.MaxDepth = 4
		s.LearningRate = 0.2
	})
	if err != nil {
		b.Fatal(err)
	}
	queries := []struct{ shape, key, sql string }{
		{"kernel", "visitor_location", "SELECT visitor_location, COUNT(*) AS n, AVG(price_usd) AS avg_price, " +
			"MIN(price_usd) AS lo, MAX(price_usd) AS hi FROM searches GROUP BY visitor_location"},
		{"predict", strings.TrimPrefix(ds.GroupColumn(), "d."), ds.GroupedAggregateQuery(pipe.Name)},
	}
	dops := []int{1, 4}
	if n := runtime.NumCPU(); n > 4 {
		dops = append(dops, n)
	}
	// rawKey returns the fact table with the key column decoded: grouping
	// on raw strings takes the hash path.
	rawKey := func(t *data.Table, key string) *data.Table {
		cols := make([]*data.Column, len(t.Cols))
		for i, c := range t.Cols {
			if cols[i] = c; c.Name == key {
				cols[i] = data.Decode(c)
			}
		}
		return data.MustNewTable(t.Name, cols...)
	}
	groupings := []string{"hash", "dense"}
	baseNs := make(map[string]float64) // shape/grouping → dop=1 ns/op
	hashNs := make(map[string]float64) // shape/dop → hash ns/op
	for _, q := range queries {
		for _, grouping := range groupings {
			for _, dop := range dops {
				name := fmt.Sprintf("shape=%s/grouping=%s/dop=%d", q.shape, grouping, dop)
				b.Run(name, func(b *testing.B) {
					s := NewSession(WithProfile(engine.Local), WithParallelism(dop))
					for i, t := range ds.Tables {
						if i == 0 && grouping == "hash" {
							t = rawKey(t, q.key)
						}
						s.RegisterTable(t)
					}
					if err := s.RegisterModel(pipe); err != nil {
						b.Fatal(err)
					}
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						res, err := s.Query(q.sql)
						if err != nil {
							b.Fatal(err)
						}
						if res.Table.NumRows() < 2 {
							b.Fatalf("grouped query returned %d groups", res.Table.NumRows())
						}
					}
					perOp := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
					b.ReportMetric(float64(rows*b.N)/b.Elapsed().Seconds(), "rows/s")
					if dop == 1 {
						baseNs[q.shape+"/"+grouping] = perOp
					} else if base := baseNs[q.shape+"/"+grouping]; base > 0 {
						b.ReportMetric(base/perOp, "speedup")
					}
					key := fmt.Sprintf("%s/%d", q.shape, dop)
					if grouping == "hash" {
						hashNs[key] = perOp
					} else if base := hashNs[key]; base > 0 {
						b.ReportMetric(base/perOp, "dense_speedup")
					}
				})
			}
		}
	}
}

// BenchmarkStringHeavyJoinEncode measures the dictionary-encoding hot
// path end to end: a fact table joined to a dimension on a *string* key
// feeding a one-hot-heavy predict (a 240-category segment column plus 12
// smaller categoricals). The same query runs over raw-string tables (the
// pre-dictionary representation) and dictionary-encoded ones at DOP 1, 4
// and NumCPU; every sub-benchmark reports ns/op, allocs/op and rows/s,
// and the dict variants report "dict_speedup" vs the measured raw
// baseline at the same DOP. The differential harnesses assert the two
// representations return byte-identical results; this bench records what
// the representation is worth.
func BenchmarkStringHeavyJoinEncode(b *testing.B) {
	const rows = 100000
	const nSegs = 240
	rng := rand.New(rand.NewSource(5))
	segKey := func(i int) string { return fmt.Sprintf("seg%03d", i) }

	// Dimension: segment key + categorical/numeric attributes.
	segNames := make([]string, nSegs)
	sCat := make([][]string, 4)
	sCards := []int{7, 13, 5, 9}
	for j := range sCat {
		sCat[j] = make([]string, nSegs)
	}
	sNum := make([]float64, nSegs)
	for i := 0; i < nSegs; i++ {
		segNames[i] = segKey(i)
		for j, card := range sCards {
			sCat[j][i] = fmt.Sprintf("s%d_%d", j, rng.Intn(card))
		}
		sNum[i] = rng.NormFloat64()
	}
	segCols := []*data.Column{data.NewString("seg", segNames)}
	for j := range sCat {
		segCols = append(segCols, data.NewString(fmt.Sprintf("s_cat%d", j), sCat[j]))
	}
	segCols = append(segCols, data.NewFloat("s_num0", sNum))
	segments := data.MustNewTable("segments", segCols...)

	// Fact: skewed string FK + 8 categoricals + numerics + label.
	ids := make([]int64, rows)
	segFK := make([]string, rows)
	fkIdx := make([]int, rows)
	eCards := []int{6, 12, 4, 8, 18, 5, 9, 24}
	eCat := make([][]string, len(eCards))
	for j := range eCat {
		eCat[j] = make([]string, rows)
	}
	eNum0 := make([]float64, rows)
	eNum1 := make([]float64, rows)
	label := make([]float64, rows)
	for i := 0; i < rows; i++ {
		ids[i] = int64(i)
		k := rng.Intn(nSegs)
		if rng.Float64() < 0.5 {
			k = rng.Intn(8) // hot segments
		}
		fkIdx[i] = k
		segFK[i] = segKey(k)
		for j, card := range eCards {
			eCat[j][i] = fmt.Sprintf("e%d_%d", j, rng.Intn(card))
		}
		eNum0[i] = rng.NormFloat64()
		eNum1[i] = 10 * rng.Float64()
		z := 0.8*eNum0[i] + 0.2*eNum1[i] - 1 + 0.5*sNum[k]
		if eCat[0][i] == "e0_1" {
			z += 0.9
		}
		if z+rng.NormFloat64() > 0 {
			label[i] = 1
		}
	}
	eventCols := []*data.Column{data.NewInt("event_id", ids), data.NewString("seg", segFK)}
	for j := range eCat {
		eventCols = append(eventCols, data.NewString(fmt.Sprintf("e_cat%d", j), eCat[j]))
	}
	eventCols = append(eventCols,
		data.NewFloat("e_num0", eNum0), data.NewFloat("e_num1", eNum1))
	events := data.MustNewTable("events", eventCols...)

	// Train on a joined sample (events ⋈ segments), label included.
	sampleN := 1200
	sample := events.Slice(0, sampleN).Clone()
	gather := make([]int, sampleN)
	copy(gather, fkIdx[:sampleN])
	segRows := segments.Gather(gather)
	for _, c := range segRows.Cols {
		if c.Name == "seg" {
			continue
		}
		if err := sample.AddColumn(c); err != nil {
			b.Fatal(err)
		}
	}
	if err := sample.AddColumn(data.NewFloat("label", label[:sampleN])); err != nil {
		b.Fatal(err)
	}
	spec := train.Spec{
		Name:    "string_join_logistic",
		Label:   "label",
		Kind:    train.KindLogistic,
		Numeric: []string{"e_num0", "e_num1", "s_num0"},
	}
	spec.Categorical = append(spec.Categorical, "seg")
	for j := range eCat {
		spec.Categorical = append(spec.Categorical, fmt.Sprintf("e_cat%d", j))
	}
	for j := range sCat {
		spec.Categorical = append(spec.Categorical, fmt.Sprintf("s_cat%d", j))
	}
	pipe, err := train.FitPipeline(sample, spec)
	if err != nil {
		b.Fatal(err)
	}

	q := "WITH d AS (SELECT * FROM events AS t0 JOIN segments AS t1 ON t0.seg = t1.seg) " +
		"SELECT p.score FROM PREDICT(MODEL = string_join_logistic, DATA = d) WITH (score FLOAT) AS p"
	variants := []struct {
		name            string
		events, segment *Table
	}{
		{"raw", events, segments},
		{"dict", data.DictEncodeTable(events), data.DictEncodeTable(segments)},
	}
	dops := []int{1, 4}
	if n := runtime.NumCPU(); n > 4 {
		dops = append(dops, n)
	}
	rawNs := make(map[int]float64, len(dops))
	for _, v := range variants {
		for _, dop := range dops {
			b.Run(fmt.Sprintf("encoding=%s/dop=%d", v.name, dop), func(b *testing.B) {
				s := NewSession(WithParallelism(dop))
				s.RegisterTable(v.events)
				s.RegisterTable(v.segment)
				if err := s.RegisterModel(pipe); err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					res, err := s.Query(q)
					if err != nil {
						b.Fatal(err)
					}
					if res.Table.NumRows() != rows {
						b.Fatalf("join lost rows: %d", res.Table.NumRows())
					}
				}
				perOp := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
				b.ReportMetric(float64(rows*b.N)/b.Elapsed().Seconds(), "rows/s")
				if v.name == "raw" {
					rawNs[dop] = perOp
				} else if base := rawNs[dop]; base > 0 {
					b.ReportMetric(base/perOp, "dict_speedup")
				}
			})
		}
	}
}

// BenchmarkTopKOverPredict measures what the LIMIT top-k heap is worth
// against a full sort on ranked prediction output at high group
// cardinality. Setup (untimed) runs the canonical ranking pipeline once —
// grouped AVG-of-predicted-score keyed by srch_id, which at 150k searches
// yields 150k groups — and registers the scored table; the sub-benchmarks
// then run `ORDER BY s DESC` with and without `LIMIT 10` over it at DOP 1
// and NumCPU. "full" pays the O(n log n) sort of every group (at DOP > 1,
// per-worker sorted runs k-way merged); "topk" keeps a 10-entry bounded
// heap per run, O(n log k). The topk sub-benchmarks report a
// "topk_speedup" metric vs the measured full sort at the same DOP, and
// the differential harnesses pin both to byte-identical results.
func BenchmarkTopKOverPredict(b *testing.B) {
	const rows = 150000
	ds := datagen.Expedia(rows, 9)
	pipe, err := ds.Train(train.KindLogistic, nil)
	if err != nil {
		b.Fatal(err)
	}
	setup := NewSession(WithParallelism(runtime.NumCPU()))
	for _, t := range ds.Tables {
		setup.RegisterTable(t)
	}
	if err := setup.RegisterModel(pipe); err != nil {
		b.Fatal(err)
	}
	grouped := strings.Replace(ds.Query(pipe.Name), "SELECT p.score FROM",
		"SELECT d.srch_id AS sid, AVG(p.score) AS s FROM", 1) + " GROUP BY d.srch_id"
	res, err := setup.Query(grouped)
	if err != nil {
		b.Fatal(err)
	}
	if res.Table.NumRows() < 100000 {
		b.Fatalf("scored table has %d groups, want >= 100000", res.Table.NumRows())
	}
	scored := data.MustNewTable("scored", res.Table.Cols...)

	dops := []int{1, 4}
	if n := runtime.NumCPU(); n > 4 {
		dops = append(dops, n)
	}
	fullNs := make(map[int]float64) // dop → full-sort ns/op
	for _, shape := range []struct{ name, sql string }{
		{"full", "SELECT sid, s FROM scored ORDER BY s DESC"},
		{"topk", "SELECT sid, s FROM scored ORDER BY s DESC LIMIT 10"},
	} {
		for _, dop := range dops {
			b.Run(fmt.Sprintf("shape=%s/dop=%d", shape.name, dop), func(b *testing.B) {
				s := NewSession(WithParallelism(dop))
				s.RegisterTable(scored)
				b.ReportAllocs()
				b.ResetTimer()
				var got *Result
				for i := 0; i < b.N; i++ {
					var err error
					got, err = s.Query(shape.sql)
					if err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				wantRows := scored.NumRows()
				if shape.name == "topk" {
					wantRows = 10
				}
				if got.Table.NumRows() != wantRows {
					b.Fatalf("%s returned %d rows, want %d", shape.name, got.Table.NumRows(), wantRows)
				}
				perOp := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
				b.ReportMetric(float64(scored.NumRows()*b.N)/b.Elapsed().Seconds(), "rows/s")
				if shape.name == "full" {
					fullNs[dop] = perOp
				} else if base := fullNs[dop]; base > 0 {
					b.ReportMetric(base/perOp, "topk_speedup")
				}
			})
		}
	}
}

// BenchmarkConcurrentServing measures the serving path end to end: one
// session — its plan cache, shared ML session pool and the process-wide
// morsel scheduler — serving a mixed workload (full predict scan +
// grouped ranking) from 8 concurrent clients. Each sub-benchmark reports
// qps and p99_ms across all client-observed latencies. "plancache=off"
// replans every query (the cold-planning baseline WithPlanCacheSize(-1)
// exists for); "plancache=on" asserts the cache actually hits and
// reports plancache_speedup vs that baseline at the same concurrency.
func BenchmarkConcurrentServing(b *testing.B) {
	const rows = 20000
	const clients = 8
	ds := datagen.Hospital(rows, 7)
	pipe, err := ds.Train(train.KindLogistic, nil)
	if err != nil {
		b.Fatal(err)
	}
	queries := []string{
		ds.Query(pipe.Name),
		ds.RankedGroupedQuery(pipe.Name, 0.05, 5),
	}
	newSession := func(b *testing.B, cacheSize int) *Session {
		s := NewSession(WithParallelism(4), WithPlanCacheSize(cacheSize))
		for _, t := range ds.Tables {
			s.RegisterTable(t)
		}
		if err := s.RegisterModel(pipe); err != nil {
			b.Fatal(err)
		}
		return s
	}
	var coldNs float64
	for _, mode := range []struct {
		name  string
		cache int
	}{
		{"plancache=off", -1},
		{"plancache=on", defaultPlanCacheSize},
	} {
		b.Run(fmt.Sprintf("%s/clients=%d", mode.name, clients), func(b *testing.B) {
			s := newSession(b, mode.cache)
			// Warm run of each shape: primes the ML session pool (and
			// the plan cache when enabled) so the timed section measures
			// steady-state serving, not cold start.
			for _, q := range queries {
				if _, err := s.Query(q); err != nil {
					b.Fatal(err)
				}
			}
			perClient := make([][]time.Duration, clients)
			b.ReportAllocs()
			b.ResetTimer()
			var wg sync.WaitGroup
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					for i := 0; i < b.N; i++ {
						q := queries[(c+i)%len(queries)]
						start := time.Now()
						if _, err := s.Query(q); err != nil {
							b.Error(err)
							return
						}
						perClient[c] = append(perClient[c], time.Since(start))
					}
				}(c)
			}
			wg.Wait()
			b.StopTimer()
			if b.Failed() {
				return
			}
			var lat []time.Duration
			for _, l := range perClient {
				lat = append(lat, l...)
			}
			sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
			p99 := lat[len(lat)*99/100]
			b.ReportMetric(float64(len(lat))/b.Elapsed().Seconds(), "qps")
			b.ReportMetric(float64(p99.Nanoseconds())/1e6, "p99_ms")
			if mode.cache > 0 {
				hits, misses := s.PlanCacheStats()
				if hits == 0 {
					b.Fatalf("plan cache never hit (hits=%d misses=%d)", hits, misses)
				}
			}
			perOp := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
			if mode.cache < 0 {
				coldNs = perOp
			} else if coldNs > 0 {
				b.ReportMetric(coldNs/perOp, "plancache_speedup")
			}
		})
	}
}
