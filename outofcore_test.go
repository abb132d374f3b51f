package raven

import (
	"fmt"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"

	"raven/internal/data"
	"raven/internal/fault"
	"raven/internal/model"
	"raven/internal/sched"
	"raven/internal/testfix"
)

// End-to-end out-of-core tests: a chunk-backed catalog much larger than
// the engine-global memory budget, queried through the full SQL path —
// results must stay byte-identical to an unbudgeted in-memory session at
// every DOP, concurrent queries must all complete (the per-query
// admission floor prevents livelock), and no spill file may survive.

// outofcoreGlobalBudget is far below the fixture's catalog size, so the
// join build must spill on every query.
const outofcoreGlobalBudget = 4096

// outofcoreChunkRows is misaligned with the engine's batch sizes so most
// scan batches span chunk boundaries.
const outofcoreChunkRows = 97

func outofcoreTables(n int) (*Table, *Table) {
	ids := make([]int64, n)
	keys := make([]int64, n)
	vs := make([]float64, n)
	grp := make([]string, n)
	for i := 0; i < n; i++ {
		ids[i] = int64(i)
		keys[i] = int64(i % 1000)
		vs[i] = float64(i%89) * 0.1
		grp[i] = []string{"a", "b", "c"}[i*3/n]
	}
	fact := data.MustNewTable("fact",
		data.NewInt("id", ids), data.NewInt("k", keys),
		data.NewFloat("v", vs), data.NewString("grp", grp))
	const dimRows = 500
	dk := make([]int64, dimRows)
	dv := make([]float64, dimRows)
	for i := 0; i < dimRows; i++ {
		dk[i] = int64(i)
		dv[i] = float64(i) * 1.5
	}
	dim := data.MustNewTable("dim", data.NewInt("dk", dk), data.NewFloat("dv", dv))
	return fact, dim
}

// outofcoreQuery drives all three breaker kinds over the chunked catalog.
const outofcoreQuery = `
SELECT f.grp, COUNT(*) AS n, SUM(d.dv) AS sv, AVG(f.v) AS av
FROM fact AS f JOIN dim AS d ON f.k = d.dk
GROUP BY f.grp
ORDER BY f.grp`

// outofcoreSession registers the fixture chunk-backed under the given
// options (in-memory when chunked is false).
func outofcoreSession(t testing.TB, chunked bool, options ...Option) *Session {
	t.Helper()
	s := NewSession(options...)
	fact, dim := outofcoreTables(40000)
	if !chunked {
		s.RegisterTable(fact)
		s.RegisterTable(dim)
		return s
	}
	if err := s.RegisterTableChunked(fact, outofcoreChunkRows); err != nil {
		t.Fatal(err)
	}
	if err := s.RegisterTableChunked(dim, outofcoreChunkRows); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestGlobalMemoryBudgetChunkedCatalogMatchesInMemory(t *testing.T) {
	fact, dim := outofcoreTables(40000)
	if total := fact.ByteSize() + dim.ByteSize(); total <= outofcoreGlobalBudget {
		t.Fatalf("fixture too small: catalog %d bytes must exceed the %d-byte budget",
			total, outofcoreGlobalBudget)
	}
	base, err := outofcoreSession(t, false).Query(outofcoreQuery)
	if err != nil {
		t.Fatal(err)
	}
	if base.Table.NumRows() != 3 || base.SpilledBytes != 0 {
		t.Fatalf("baseline: %d rows, %d spilled bytes; want 3 rows in memory",
			base.Table.NumRows(), base.SpilledBytes)
	}
	dops := []int{1, 2, 4}
	if n := runtime.NumCPU(); n > 4 {
		dops = append(dops, n)
	}
	for _, dop := range dops {
		t.Run(fmt.Sprintf("dop=%d", dop), func(t *testing.T) {
			dir := t.TempDir()
			s := outofcoreSession(t, true,
				WithGlobalMemoryBudget(outofcoreGlobalBudget, dir), WithParallelism(dop))
			res, err := s.Query(outofcoreQuery)
			if err != nil {
				t.Fatal(err)
			}
			if res.SpilledBytes == 0 {
				t.Fatal("global budget below catalog size did not spill")
			}
			assertResultIdentical(t, base, res)
			ents, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			if len(ents) != 0 {
				t.Fatalf("%d spill files outlived the query", len(ents))
			}
		})
	}
}

// TestGlobalMemoryBudgetConcurrentQueriesSpill shares one global budget
// across many in-flight queries. Every query must complete and spill
// (the per-query floor guarantees forward progress even with the global
// budget exhausted), accounting must return to zero afterwards, and the
// spill directory must be empty.
func TestGlobalMemoryBudgetConcurrentQueriesSpill(t *testing.T) {
	dir := t.TempDir()
	s := outofcoreSession(t, true,
		WithGlobalMemoryBudget(outofcoreGlobalBudget, dir), WithParallelism(2))
	const clients, perClient = 8, 2
	results := make([]*Result, clients*perClient)
	errs := make([]error, clients*perClient)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for q := 0; q < perClient; q++ {
				i := c*perClient + q
				results[i], errs[i] = s.Query(outofcoreQuery)
			}
		}(c)
	}
	wg.Wait()
	want := results[0]
	for i := range results {
		if errs[i] != nil {
			t.Fatalf("query %d: %v", i, errs[i])
		}
		if results[i].SpilledBytes == 0 {
			t.Errorf("query %d completed without spilling", i)
		}
		assertResultIdentical(t, want, results[i])
	}
	mem := s.MemoryStats()
	if mem.BudgetBytes != outofcoreGlobalBudget {
		t.Errorf("BudgetBytes = %d, want %d", mem.BudgetBytes, outofcoreGlobalBudget)
	}
	if mem.ActiveQueries != 0 || mem.ReservedBytes != 0 {
		t.Errorf("budget not drained: %d active queries, %d reserved bytes",
			mem.ActiveQueries, mem.ReservedBytes)
	}
	if mem.SpilledBytes == 0 || mem.Spills == 0 {
		t.Errorf("global stats missed the spills: %+v", mem)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		t.Fatalf("%d spill files outlived the queries", len(ents))
	}
}

// TestGlobalMemoryBudgetSerialQueriesStayWithinTotal is the regression
// test for serial budgeted queries skipping admission: a query's floor is
// Total / AdmitCap, granted even when the pool is exhausted, which is sound
// only while admission caps how many budgeted queries run at once. More
// concurrent serial clients than the admission cap, each sorting a table
// that fits its floor, must never hold more than the total together —
// sampled every time a sort crosses its merge, with the sort lingering
// there so unadmitted neighbors would pile up — and every result must be
// byte-identical to the unbudgeted one.
func TestGlobalMemoryBudgetSerialQueriesStayWithinTotal(t *testing.T) {
	const admitCap, clients, rows = 2, 6, 20000
	ids := make([]int64, rows)
	vs := make([]float64, rows)
	for i := range ids {
		ids[i] = int64(i)
		vs[i] = float64((i * 7919) % rows)
	}
	tbl := data.MustNewTable("t", data.NewInt("id", ids), data.NewFloat("v", vs))
	const query = `SELECT id, v FROM t ORDER BY v`
	ref := NewSession(WithParallelism(1))
	ref.RegisterTable(tbl)
	want, err := ref.Query(query)
	if err != nil {
		t.Fatal(err)
	}
	// Each sort keeps the whole table resident: it fits the floor, and
	// admitCap of them fit the total, but clients of them do not.
	total := tbl.ByteSize() * admitCap * 11 / 10
	dir := t.TempDir()
	s := NewSession(WithGlobalMemoryBudget(total, dir), WithParallelism(1))
	s.RegisterTable(tbl)
	pool := sched.New(2)
	defer pool.Close()
	pool.SetAdmissionLimit(admitCap)
	s.profile.Sched = pool
	f := testfix.InjectFaults(t)
	var mu sync.Mutex
	var peak int64
	for n := 1; n <= clients; n++ {
		f.CallAt(fault.SiteSortMerge, n, func() {
			mu.Lock()
			peak = max(peak, s.MemoryStats().ReservedBytes)
			mu.Unlock()
			time.Sleep(20 * time.Millisecond)
		})
	}
	results := make([]*Result, clients)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[c], errs[c] = s.Query(query)
		}()
	}
	wg.Wait()
	for c := range clients {
		if errs[c] != nil {
			t.Fatalf("client %d: %v", c, errs[c])
		}
		assertResultIdentical(t, want, results[c])
	}
	if hits := f.Hits(fault.SiteSortMerge); hits != clients {
		t.Fatalf("sort.merge crossed %d times, want %d", hits, clients)
	}
	if peak == 0 || peak > total {
		t.Fatalf("peak reserved %d bytes, want within (0, %d]", peak, total)
	}
	if mem := s.MemoryStats(); mem.ActiveQueries != 0 || mem.ReservedBytes != 0 {
		t.Fatalf("budget not drained: %+v", mem)
	}
}

// The skewed join fixtures: a filter on a two-value column the estimator
// misprices by 150x builds the hash join under a predict, the shape whose
// cardinality is least known at plan time.

// riskForest is a 2-tree random forest over the covid feature layout; an
// ensemble (not a DT), so CalibratedRule keeps it on the ML runtime rather
// than collapsing it to MLtoSQL.
func riskForest() *model.Pipeline {
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

// skewTables builds a 6000-row patients table and a 3000-row cohort whose
// grp column holds exactly 10 "rare" rows against 2990 "common" ones: the
// estimator prices grp = 'rare' at 1500 rows (two distinct values, uniform
// assumption), off from the truth by 150x.
func skewTables() (patients, cohort *data.Table) {
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

// skewJoinQuery joins the skew-filtered cohort (the hash-join build side)
// against patients and predicts over the survivors. d.grp is selected so
// the cohort side contributes a used column — otherwise the FK
// join-elimination rule would remove the join entirely.
const skewJoinQuery = `
WITH c AS (SELECT * FROM cohort WHERE grp = 'rare'),
     d AS (SELECT * FROM patients AS pa JOIN c AS co ON pa.id = co.cid)
SELECT d.id, d.grp, p.score
FROM PREDICT(MODEL = risk_rf, DATA = d) WITH (score FLOAT) AS p`

// skewGroupedQuery runs skewJoinQuery's predict through the
// grouped-aggregation and sort breakers.
const skewGroupedQuery = `
WITH c AS (SELECT * FROM cohort WHERE grp = 'rare'),
     d AS (SELECT * FROM patients AS pa JOIN c AS co ON pa.id = co.cid)
SELECT d.asthma, d.grp, AVG(p.score) AS avg_score
FROM PREDICT(MODEL = risk_rf, DATA = d) WITH (score FLOAT) AS p
GROUP BY d.asthma, d.grp
ORDER BY AVG(p.score) DESC`

func skewSession(t testing.TB, options ...Option) *Session {
	t.Helper()
	s := NewSession(options...)
	patients, cohort := skewTables()
	s.RegisterTable(patients)
	s.RegisterTable(cohort)
	if err := s.RegisterModel(riskForest()); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSkewedJoinPredictMatchesSerial runs the skew-filtered
// join → predict and join → predict → GROUP BY → ORDER BY texts at DOP 1,
// 2, 4 (and NumCPU above 4): every result must be byte-identical to the
// serial session's.
func TestSkewedJoinPredictMatchesSerial(t *testing.T) {
	dops := []int{1, 2, 4}
	if n := runtime.NumCPU(); n > 4 {
		dops = append(dops, n)
	}
	for _, tc := range []struct {
		name  string
		query string
		rows  func(n int) bool
	}{
		{"join-predict", skewJoinQuery, func(n int) bool { return n > 0 && n < 100 }},
		{"join-predict-group-order", skewGroupedQuery, func(n int) bool { return n == 2 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base, err := skewSession(t).Query(tc.query)
			if err != nil {
				t.Fatal(err)
			}
			if !tc.rows(base.Table.NumRows()) {
				t.Fatalf("serial rows = %d", base.Table.NumRows())
			}
			for _, dop := range dops {
				t.Run(fmt.Sprintf("dop=%d", dop), func(t *testing.T) {
					res, err := skewSession(t, WithParallelism(dop)).Query(tc.query)
					if err != nil {
						t.Fatal(err)
					}
					assertResultIdentical(t, base, res)
				})
			}
		})
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
	base, err := skewSession(t).Query(query)
	if err != nil {
		t.Fatal(err)
	}
	if base.SpilledBytes != 0 {
		t.Fatalf("unbudgeted query reported %d spilled bytes", base.SpilledBytes)
	}
	for _, dop := range []int{1, 4} {
		dir := t.TempDir()
		s := skewSession(t, WithGlobalMemoryBudget(1, dir), WithParallelism(dop))
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
