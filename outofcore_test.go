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
