package engine_test

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"raven/internal/datagen"
	"raven/internal/engine"
	"raven/internal/ir"
	"raven/internal/opt"
	"raven/internal/relational"
	"raven/internal/sched"
	"raven/internal/sqlparse"
)

// The shared morsel scheduler admits queries round-robin: each scheduled
// job gets a turn per dispatch cycle regardless of how many morsels it
// has queued. This test pins the user-visible consequence: a point
// lookup dispatched while two ~150k-group ranking queries monopolize the
// worker pool must wait for about one in-flight heavy morsel, not for the
// heavy queries' exchanges to drain (which serving jobs in arrival order
// would force).
func TestPointLookupNotStarvedByHeavyRanking(t *testing.T) {
	if testing.Short() {
		t.Skip("fairness harness is not short")
	}
	const rows = 150000
	ds := datagen.Expedia(rows, 23)
	dictCat, _, model := diffCatalogs(t, diffCase{ds: ds, opts: opt.DefaultOptions()})
	// The lookup reads a chunk-backed copy of the tables, whose zone maps
	// cut its scan to the one chunk holding the key: one exchange task,
	// so under load it waits for one scheduler turn.
	chunkCat, err := ds.ChunkedCatalog(0)
	if err != nil {
		t.Fatal(err)
	}

	// A private pool with at least four workers makes the test exercise
	// round-robin dispatch identically on every machine: even on one
	// core, the workers time-share the CPU but morsels still dispatch
	// through the scheduler's per-job turn taking.
	workers := runtime.NumCPU()
	if workers < 4 {
		workers = 4
	}
	pool := sched.New(workers)
	defer pool.Close()
	prof := engine.Local
	prof.ExecDOP = workers
	prof.Sched = pool
	plan := func(sql string, cat *engine.Catalog) *ir.Graph {
		t.Helper()
		g, err := sqlparse.ParseAndPlan(sql, cat)
		if err != nil {
			t.Fatal(err)
		}
		og, _, err := opt.New(cat, opt.DefaultOptions()).Optimize(g)
		if err != nil {
			t.Fatal(err)
		}
		return og
	}

	// Heavy: predictions over the three-table join, grouped by the unique
	// search id — one group per fact row, so the merge breaker folds
	// ~150k groups — ranked and windowed. Saturates every worker.
	heavyG := plan(fmt.Sprintf(
		"WITH d AS (SELECT * FROM searches AS t0"+
			" JOIN hotels AS t1 ON t0.prop_id = t1.prop_id"+
			" JOIN destinations AS t2 ON t0.dest_id = t2.dest_id)"+
			" SELECT d.srch_id, AVG(p.score) AS avg_score"+
			" FROM PREDICT(MODEL = %s, DATA = d) WITH (score FLOAT) AS p"+
			" GROUP BY d.srch_id HAVING avg_score > 0.01"+
			" ORDER BY avg_score DESC LIMIT 100", model), dictCat)
	// Point: a single-row key lookup over the fact table, the
	// latency-sensitive side of the workload.
	pointG := plan(fmt.Sprintf(
		"SELECT s.price_usd, s.promotion_flag FROM searches AS s WHERE s.srch_id = %d", rows/2), chunkCat)

	// One warm run of each: correctness check, and the heavy run primes
	// the shared ML session pool so the loaded phase measures scheduling,
	// not cold-start featurization buffers.
	heavyStart := time.Now()
	heavyRes, err := engine.Run(heavyG, dictCat, prof)
	if err != nil {
		t.Fatal(err)
	}
	heavySolo := time.Since(heavyStart)
	if n := heavyRes.Table.NumRows(); n == 0 || n > 100 {
		t.Fatalf("heavy ranking returned %d rows, want 1..100", n)
	}
	morsel := heavyMorselTime(t, heavyRes.Root)
	pointRes, err := engine.Run(pointG, chunkCat, prof)
	if err != nil {
		t.Fatal(err)
	}
	if n := pointRes.Table.NumRows(); n != 1 {
		t.Fatalf("point lookup returned %d rows, want 1", n)
	}
	if pointRes.ChunksDecoded != 1 {
		t.Fatalf("point lookup decoded %d chunks, want the one holding its key", pointRes.ChunksDecoded)
	}

	medianLatency := func(runs int) time.Duration {
		t.Helper()
		lat := make([]time.Duration, runs)
		for i := range lat {
			start := time.Now()
			if _, err := engine.Run(pointG, chunkCat, prof); err != nil {
				t.Fatal(err)
			}
			lat[i] = time.Since(start)
		}
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		return lat[runs/2]
	}
	solo := medianLatency(7)

	// Two goroutines re-run the heavy ranking back to back for the whole
	// measurement window, keeping the shared pool's queues full of heavy
	// morsels while the point lookups arrive.
	stop := make(chan struct{})
	started := make(chan struct{}, 2)
	var heavy sync.WaitGroup
	for i := 0; i < 2; i++ {
		heavy.Add(1)
		go func() {
			defer heavy.Done()
			first := true
			for {
				select {
				case <-stop:
					return
				default:
				}
				if first {
					started <- struct{}{}
					first = false
				}
				if _, err := engine.Run(heavyG, dictCat, prof); err != nil {
					t.Errorf("heavy ranking under load: %v", err)
					return
				}
			}
		}()
	}
	<-started
	<-started
	// Let the heavy queries actually occupy the pool before measuring.
	time.Sleep(50 * time.Millisecond)
	loaded := medianLatency(7)
	close(stop)
	heavy.Wait()

	// Round-robin dispatch hands the lookup's one task the next turn: it
	// waits until one of the busy workers finishes its heavy morsel (the
	// ring may put the two heavy jobs first, so up to three morsel ends),
	// and its own query thread shares the cores with the heavy queries.
	// Both terms are measured in this run, under this build's flags (the
	// race detector slows heavy morsels tenfold). Serving jobs in arrival
	// order instead holds the lookup until the older heavy exchanges have
	// drained, about 150 heavy morsels over the workers: under -race on a
	// 2-core host that read 1.5–1.9 s against bounds of 130–200 ms.
	// Without -race the lookup was not held back under either order: the
	// heavy queue apparently runs dry behind the serial merge.
	bound := 4*solo + 4*morsel
	t.Logf("point lookup median: solo=%v loaded=%v bound=%v (heavy morsel %v, heavy ranking alone %v)",
		solo, loaded, bound, morsel, heavySolo)
	if loaded > bound {
		t.Fatalf("point lookup starved: solo median %v, loaded median %v exceeds bound %v",
			solo, loaded, bound)
	}
}

// heavyMorselTime returns the largest mean worker time per morsel over the
// plan's exchanges: a segment's summed worker time (the template operators
// absorb their clones' statistics) over its scan's morsels.
func heavyMorselTime(t *testing.T, root relational.Operator) time.Duration {
	t.Helper()
	var best time.Duration
	var walk func(op relational.Operator)
	walk = func(op relational.Operator) {
		if ex, ok := op.(*relational.Exchange); ok {
			ns, morsels := ex.Template.Stats().WallNs, int64(0)
			for leaf := ex.Template; ; leaf = leaf.Children()[0] {
				if s, ok := leaf.(*relational.Scan); ok {
					ns += s.Stats().WallNs
					morsels = s.Stats().Batches
					break
				}
				if len(leaf.Children()) == 0 {
					break
				}
			}
			if morsels > 0 {
				best = max(best, time.Duration(ns/morsels))
			}
		}
		for _, c := range op.Children() {
			walk(c)
		}
	}
	walk(root)
	if best == 0 {
		t.Fatal("heavy ranking ran no exchange: nothing loads the pool")
	}
	return best
}
