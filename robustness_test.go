package raven

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"raven/internal/fault"
	"raven/internal/sched"
	"raven/internal/testfix"
)

// groupedCovidQuery crosses every pipeline breaker: the join builds, the
// grouped-aggregation merge, and the sort merge. Clean control queries in
// the isolation tests use testfix.CovidQuery, which has no GROUP BY or
// ORDER BY and therefore never crosses the group/sort fault sites.
const groupedCovidQuery = `
WITH d AS (
  SELECT * FROM patient_info AS pi
  JOIN pulmonary_test AS pt ON pi.id = pt.id
)
SELECT d.asthma, AVG(p.score) AS avg_score
FROM PREDICT(MODEL = covid_risk, DATA = d) WITH (score FLOAT) AS p
GROUP BY d.asthma
ORDER BY AVG(p.score) DESC`

// replicatedCovidSession scales the covid tables up so parallel scans get
// real morsel counts (the seed tables are six rows).
func replicatedCovidSession(t *testing.T, factor int, options ...Option) *Session {
	t.Helper()
	s := NewSession(options...)
	pi, pt, bt := testfix.CovidTables()
	s.RegisterTable(Replicate(pi, factor, "id"))
	s.RegisterTable(Replicate(pt, factor, "id"))
	s.RegisterTable(Replicate(bt, factor, "id"))
	if err := s.RegisterModel(testfix.CovidPipeline()); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestQueryContextCancelAndDeadline(t *testing.T) {
	testfix.LeakCheck(t)
	s := replicatedCovidSession(t, 2000, WithParallelism(4))
	pool := sched.New(4)
	defer pool.Close()
	s.profile.Sched = pool

	t.Run("already-canceled", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := s.QueryContext(ctx, testfix.CovidQuery); !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	})
	t.Run("cancel-mid-query", func(t *testing.T) {
		f := testfix.InjectFaults(t)
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		f.CallAt(fault.SiteExchangeMorsel, 2, cancel)
		if _, err := s.QueryContext(ctx, groupedCovidQuery); !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	})
	t.Run("deadline-mid-query", func(t *testing.T) {
		f := testfix.InjectFaults(t)
		f.DelayAt(fault.SiteExchangeMorsel, 1, 80*time.Millisecond)
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
		defer cancel()
		if _, err := s.QueryContext(ctx, groupedCovidQuery); !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("err = %v, want context.DeadlineExceeded", err)
		}
	})
	// Whatever happened above, the scheduler slots and ML sessions are
	// free again and the session still answers queries.
	if got := pool.Admitted(); got != 0 {
		t.Fatalf("Admitted = %d after canceled queries, want 0", got)
	}
	if out := s.cat.Sessions().Outstanding(); out != 0 {
		t.Fatalf("%d ML session(s) still checked out", out)
	}
	if _, err := s.Query(groupedCovidQuery); err != nil {
		t.Fatalf("session unusable after cancellations: %v", err)
	}
}

// A canceled heavy ranking query must free its scheduler admission slot
// within a bounded interval of QueryContext returning — pinned here to
// the moment of return, since release sits on the query thread's defer
// chain.
func TestCanceledHeavyQueryFreesSlotsPromptly(t *testing.T) {
	testfix.LeakCheck(t)
	s := replicatedCovidSession(t, 25000, WithParallelism(4))
	pool := sched.New(4)
	defer pool.Close()
	s.profile.Sched = pool
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := s.QueryContext(ctx, groupedCovidQuery)
	if err == nil {
		t.Skip("query finished before the cancel landed; nothing to pin")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// Bounded reaction: one morsel/batch of work, far under the full
	// 150k-row ranking query.
	deadline := time.Now().Add(2 * time.Second)
	for pool.Admitted() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("Admitted = %d, slot not freed within 2s of cancel (query returned after %v)",
				pool.Admitted(), time.Since(start))
		}
		time.Sleep(time.Millisecond)
	}
	if out := s.cat.Sessions().Outstanding(); out != 0 {
		t.Fatalf("%d ML session(s) still checked out", out)
	}
}

func TestOverloadedReturnsTypedError(t *testing.T) {
	testfix.LeakCheck(t)
	s := replicatedCovidSession(t, 2000, WithParallelism(4))
	pool := sched.New(2)
	defer pool.Close()
	s.profile.Sched = pool
	pool.SetAdmissionLimit(1)
	pool.SetAdmitWait(25 * time.Millisecond)
	release := pool.Admit()
	_, err := s.QueryContext(context.Background(), testfix.CovidQuery)
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("err = %v, want ErrOverloaded", err)
	}
	release()
	// With the slot free the same query goes through.
	if _, err := s.QueryContext(context.Background(), testfix.CovidQuery); err != nil {
		t.Fatalf("query after release: %v", err)
	}
	if got := pool.Admitted(); got != 0 {
		t.Fatalf("Admitted = %d, want 0", got)
	}
}

// Breaker-level faults through the public API: a panic or cancel inside
// the grouped-aggregation or sort merge poisons that query only.
func TestBreakerFaultsSurfaceAsQueryErrors(t *testing.T) {
	testfix.LeakCheck(t)
	s := replicatedCovidSession(t, 2000, WithParallelism(4))
	for _, site := range []string{fault.SiteGroupMerge, fault.SiteSortMerge} {
		t.Run(site+"/panic", func(t *testing.T) {
			f := testfix.InjectFaults(t)
			f.PanicAt(site, 1, "injected: "+site)
			_, err := s.QueryContext(context.Background(), groupedCovidQuery)
			var pe *PanicError
			if !errors.As(err, &pe) {
				t.Fatalf("err = %v, want *raven.PanicError", err)
			}
			if f.Hits(site) == 0 {
				t.Fatalf("site %s never crossed", site)
			}
		})
		t.Run(site+"/cancel", func(t *testing.T) {
			f := testfix.InjectFaults(t)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			f.CallAt(site, 1, cancel)
			_, err := s.QueryContext(ctx, groupedCovidQuery)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
		})
	}
	if out := s.cat.Sessions().Outstanding(); out != 0 {
		t.Fatalf("%d ML session(s) still checked out", out)
	}
	if _, err := s.Query(groupedCovidQuery); err != nil {
		t.Fatalf("session unusable after breaker faults: %v", err)
	}
}

// ML sessions return to the pool on failed queries: every checked-out
// session is released (Outstanding returns to zero) and the pool's warm
// list is no shorter after the failures than after the clean warm-up run,
// so a failed query neither leaks nor discards the sessions it held.
func TestSessionsReturnToPoolOnFailedQueries(t *testing.T) {
	testfix.LeakCheck(t)
	// Without optimizations the model stays on the ML runtime (the
	// optimizer would otherwise compile this model to SQL and check out
	// no sessions at all).
	s := replicatedCovidSession(t, 2000, WithParallelism(4), WithoutOptimizations())
	// Warm the pool with one clean run and note its session counters.
	warm, err := s.Query(testfix.CovidQuery)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Sessions == 0 {
		t.Fatal("warm run reports no sessions; counter wiring broken")
	}
	warmPool := s.cat.Sessions().Warm()
	f := testfix.InjectFaults(t)
	boom := errors.New("boom")
	// Arm each fault relative to the site's current hit count: one query
	// dies at session checkout, the next mid-stream at the predict
	// boundary.
	for i, site := range []string{fault.SiteSessionCheckout, fault.SitePredictNext} {
		f.FailAt(site, f.Hits(site)+1, boom)
		if _, err := s.QueryContext(context.Background(), testfix.CovidQuery); !errors.Is(err, boom) {
			t.Fatalf("poisoned query %d (%s): err = %v, want boom", i, site, err)
		}
		if out := s.cat.Sessions().Outstanding(); out != 0 {
			t.Fatalf("poisoned query %d (%s) leaked %d session(s)", i, site, out)
		}
	}
	fault.Clear()
	// A query may run more worker chains than the warm-up did and so build
	// a session cold; what the failures must not do is shrink the pool.
	if got := s.cat.Sessions().Warm(); got < warmPool {
		t.Fatalf("warm sessions = %d after failures, want >= %d (pool should still be warm)", got, warmPool)
	}
	res, err := s.Query(testfix.CovidQuery)
	if err != nil {
		t.Fatal(err)
	}
	assertResultIdentical(t, warm, res)
}

// One poisoned query, many clean ones, all in flight together on the
// shared scheduler: the poisoned query dies with a *PanicError, the clean
// queries' results stay byte-identical to a serial reference. The victim
// is targeted through the sort-merge site, which only its ORDER BY plan
// crosses.
func TestPoisonedQueryDoesNotPerturbConcurrentQueries(t *testing.T) {
	testfix.LeakCheck(t)
	s := replicatedCovidSession(t, 2000, WithParallelism(4))
	serialRef, err := replicatedCovidSession(t, 2000).Query(testfix.CovidQuery)
	if err != nil {
		t.Fatal(err)
	}
	f := testfix.InjectFaults(t)
	f.PanicAt(fault.SiteSortMerge, 1, "poisoned victim")

	const clean = 6
	var wg sync.WaitGroup
	victimErr := make(chan error, 1)
	cleanRes := make([]*Result, clean)
	cleanErr := make([]error, clean)
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, err := s.QueryContext(context.Background(), groupedCovidQuery)
		victimErr <- err
	}()
	for i := 0; i < clean; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cleanRes[i], cleanErr[i] = s.QueryContext(context.Background(), testfix.CovidQuery)
		}(i)
	}
	wg.Wait()
	var pe *PanicError
	if err := <-victimErr; !errors.As(err, &pe) {
		t.Fatalf("victim err = %v, want *raven.PanicError", err)
	}
	for i := 0; i < clean; i++ {
		if cleanErr[i] != nil {
			t.Fatalf("clean query %d: %v", i, cleanErr[i])
		}
		assertResultIdentical(t, serialRef, cleanRes[i])
	}
	if out := s.cat.Sessions().Outstanding(); out != 0 {
		t.Fatalf("%d ML session(s) still checked out", out)
	}
}

// Cancellation storm: a mix of clean, canceled, and deadline-bound
// queries hammering one shared session. Clean queries must stay
// byte-identical to the serial reference, and afterwards every slot and
// session is back.
func TestCancellationStorm(t *testing.T) {
	testfix.LeakCheck(t)
	s := replicatedCovidSession(t, 2000, WithParallelism(4))
	pool := sched.New(4)
	defer pool.Close()
	s.profile.Sched = pool
	serialRef, err := replicatedCovidSession(t, 2000).Query(groupedCovidQuery)
	if err != nil {
		t.Fatal(err)
	}
	const lanes = 8
	var wg sync.WaitGroup
	errs := make([]error, lanes*3)
	results := make([]*Result, lanes*3)
	for lane := 0; lane < lanes; lane++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			// Clean query: must succeed byte-identically.
			results[lane*3], errs[lane*3] = s.QueryContext(context.Background(), groupedCovidQuery)
			// Canceled mid-flight at a per-lane staggered moment.
			ctx, cancel := context.WithCancel(context.Background())
			timer := time.AfterFunc(time.Duration(lane)*time.Millisecond, cancel)
			_, errs[lane*3+1] = s.QueryContext(ctx, groupedCovidQuery)
			timer.Stop()
			cancel()
			// Deadline-bound: may or may not finish in time.
			dctx, dcancel := context.WithTimeout(context.Background(), time.Duration(lane+1)*time.Millisecond)
			_, errs[lane*3+2] = s.QueryContext(dctx, groupedCovidQuery)
			dcancel()
		}(lane)
	}
	wg.Wait()
	for lane := 0; lane < lanes; lane++ {
		if errs[lane*3] != nil {
			t.Fatalf("lane %d clean query: %v", lane, errs[lane*3])
		}
		assertResultIdentical(t, serialRef, results[lane*3])
		for off := 1; off <= 2; off++ {
			err := errs[lane*3+off]
			if err != nil && !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("lane %d query %d: unexpected error %v", lane, off, err)
			}
		}
	}
	if got := pool.Admitted(); got != 0 {
		t.Fatalf("Admitted = %d after storm, want 0", got)
	}
	if out := s.cat.Sessions().Outstanding(); out != 0 {
		t.Fatalf("%d ML session(s) still checked out after storm", out)
	}
}
