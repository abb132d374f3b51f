package engine

import (
	"context"
	"errors"
	"testing"
	"time"

	"raven/internal/data"
	"raven/internal/fault"
	"raven/internal/ir"
	"raven/internal/relational"
	"raven/internal/sched"
	"raven/internal/testfix"
)

// An injected panic at any execution boundary must come back as one
// query's *relational.PanicError — with every ML session returned to the
// pool — and a clean rerun must produce exactly the serial result.
func TestInjectedPanicPoisonsOnlyTheQuery(t *testing.T) {
	testfix.LeakCheck(t)
	cat, g := parallelFixture(t, 8000)
	serial, err := Run(g, cat, Local)
	if err != nil {
		t.Fatal(err)
	}
	prof := Local
	prof.ExecDOP = 4
	// Sites the scan→filter→predict plan crosses at dop 4.
	sites := []string{
		fault.SiteSchedTask,
		fault.SiteExchangeMorsel,
		fault.SitePredictNext,
		fault.SiteSessionCheckout,
	}
	for _, site := range sites {
		t.Run(site, func(t *testing.T) {
			f := testfix.InjectFaults(t)
			f.PanicAt(site, 1, "injected: "+site)
			_, err := RunContext(context.Background(), g, cat, prof)
			var pe *relational.PanicError
			if !errors.As(err, &pe) {
				t.Fatalf("err = %v, want *relational.PanicError", err)
			}
			if f.Hits(site) == 0 {
				t.Fatalf("site %s never crossed", site)
			}
			if out := cat.Sessions().Outstanding(); out != 0 {
				t.Fatalf("%d ML session(s) not returned after panic", out)
			}
			fault.Clear()
			res, err := RunContext(context.Background(), g, cat, prof)
			if err != nil {
				t.Fatalf("clean rerun: %v", err)
			}
			assertResultsIdentical(t, serial.Table, res.Table, "rerun after "+site)
		})
	}
}

// An injected error (not a panic) at a boundary surfaces as the query
// error verbatim, again without losing pooled sessions.
func TestInjectedErrorSurfacesVerbatim(t *testing.T) {
	testfix.LeakCheck(t)
	cat, g := parallelFixture(t, 8000)
	prof := Local
	prof.ExecDOP = 4
	boom := errors.New("injected checkout failure")
	for _, site := range []string{fault.SiteSessionCheckout, fault.SitePredictNext, fault.SiteExchangeMorsel} {
		t.Run(site, func(t *testing.T) {
			f := testfix.InjectFaults(t)
			f.FailAt(site, 1, boom)
			_, err := RunContext(context.Background(), g, cat, prof)
			if !errors.Is(err, boom) {
				t.Fatalf("err = %v, want injected error", err)
			}
			if out := cat.Sessions().Outstanding(); out != 0 {
				t.Fatalf("%d ML session(s) not returned after failure", out)
			}
		})
	}
}

// Join-build breaker: a panic while the build side is being drained (the
// serial covid plan's hash joins) becomes the query's error and the tree
// still closes cleanly.
func TestJoinBuildPanicIsolated(t *testing.T) {
	testfix.LeakCheck(t)
	cat := covidCatalog(t)
	g := covidIR(t, cat)
	serial, err := Run(g, cat, Local)
	if err != nil {
		t.Fatal(err)
	}
	f := testfix.InjectFaults(t)
	f.PanicAt(fault.SiteJoinBuild, 1, "injected: join build")
	_, err = RunContext(context.Background(), g, cat, Local)
	var pe *relational.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *relational.PanicError", err)
	}
	if out := cat.Sessions().Outstanding(); out != 0 {
		t.Fatalf("%d ML session(s) not returned", out)
	}
	fault.Clear()
	res, err := RunContext(context.Background(), g, cat, Local)
	if err != nil {
		t.Fatal(err)
	}
	assertResultsIdentical(t, serial.Table, res.Table, "rerun after join-build panic")
}

// Cancellation at each boundary: CallAt fires the context cancel at
// exactly one execution point, and the engine must surface
// context.Canceled, not a partial result or a hang.
func TestCancelAtExecutionBoundaries(t *testing.T) {
	testfix.LeakCheck(t)
	cat, g := parallelFixture(t, 8000)
	prof := Local
	prof.ExecDOP = 4
	covidCat := covidCatalog(t)
	covidG := covidIR(t, covidCat)
	cases := []struct {
		site string
		run  func(ctx context.Context) error
		cat  *Catalog
	}{
		{fault.SiteExchangeMorsel, func(ctx context.Context) error {
			_, err := RunContext(ctx, g, cat, prof)
			return err
		}, cat},
		{fault.SitePredictNext, func(ctx context.Context) error {
			_, err := RunContext(ctx, covidG, covidCat, Local)
			return err
		}, covidCat},
		{fault.SiteJoinBuild, func(ctx context.Context) error {
			_, err := RunContext(ctx, covidG, covidCat, Local)
			return err
		}, covidCat},
	}
	for _, tc := range cases {
		t.Run(tc.site, func(t *testing.T) {
			f := testfix.InjectFaults(t)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			f.CallAt(tc.site, 1, cancel)
			err := tc.run(ctx)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			if out := tc.cat.Sessions().Outstanding(); out != 0 {
				t.Fatalf("%d ML session(s) not returned after cancel", out)
			}
		})
	}
}

// A canceled parallel query must free its admission slot by the time
// RunContext returns: the release is on the query thread's defer chain,
// not on any worker's.
func TestCancelFreesAdmissionSlot(t *testing.T) {
	testfix.LeakCheck(t)
	cat, g := parallelFixture(t, 8000)
	pool := sched.New(4)
	defer pool.Close()
	prof := Local
	prof.ExecDOP = 4
	prof.Sched = pool
	f := testfix.InjectFaults(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	f.CallAt(fault.SiteExchangeMorsel, 2, cancel)
	if _, err := RunContext(ctx, g, cat, prof); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := pool.Admitted(); got != 0 {
		t.Fatalf("Admitted = %d after canceled query returned, want 0", got)
	}
	// And the slot is genuinely reusable: a clean run still goes through.
	fault.Clear()
	if _, err := RunContext(context.Background(), g, cat, prof); err != nil {
		t.Fatalf("clean run after cancel: %v", err)
	}
}

// A context that expires mid-query surfaces context.DeadlineExceeded.
func TestDeadlineExpiresMidQuery(t *testing.T) {
	testfix.LeakCheck(t)
	cat, g := parallelFixture(t, 8000)
	prof := Local
	prof.ExecDOP = 4
	f := testfix.InjectFaults(t)
	// Stall the first morsel past the deadline so expiry is deterministic.
	f.DelayAt(fault.SiteExchangeMorsel, 1, 80*time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	_, err := RunContext(ctx, g, cat, prof)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if out := cat.Sessions().Outstanding(); out != 0 {
		t.Fatalf("%d ML session(s) not returned after deadline", out)
	}
}

// chunkTaskFixture is parallelFixture with the patients table re-registered
// chunk-backed as two 4096-row chunks: at the local 1024-row batch size the
// exchange runs two tasks of four morsels each, so the third crossing of a
// per-morsel site is always in the middle of a multi-batch chunk task.
func chunkTaskFixture(t *testing.T) (*Catalog, *ir.Graph) {
	t.Helper()
	cat, g := parallelFixture(t, 8192)
	pt, _ := cat.Table("patients")
	b := data.NewChunkedBuilder("patients", 4096)
	if err := b.Append(pt.Parts[0].Table); err != nil {
		t.Fatal(err)
	}
	ct, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if err := cat.RegisterChunked(ct); err != nil {
		t.Fatal(err)
	}
	return cat, g
}

// A panic, an error and a cancel landing in the middle of a multi-batch
// chunk task each end the query with the typed error and nothing else: the
// task still delivers every result slot it owns (no hang), no goroutine or
// ML session leaks, and a clean rerun is byte-identical to serial.
func TestChunkTaskInjectedFaultMidTask(t *testing.T) {
	testfix.LeakCheck(t)
	cat, g := chunkTaskFixture(t)
	serial, err := Run(g, cat, Local)
	if err != nil {
		t.Fatal(err)
	}
	if serial.ChunksDecoded != 2 {
		t.Fatalf("fixture decodes %d chunks, want 2", serial.ChunksDecoded)
	}
	prof := Local
	prof.ExecDOP = 4
	boom := errors.New("injected mid-task failure")
	var pe *relational.PanicError
	cases := []struct {
		name  string
		arm   func(f *testfix.Faults, cancel func())
		typed func(error) bool
	}{
		{"panic", func(f *testfix.Faults, _ func()) { f.PanicAt(fault.SiteExchangeMorsel, 3, "injected: mid-task") },
			func(err error) bool { return errors.As(err, &pe) }},
		{"error", func(f *testfix.Faults, _ func()) { f.FailAt(fault.SiteExchangeMorsel, 3, boom) },
			func(err error) bool { return errors.Is(err, boom) }},
		{"cancel", func(f *testfix.Faults, cancel func()) { f.CallAt(fault.SiteExchangeMorsel, 3, cancel) },
			func(err error) bool { return errors.Is(err, context.Canceled) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := testfix.InjectFaults(t)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			tc.arm(f, cancel)
			if _, err := RunContext(ctx, g, cat, prof); !tc.typed(err) {
				t.Fatalf("err = %v, want the injected %s", err, tc.name)
			}
			if f.Hits(fault.SiteSchedTask) > 2 {
				t.Fatalf("%d tasks ran for 2 chunks", f.Hits(fault.SiteSchedTask))
			}
			if out := cat.Sessions().Outstanding(); out != 0 {
				t.Fatalf("%d ML session(s) not returned", out)
			}
			fault.Clear()
			res, err := RunContext(context.Background(), g, cat, prof)
			if err != nil {
				t.Fatalf("clean rerun: %v", err)
			}
			assertResultsIdentical(t, serial.Table, res.Table, "rerun after mid-task "+tc.name)
			if res.ChunksDecoded != 2 {
				t.Fatalf("rerun decoded %d chunks, want 2", res.ChunksDecoded)
			}
		})
	}
}
