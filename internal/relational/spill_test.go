package relational

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"raven/internal/data"
	"raven/internal/fault"
	"raven/internal/testfix"
)

// Out-of-core differential tests: with a tiny memory budget every
// pipeline breaker (join build, grouped-aggregation merge, sort) must
// spill — and the results, including row order, must stay byte-identical
// to the unbudgeted in-memory execution at every DOP. Spill files must
// never survive the query, on success, error, cancel or panic paths.

// spillBudget is small enough that every shape below spills.
const spillBudget = 2048

// queryBudget is a budget of limit bytes private to one query: a global
// budget whose only admission slot gets the whole total as its floor.
func queryBudget(limit int64, dir string) *MemBudget {
	return NewGlobalBudget(limit, dir).QueryBudgetFor(1)
}

// assertNoSpillFiles asserts the spill dir holds no files.
func assertNoSpillFiles(t *testing.T, dir string) {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		t.Errorf("leaked spill file %s", filepath.Join(dir, e.Name()))
	}
}

// spillShapes are the breaker plans under test; each constructor builds a
// fresh serial plan over the shared fixture.
func spillShapes(t *testing.T) map[string]func() Operator {
	t.Helper()
	// The dimension side must itself exceed the budget so the join build
	// spills its rows (typed indexes stay resident by design).
	pf, dim := breakerJoinFixture(t, 6000, 500)
	fk := floatKeyFixture(6000)
	groupAggs := []AggSpec{
		{Fn: AggCount, As: "n"},
		{Fn: AggSum, Col: "v", As: "sv"},
		{Fn: AggAvg, Col: "v", As: "av"},
		{Fn: AggMin, Col: "v", As: "mn"},
		{Fn: AggMax, Col: "v", As: "mx"},
	}
	return map[string]func() Operator{
		"join": func() Operator {
			return &HashJoin{
				Left:    NewScan(pf, "", nil, 128),
				Right:   NewScan(dim, "", nil, 128),
				LeftKey: "k", RightKey: "dk",
			}
		},
		"group": func() Operator {
			return &GroupAggregate{Child: NewScan(pf, "", nil, 128), Keys: []string{"grp", "k"}, Aggs: groupAggs}
		},
		// One row per group on a single int64 key, like a per-search
		// ranking's srch_id.
		"group-int": func() Operator {
			return &GroupAggregate{Child: NewScan(pf, "", nil, 128), Keys: []string{"id"}, Aggs: groupAggs}
		},
		// A single float key with NaNs of two payloads (one group) and −0
		// next to +0 (two groups).
		"group-float-nan": func() Operator {
			return &GroupAggregate{Child: NewScan(fk, "", nil, 128), Keys: []string{"fk"}, Aggs: groupAggs}
		},
		"sort": func() Operator {
			return &Sort{
				Child: NewScan(pf, "", nil, 128),
				Keys:  []SortKey{{Col: "v", Desc: true}, {Col: "grp"}},
				Limit: -1,
			}
		},
		"sort-limit-offset": func() Operator {
			return &Sort{
				Child:  NewScan(pf, "", nil, 128),
				Keys:   []SortKey{{Col: "grp"}, {Col: "v"}},
				Limit:  50,
				Offset: 17,
			}
		},
	}
}

// floatKeyFixture is n rows of a float group key over 700 values, with
// every 13th key a NaN, every 17th a NaN of another payload and every
// 19th −0, next to a float value column v.
func floatKeyFixture(n int) *data.PartitionedTable {
	fk := make([]float64, n)
	vs := make([]float64, n)
	for i := range fk {
		switch {
		case i%13 == 0:
			fk[i] = math.NaN()
		case i%17 == 0:
			fk[i] = math.Float64frombits(0x7ff8_0000_dead_beef)
		case i%19 == 0:
			fk[i] = math.Copysign(0, -1)
		default:
			fk[i] = float64(i%700) / 4
		}
		vs[i] = float64(i % 89)
	}
	return data.SinglePartition(data.MustNewTable("f", data.NewFloat("fk", fk), data.NewFloat("v", vs)))
}

// TestSpillDifferential runs every shape with a tiny budget at DOP 1, 2,
// 4 and NumCPU and compares byte-for-byte (including row order) against
// the in-memory serial execution.
func TestSpillDifferential(t *testing.T) {
	shapes := spillShapes(t)
	dops := []int{1, 2, 4}
	if n := runtime.NumCPU(); n > 4 {
		dops = append(dops, n)
	}
	for name, mk := range shapes {
		t.Run(name, func(t *testing.T) {
			want, err := Drain(mk())
			if err != nil {
				t.Fatal(err)
			}
			// Serial with budget.
			t.Run("serial", func(t *testing.T) {
				dir := t.TempDir()
				mb := queryBudget(spillBudget, dir)
				got, err := DrainEnv(&Env{Budget: mb}, mk())
				if err != nil {
					t.Fatal(err)
				}
				if mb.Spills() == 0 || mb.SpilledBytes() == 0 {
					t.Fatalf("budget %d did not spill (spills=%d bytes=%d)",
						spillBudget, mb.Spills(), mb.SpilledBytes())
				}
				assertTablesEqual(t, want, got)
				mb.Cleanup()
				assertNoSpillFiles(t, dir)
			})
			for _, dop := range dops {
				t.Run(fmt.Sprintf("dop=%d", dop), func(t *testing.T) {
					dir := t.TempDir()
					mb := queryBudget(spillBudget, dir)
					got, err := DrainEnv(&Env{Budget: mb}, mustParallelize(t, mk(), dop, 128))
					if err != nil {
						t.Fatal(err)
					}
					if mb.Spills() == 0 {
						t.Fatalf("dop=%d did not spill", dop)
					}
					assertTablesEqual(t, want, got)
					mb.Cleanup()
					assertNoSpillFiles(t, dir)
				})
			}
		})
	}
}

// TestSpillStatsReported asserts that each spilling breaker reports the
// volume it spilled in its own OpStats.SpillBytes: every shape's root is
// the one breaker that spills, so a breaker kind that dropped its count
// fails its own shape rather than hiding in a sum.
func TestSpillStatsReported(t *testing.T) {
	for name, mk := range spillShapes(t) {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			mb := queryBudget(spillBudget, dir)
			root := mk()
			if _, err := DrainEnv(&Env{Budget: mb}, root); err != nil {
				t.Fatal(err)
			}
			if mb.SpilledBytes() == 0 {
				t.Fatalf("budget %d did not spill", spillBudget)
			}
			if got := root.Stats().SpillBytes; got <= 0 {
				t.Errorf("%s SpillBytes = %d, want > 0", root.Stats().Name, got)
			}
			mb.Cleanup()
			assertNoSpillFiles(t, dir)
		})
	}
}

// TestSpillFaultPaths injects failures, cancellation and panics at the
// spill-write and spill-read sites and asserts the query surfaces the
// fault while budget cleanup leaves no temp files (and, for parallel
// plans, no goroutines).
func TestSpillFaultPaths(t *testing.T) {
	shapes := spillShapes(t)
	boom := errors.New("injected spill fault")
	for name, mk := range shapes {
		for _, site := range []string{fault.SiteSpillWrite, fault.SiteSpillRead} {
			t.Run(name+"/fail@"+site, func(t *testing.T) {
				testfix.LeakCheck(t)
				f := testfix.InjectFaults(t)
				f.FailAt(site, 1, boom)
				dir := t.TempDir()
				mb := queryBudget(spillBudget, dir)
				_, err := DrainEnv(&Env{Budget: mb}, mustParallelize(t, mk(), 2, 128))
				if f.Hits(site) == 0 {
					t.Skipf("site %s not crossed by shape %s", site, name)
				}
				if !errors.Is(err, boom) {
					t.Fatalf("err = %v, want injected fault", err)
				}
				mb.Cleanup()
				assertNoSpillFiles(t, dir)
			})
		}
		t.Run(name+"/cancel@spill.write", func(t *testing.T) {
			testfix.LeakCheck(t)
			f := testfix.InjectFaults(t)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			f.CallAt(fault.SiteSpillWrite, 2, cancel)
			dir := t.TempDir()
			mb := queryBudget(spillBudget, dir)
			_, err := DrainEnv(&Env{Ctx: ctx, Budget: mb}, mustParallelize(t, mk(), 2, 128))
			if f.Hits(fault.SiteSpillWrite) < 2 {
				t.Skipf("spill.write not crossed twice by shape %s", name)
			}
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			mb.Cleanup()
			assertNoSpillFiles(t, dir)
		})
		t.Run(name+"/panic@spill.write", func(t *testing.T) {
			testfix.LeakCheck(t)
			f := testfix.InjectFaults(t)
			f.PanicAt(fault.SiteSpillWrite, 1, "injected spill panic")
			dir := t.TempDir()
			mb := queryBudget(spillBudget, dir)
			err := func() (err error) {
				defer RecoverPanic("spill test", &err)
				_, err = DrainEnv(&Env{Budget: mb}, mk())
				return err
			}()
			if f.Hits(fault.SiteSpillWrite) == 0 {
				t.Skipf("spill.write not crossed by shape %s", name)
			}
			var pe *PanicError
			if !errors.As(err, &pe) {
				t.Fatalf("err = %v, want PanicError", err)
			}
			mb.Cleanup()
			assertNoSpillFiles(t, dir)
		})
	}
}

// TestSpillBudgetDisabled asserts that no budget — a nil GlobalBudget
// yields a nil query budget — and a budget every shape fits in both keep
// the in-memory paths (no spill file is ever created).
func TestSpillBudgetDisabled(t *testing.T) {
	var none *GlobalBudget
	if mb := none.QueryBudgetFor(1); mb != nil {
		t.Fatalf("nil global budget yields query budget %v", mb)
	}
	dir := t.TempDir()
	roomy := NewGlobalBudget(1<<40, dir)
	for _, env := range []*Env{nil, {}, {Budget: none.QueryBudgetFor(1)}} {
		for _, mk := range spillShapes(t) {
			if _, err := DrainEnv(env, mk()); err != nil {
				t.Fatal(err)
			}
		}
	}
	mb := roomy.QueryBudgetFor(1)
	for _, mk := range spillShapes(t) {
		if _, err := DrainEnv(&Env{Budget: mb}, mk()); err != nil {
			t.Fatal(err)
		}
	}
	mb.Cleanup()
	if mb.Spills() != 0 || roomy.Spills() != 0 {
		t.Fatalf("roomy budget spilled %d times", mb.Spills())
	}
	if roomy.Reserved() != 0 || roomy.ActiveQueries() != 0 {
		t.Fatalf("budget not drained: reserved=%d active=%d", roomy.Reserved(), roomy.ActiveQueries())
	}
	assertNoSpillFiles(t, dir)
}

// TestGroupSpillDistinctIntKeys pins the out-of-core path of a per-search
// ranking: 100 000 distinct int64 keys under a 1 MiB query budget must
// spill — the group state far exceeds the budget — and still equal the
// unbudgeted result byte for byte, serially and exchanged.
func TestGroupSpillDistinctIntKeys(t *testing.T) {
	const n = 100_000
	ids := make([]int64, n)
	vs := make([]float64, n)
	for i := range ids {
		ids[i] = int64(i*7919%n) - n/2
		vs[i] = float64(i%997) / 8
	}
	src := data.SinglePartition(data.MustNewTable("s", data.NewInt("srch_id", ids), data.NewFloat("score", vs)))
	mk := func() Operator {
		return &GroupAggregate{Child: NewScan(src, "", nil, 1024), Keys: []string{"srch_id"},
			Aggs: []AggSpec{{Fn: AggAvg, Col: "score", As: "s"}}}
	}
	want, err := Drain(mk())
	if err != nil {
		t.Fatal(err)
	}
	if want.NumRows() != n {
		t.Fatalf("%d groups, want %d", want.NumRows(), n)
	}
	for _, dop := range []int{1, 2} {
		dir := t.TempDir()
		mb := queryBudget(1<<20, dir)
		got, err := DrainEnv(&Env{Budget: mb}, mustParallelize(t, mk(), dop, 1024))
		if err != nil {
			t.Fatal(err)
		}
		if mb.Spills() == 0 || mb.SpilledBytes() == 0 {
			t.Fatalf("dop=%d: %d groups under a 1 MiB budget did not spill", dop, n)
		}
		assertTablesEqual(t, want, got)
		mb.Cleanup()
		assertNoSpillFiles(t, dir)
	}
}
