package main

import (
	"context"
	"fmt"
	"math"
	"strings"

	"raven"
	"raven/internal/data"
)

// floatTol is the relative tolerance between the benchmark session and the
// reference session on float columns: MLtoSQL and the ML runtime evaluate
// the same model in different operation orders.
const floatTol = 1e-9

// sampledPoints is how many point literals set-up checks against the
// reference session.
const sampledPoints = 16

// verify runs every text of the cycle (or sampledPoints point literals)
// on the benchmark session and on a reference session — no Raven
// optimizations, serial, no plan cache, tables in memory — and compares
// the answers. For closed-loop texts it also records the fingerprint every
// timed execution must reproduce. It returns the number of texts checked
// and one message per mismatch; a mismatch is a failed op, not a panic.
func (b *bench) verify(ctx context.Context) (checked int, bad []string, err error) {
	ref := raven.NewSession(raven.WithoutOptimizations(), raven.WithParallelism(1),
		raven.WithPlanCacheSize(-1), raven.WithChunkedRegistration(-1))
	for _, p := range b.in.tables {
		if _, err := ref.RegisterTableCSV(p); err != nil {
			return 0, nil, fmt.Errorf("reference session: %w", err)
		}
	}
	if _, err := ref.RegisterModelFile(b.in.model); err != nil {
		return 0, nil, fmt.Errorf("reference session: %w", err)
	}
	texts := b.in.cycle
	var keys []int
	if b.w.clients == 0 {
		for range sampledPoints {
			k := b.in.nextKey()
			keys = append(keys, k)
			texts = append(texts, text{sql: pointQuery(b.in.pipe.Name, k)})
		}
	}
	b.want = make(map[string]uint64, len(b.in.cycle))
	for i, tx := range texts {
		checked++
		got, out, err := runText(ctx, b.s, tx.sql)
		if err != nil {
			bad = append(bad, fmt.Sprintf("text %d: %v", i, err))
			continue
		}
		want, err := ref.QueryContext(ctx, tx.sql)
		if err != nil {
			bad = append(bad, fmt.Sprintf("text %d on the reference session: %v", i, err))
			continue
		}
		if err := sameTable(got.Table, want.Table, tx.floatKey); err != nil {
			bad = append(bad, fmt.Sprintf("text %d differs from the reference: %v", i, err))
			continue
		}
		if keys != nil {
			if err := isPointAnswer(got.Table, keys[i]); err != nil {
				bad = append(bad, fmt.Sprintf("key %d: %v", keys[i], err))
			}
			continue
		}
		b.want[tx.sql] = out.h.Sum64()
	}
	return checked, bad, nil
}

// isPointAnswer checks a point lookup's result: exactly one row, carrying
// the key that was asked for.
func isPointAnswer(t *data.Table, key int) error {
	if t.NumRows() != 1 {
		return fmt.Errorf("%d rows, want 1", t.NumRows())
	}
	if got := t.Cols[0].AsString(0); got != fmt.Sprint(key) {
		return fmt.Errorf("answered key %s", got)
	}
	return nil
}

// sameTable compares two results position by position: names, types, row
// count, and every value — exact for strings, integers and booleans,
// within floatTol for floats. When floatKey names the float ORDER BY
// column, that column is still compared on every row, but the other
// columns only on rows whose key is not tied (within floatTol) with a
// neighbour: tied rows may legally come out in either order.
func sameTable(got, want *data.Table, floatKey string) error {
	if got.NumCols() != want.NumCols() {
		return fmt.Errorf("%d columns, want %d", got.NumCols(), want.NumCols())
	}
	if got.NumRows() != want.NumRows() {
		return fmt.Errorf("%d rows, want %d", got.NumRows(), want.NumRows())
	}
	n := want.NumRows()
	var key *data.Column
	tied := make([]bool, n) // all false without a float key
	if floatKey != "" {
		key = findColumn(want, floatKey)
		if key == nil || key.Type != data.Float64 {
			return fmt.Errorf("no float column %q to order by", floatKey)
		}
		for i := 1; i < n; i++ {
			if closeEnough(key.F64[i-1], key.F64[i]) {
				tied[i-1], tied[i] = true, true
			}
		}
	}
	for j, w := range want.Cols {
		g := got.Cols[j]
		if g.Name != w.Name || g.Type != w.Type {
			return fmt.Errorf("column %d is %s %s, want %s %s", j, g.Name, g.Type, w.Name, w.Type)
		}
		for i := 0; i < n; i++ {
			if tied[i] && w != key {
				continue
			}
			if w.Type == data.Float64 {
				if !closeEnough(g.F64[i], w.F64[i]) {
					return fmt.Errorf("%s[%d] = %v, want %v", w.Name, i, g.F64[i], w.F64[i])
				}
			} else if g.AsString(i) != w.AsString(i) {
				return fmt.Errorf("%s[%d] = %s, want %s", w.Name, i, g.AsString(i), w.AsString(i))
			}
		}
	}
	return nil
}

// findColumn resolves a select-list name to a result column, qualified or
// not ("s" matches "s" and "d.s").
func findColumn(t *data.Table, name string) *data.Column {
	for _, c := range t.Cols {
		if c.Name == name || strings.HasSuffix(c.Name, "."+name) {
			return c
		}
	}
	return nil
}

func closeEnough(a, b float64) bool {
	if a == b || (math.IsNaN(a) && math.IsNaN(b)) {
		return true
	}
	return math.Abs(a-b) <= floatTol*math.Max(math.Abs(a), math.Abs(b))
}
