package relational

import (
	"fmt"
	"strings"

	"raven/internal/data"
)

// External sort: sorted runs written to a spill file as slab sequences
// and k-way merged with the same comparator semantics and earlier-run
// tie-break as the Sort's in-memory merge. Runs are added in input
// (serial batch / morsel) order and are each internally stable, so the
// external merge reproduces the serial stable sort's permutation exactly
// — spilled ordered output is byte-identical to the in-memory result.

// externalSort accumulates runs against one spill file and merges them;
// each run is its slab sequence.
type externalSort struct {
	sf   *spillFile
	runs [][]spillTable
}

func newExternalSort(b *MemBudget) (*externalSort, error) {
	sf, err := b.newSpillFile("sort")
	if err != nil {
		return nil, err
	}
	return &externalSort{sf: sf}, nil
}

// addRun spills a sorted run to disk.
func (e *externalSort) addRun(t *data.Table) error {
	slabs, err := writeTableSlabs(e.sf, t)
	if err != nil {
		return err
	}
	e.runs = append(e.runs, slabs)
	return nil
}

func (e *externalSort) bytes() int64 { return e.sf.bytesWritten() }

// finish is the end of a spilled Sort: it counts the spill volume into st,
// merges the runs into the ordered result and releases the spill file (on
// error the query's Cleanup removes it).
func (e *externalSort) finish(keys []SortKey, limit, offset int, scratch *sortScratch, st *OpStats) (*data.Table, error) {
	st.SpillBytes += e.bytes()
	out, err := e.merge(keys, limit, offset, scratch)
	if err != nil {
		return nil, err
	}
	e.sf.release()
	if out == nil {
		return nil, nil
	}
	st.Rows += int64(out.NumRows())
	st.Batches++
	return out, nil
}

// runCursor walks one spilled run a row at a time, holding one decoded
// slab.
type runCursor struct {
	e     *externalSort
	slabs []spillTable
	slab  int
	cur   *data.Table
	pos   int
	keys  []*data.Column
}

// nextSlab decodes the run's next non-empty slab; false at end of run.
func (c *runCursor) nextSlab(keyNames []string) (bool, error) {
	for c.slab < len(c.slabs) {
		t, err := readTable(c.e.sf, c.slabs[c.slab])
		if err != nil {
			return false, err
		}
		c.slab++
		if t.NumRows() == 0 {
			continue
		}
		c.cur, c.pos = t, 0
		if c.keys == nil {
			c.keys = make([]*data.Column, len(keyNames))
		}
		for i, k := range keyNames {
			if c.keys[i] = t.Col(k); c.keys[i] == nil {
				return false, fmt.Errorf("relational: sort run lacks key column %q", k)
			}
		}
		return true, nil
	}
	return false, nil
}

// advance moves to the next row; false at end of run.
func (c *runCursor) advance(keyNames []string) (bool, error) {
	c.pos++
	if c.pos < c.cur.NumRows() {
		return true, nil
	}
	return c.nextSlab(keyNames)
}

// cmpKeyAt three-way compares one key across two (possibly different)
// batches with the in-memory keyComparator's exact semantics: Int64 and
// Bool by value, Float64 under the canonical NaN ordering, dictionary
// strings sharing one dictionary by rank (== value order), anything else
// by string value. Spill round-trips preserve dictionary pointers, so
// the shared-dict rank path is the common case.
func cmpKeyAt(scratch *sortScratch, ca *data.Column, ia int, cb *data.Column, ib int) int {
	switch ca.Type {
	case data.Int64:
		a, b := ca.I64[ia], cb.I64[ib]
		switch {
		case a < b:
			return -1
		case a > b:
			return 1
		}
		return 0
	case data.Float64:
		return cmpFloatKey(ca.F64[ia], cb.F64[ib])
	case data.Bool:
		a, b := ca.B[ia], cb.B[ib]
		switch {
		case !a && b:
			return -1
		case a && !b:
			return 1
		}
		return 0
	default:
		if ca.Dict != nil && ca.Dict == cb.Dict {
			ranks := scratch.dictRanks(ca.Dict)
			return int(ranks[ca.Codes[ia]]) - int(ranks[cb.Codes[ib]])
		}
		return strings.Compare(ca.AsString(ia), cb.AsString(ib))
	}
}

// merge k-way merges the runs, skipping the first offset merged rows and
// emitting at most limit rows (negative limit = all). Equal keys prefer
// the earlier run — runs were added in serial input order, so with
// in-run stability the merged order equals the serial stable sort.
func (e *externalSort) merge(keys []SortKey, limit, offset int, scratch *sortScratch) (*data.Table, error) {
	if limit == 0 {
		return nil, nil
	}
	keyNames := make([]string, len(keys))
	for i, k := range keys {
		keyNames[i] = k.Col
	}
	var cursors []*runCursor
	for _, slabs := range e.runs {
		c := &runCursor{e: e, slabs: slabs}
		ok, err := c.nextSlab(keyNames)
		if err != nil {
			return nil, err
		}
		if ok {
			cursors = append(cursors, c)
		}
	}
	if len(cursors) == 0 {
		return nil, nil
	}
	// Validate key types once (every run shares the plan's schema).
	for _, kc := range cursors[0].keys {
		if _, err := scratch.keyComparator(kc); err != nil {
			return nil, err
		}
	}
	// Min-heap of cursor indices; index order equals run arrival order, so
	// the index tie-break is the earlier-run preference.
	less := func(a, b int) bool {
		ca, cb := cursors[a], cursors[b]
		for ki, k := range keys {
			c := cmpKeyAt(scratch, ca.keys[ki], ca.pos, cb.keys[ki], cb.pos)
			if k.Desc {
				c = -c
			}
			if c != 0 {
				return c < 0
			}
		}
		return a < b
	}
	heap := make([]int, len(cursors))
	down := func(i int) {
		for {
			l, r := 2*i+1, 2*i+2
			small := i
			if l < len(heap) && less(heap[l], heap[small]) {
				small = l
			}
			if r < len(heap) && less(heap[r], heap[small]) {
				small = r
			}
			if small == i {
				return
			}
			heap[i], heap[small] = heap[small], heap[i]
			i = small
		}
	}
	for i := range heap {
		heap[i] = i
	}
	for i := len(heap)/2 - 1; i >= 0; i-- {
		down(i)
	}
	out := data.NewTableLike(cursors[0].cur)
	skipped, emitted := 0, 0
	for len(heap) > 0 {
		cur := cursors[heap[0]]
		if skipped < offset {
			skipped++
		} else {
			if err := out.AppendRow(cur.cur, cur.pos); err != nil {
				return nil, err
			}
			emitted++
			if limit >= 0 && emitted >= limit {
				break
			}
		}
		ok, err := cur.advance(keyNames)
		if err != nil {
			return nil, err
		}
		if !ok {
			heap[0] = heap[len(heap)-1]
			heap = heap[:len(heap)-1]
		}
		down(0)
	}
	if out.NumRows() == 0 {
		return nil, nil
	}
	return out, nil
}
