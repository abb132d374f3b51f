package relational

import (
	"fmt"
	"math"
	"slices"

	"raven/internal/data"
)

// Grace-hash partition spill for grouped aggregation.
//
// When the groupedMerge's resident state exceeds the budget it stops
// holding groups in memory: every already-accumulated group is migrated —
// and every later fold routed — to one of groupSpillPartitions partitions
// chosen by hashing the group's canonical key bytes. A partition buffers
// its rows in the merge's own layout — key columns, a __seq column and an
// aggState — and flushes them as one slab: the key columns, __seq (a
// global fold sequence number) and the accumulator's slices as the
// PartialGroupAggregate state columns (__count, __sum%d/__min%d/__max%d).
//
// Correctness of the re-fold rests on two orderings:
//
//   - Rows within a partition are appended in fold order, so re-folding a
//     partition front to back folds each key's partials in exactly the
//     serial order — every float result is bit-identical to the
//     in-memory fold (the first row of a key becomes the group's initial
//     state directly, just as the in-memory fold's first partial does).
//   - A partition's rows carry ascending sequence numbers: the migrated
//     groups come first, in first-occurrence order with their original
//     first-occurrence numbers, and every later fold is numbered after
//     them. So each re-folded partition lists its groups in ascending
//     first-occurrence sequence, and one linear 16-way merge of the
//     partitions by that sequence restores the serial first-occurrence
//     output order; the output is gathered along the merge.

// groupSpillPartitions is the grace-hash fan-out.
const groupSpillPartitions = 16

// groupSeqCol is the spilled-row column carrying the fold sequence.
const groupSeqCol = "__seq"

func fnv32a(b []byte) uint32 {
	h := uint32(2166136261)
	for _, c := range b {
		h ^= uint32(c)
		h *= 16777619
	}
	return h
}

// groupSpillPart buffers one partition's pending rows and the slab refs
// already flushed to the spill file.
type groupSpillPart struct {
	keys  []*data.Column
	seqs  []float64
	state aggState
	bytes int64
	slabs []spillTable
}

// groupSpill is the spilling state of one groupedMerge.
type groupSpill struct {
	keyNames []string
	aggs     []AggSpec
	sf       *spillFile
	// flushBytes bounds the bytes one partition buffers before its rows
	// are encoded into a spill slab — the 16 buffers together stay within
	// the budget the spill exists to honor.
	flushBytes int64
	buf        []byte
	parts      [groupSpillPartitions]groupSpillPart
}

// newGroupSpill starts a spill whose partitions buffer key columns typed
// like keys.
func newGroupSpill(b *MemBudget, keyNames []string, keys []*data.Column, aggs []AggSpec) (*groupSpill, error) {
	sf, err := b.newSpillFile("group")
	if err != nil {
		return nil, err
	}
	fb := b.spillUnit() / groupSpillPartitions
	if fb < 1 {
		fb = 1
	}
	g := &groupSpill{keyNames: keyNames, aggs: aggs, sf: sf, flushBytes: fb}
	for pi := range g.parts {
		g.parts[pi].keys = emptyLike(keys)
		g.parts[pi].state = newAggState(len(aggs), 0)
	}
	return g, nil
}

// add routes one folded group-row — key at row r of keyCols, state at row
// r of src, fold sequence seq — to its partition.
func (g *groupSpill) add(keyCols []*data.Column, r int, src *aggState, seq float64) error {
	g.buf = appendKey(keyCols, r, g.buf[:0])
	part := &g.parts[fnv32a(g.buf)%groupSpillPartitions]
	for i, c := range part.keys {
		if err := c.AppendRow(keyCols[i], r); err != nil {
			return err
		}
	}
	part.seqs = append(part.seqs, seq)
	part.state.push(src, r)
	// Canonical key bytes plus the float columns of the partial-state row.
	part.bytes += int64(len(g.buf)) + 8*int64(2+3*len(g.aggs))
	if part.bytes >= g.flushBytes {
		return g.flush(part)
	}
	return nil
}

// flush encodes a partition's buffered rows as one spill slab. Once the
// slab is written the buffers hold nothing it needs, so they are reused.
func (g *groupSpill) flush(part *groupSpillPart) error {
	if len(part.seqs) == 0 {
		return nil
	}
	cols := append(slices.Clone(part.keys), data.NewFloat(groupSeqCol, part.seqs))
	t, err := data.NewTable("group_spill", append(cols, part.state.columns()...)...)
	if err != nil {
		return err
	}
	st, err := writeTable(g.sf, t)
	if err != nil {
		return err
	}
	part.slabs = append(part.slabs, st)
	for i, c := range part.keys {
		part.keys[i] = c.Slice(0, 0)
	}
	part.seqs, part.bytes = part.seqs[:0], 0
	part.state.truncate()
	return nil
}

// finalize re-folds every partition and assembles the grouped output in
// global first-occurrence order. Each partition is rendered as soon as it
// is re-folded, so only its output columns and first sequences stay
// resident, never its key index. The spill file is released eagerly on
// success; on error it stays registered with the budget, whose Cleanup
// removes it.
func (g *groupSpill) finalize() (*data.Table, error) {
	var outs [groupSpillPartitions]*data.Table
	var firsts [groupSpillPartitions][]float64
	var proto *data.Table
	total := 0
	for pi := range g.parts {
		part := &g.parts[pi]
		gm := newGroupedMerge(g.keyNames, g.aggs)
		for _, st := range part.slabs {
			t, err := readTable(g.sf, st)
			if err != nil {
				return nil, err
			}
			seqCol := t.Col(groupSeqCol)
			if seqCol == nil {
				return nil, fmt.Errorf("relational: group spill slab lacks %s", groupSeqCol)
			}
			if err := gm.foldPartials(t, seqCol.F64); err != nil {
				return nil, err
			}
		}
		// The partition's unflushed tail, folded in the same row order it
		// was buffered.
		if err := gm.fold(part.keys, &part.state, part.seqs); err != nil {
			return nil, err
		}
		out, err := gm.finalize()
		if err != nil {
			return nil, err
		}
		if out != nil {
			outs[pi], firsts[pi], proto = out, gm.firstSeq, out
			total += out.NumRows()
		}
	}
	g.sf.release()
	if proto == nil {
		return nil, nil
	}
	cols := emptyLike(proto.Cols)
	err := mergeBySeq(&firsts, total, func(p, r int) error {
		for j, c := range cols {
			if err := c.AppendRow(outs[p].Cols[j], r); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return data.NewTable(proto.Name, cols...)
}

// mergeBySeq emits partition p's row r for every re-folded group, in
// global first-occurrence order. Each partition lists its groups in
// ascending first-occurrence sequence, so repeatedly taking the smallest
// of the 16 heads is one linear merge.
func mergeBySeq(firsts *[groupSpillPartitions][]float64, total int, emit func(p, r int) error) error {
	var head [groupSpillPartitions]float64
	var pos [groupSpillPartitions]int
	for p, f := range firsts {
		for i := 1; i < len(f); i++ {
			if f[i] <= f[i-1] {
				return fmt.Errorf("relational: group spill partition out of sequence order")
			}
		}
		head[p] = math.Inf(1)
		if len(f) > 0 {
			head[p] = f[0]
		}
	}
	for range total {
		best := 0
		for p := 1; p < groupSpillPartitions; p++ {
			if head[p] < head[best] {
				best = p
			}
		}
		if err := emit(best, pos[best]); err != nil {
			return err
		}
		if pos[best]++; pos[best] < len(firsts[best]) {
			head[best] = firsts[best][pos[best]]
		} else {
			head[best] = math.Inf(1)
		}
	}
	return nil
}

// spilledBytes reports the bytes this spill wrote (valid after finalize
// too — the counter lives on the file struct, not the fd).
func (g *groupSpill) spilledBytes() int64 { return g.sf.bytesWritten() }
