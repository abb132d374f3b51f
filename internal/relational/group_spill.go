package relational

import (
	"fmt"
	"sort"

	"raven/internal/data"
)

// Grace-hash partition spill for grouped aggregation.
//
// When the groupedMerge's resident state exceeds the budget it stops
// holding groups in memory: every already-accumulated group is migrated —
// and every later fold routed — to one of groupSpillPartitions partitions
// chosen by hashing the group's canonical key bytes. A spilled row is the
// group's partial state (the PartialGroupAggregate encoding: __count,
// __sum%d/__min%d/__max%d) plus __seq, a global fold sequence number.
//
// Correctness of the re-fold rests on two orderings:
//
//   - Rows within a partition are appended in fold order, so re-folding a
//     partition front to back folds each key's partials in exactly the
//     serial order — every float result is bit-identical to the
//     in-memory fold (the first row of a key becomes the group's initial
//     state directly, just as the serial fold takes ownership of the
//     first partial).
//   - Each group's first row carries its first-occurrence sequence
//     number; sorting the re-folded groups by it restores the serial
//     first-occurrence output order across partitions.

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
	keys     []*keyBuilder
	seqs     []float64
	partials []*aggPartial
	bytes    int64
	slabs    []spillTable
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
	parts      [groupSpillPartitions]groupSpillPart
}

func newGroupSpill(b *MemBudget, keyNames []string, aggs []AggSpec) (*groupSpill, error) {
	sf, err := b.newSpillFile("group")
	if err != nil {
		return nil, err
	}
	fb := b.spillUnit() / groupSpillPartitions
	if fb < 1 {
		fb = 1
	}
	return &groupSpill{keyNames: keyNames, aggs: aggs, sf: sf, flushBytes: fb}, nil
}

// add routes one folded group-row (key values at row r of keyCols,
// partial state p, fold sequence seq) to its partition.
func (g *groupSpill) add(keyBytes []byte, keyCols []*data.Column, r int, p *aggPartial, seq float64) error {
	part := &g.parts[fnv32a(keyBytes)%groupSpillPartitions]
	if part.keys == nil {
		part.keys = make([]*keyBuilder, len(g.keyNames))
		for i, name := range g.keyNames {
			part.keys[i] = newKeyBuilder(name, keyCols[i].Type)
		}
	}
	for i, kb := range part.keys {
		if err := kb.add(keyCols[i], r); err != nil {
			return err
		}
	}
	part.seqs = append(part.seqs, seq)
	part.partials = append(part.partials, p)
	// Canonical key bytes plus the float columns of the partial-state row.
	part.bytes += int64(len(keyBytes)) + 8*int64(2+3*len(g.aggs))
	if part.bytes >= g.flushBytes {
		return g.flush(part)
	}
	return nil
}

// flush encodes a partition's buffered rows as one spill slab.
func (g *groupSpill) flush(part *groupSpillPart) error {
	if len(part.seqs) == 0 {
		return nil
	}
	cols := append(builtColumns(part.keys), data.NewFloat(groupSeqCol, part.seqs))
	cols = append(cols, encodePartials(part.partials, len(g.aggs))...)
	t, err := data.NewTable("group_spill", cols...)
	if err != nil {
		return err
	}
	st, err := writeTable(g.sf, t)
	if err != nil {
		return err
	}
	part.slabs = append(part.slabs, st)
	part.keys, part.seqs, part.partials, part.bytes = nil, nil, nil, 0
	return nil
}

// seqFold re-folds one partition's rows in order, remembering each
// group's first-occurrence sequence number.
type seqFold struct {
	gm   *groupedMerge
	seqs []float64
}

func (f *seqFold) fold(keyCols []*data.Column, encs []groupKeyEnc, r int, p *aggPartial, seq float64) error {
	before := len(f.gm.parts)
	if err := f.gm.fold(keyCols, encs, r, p); err != nil {
		return err
	}
	if len(f.gm.parts) > before {
		f.seqs = append(f.seqs, seq)
	}
	return nil
}

// foldTable folds every row of a spilled slab in row order.
func (f *seqFold) foldTable(t *data.Table, keyNames, state []string) error {
	keyCols, encs, pc, err := resolveGroupedPartials(t, keyNames, state)
	if err != nil {
		return err
	}
	seqCol := t.Col(groupSeqCol)
	if seqCol == nil {
		return fmt.Errorf("relational: group spill slab lacks %s", groupSeqCol)
	}
	for r := 0; r < t.NumRows(); r++ {
		if err := f.fold(keyCols, encs, r, pc.row(r), seqCol.F64[r]); err != nil {
			return err
		}
	}
	return nil
}

// finalize re-folds every partition and assembles the grouped output in
// global first-occurrence order. The spill file is released eagerly on
// success; on error it stays registered with the budget, whose Cleanup
// removes it.
func (g *groupSpill) finalize() (*data.Table, error) {
	type groupRef struct {
		tbl *data.Table
		row int
		seq float64
	}
	var refs []groupRef
	var proto *data.Table
	state := partialColumns(len(g.aggs))
	for pi := range g.parts {
		part := &g.parts[pi]
		f := &seqFold{gm: newGroupedMerge(g.keyNames, g.aggs)}
		for _, st := range part.slabs {
			t, err := readTable(g.sf, st)
			if err != nil {
				return nil, err
			}
			if err := f.foldTable(t, g.keyNames, state); err != nil {
				return nil, err
			}
		}
		// The partition's unflushed tail, folded in the same row order it
		// was buffered.
		if len(part.seqs) > 0 {
			keyCols := builtColumns(part.keys)
			encs, err := keyEncoders(keyCols)
			if err != nil {
				return nil, err
			}
			for r := range part.seqs {
				if err := f.fold(keyCols, encs, r, part.partials[r], part.seqs[r]); err != nil {
					return nil, err
				}
			}
		}
		out, err := f.gm.finalize()
		if err != nil {
			return nil, err
		}
		if out == nil {
			continue
		}
		if proto == nil {
			proto = out
		}
		for r := 0; r < out.NumRows(); r++ {
			refs = append(refs, groupRef{tbl: out, row: r, seq: f.seqs[r]})
		}
	}
	g.sf.release()
	if proto == nil {
		return nil, nil
	}
	// Global first-occurrence order: ascending fold sequence of each
	// group's first row. Sequences are distinct, so the sort is total.
	sort.Slice(refs, func(a, b int) bool { return refs[a].seq < refs[b].seq })
	final := data.NewTableLike(proto)
	for _, ref := range refs {
		if err := final.AppendRow(ref.tbl, ref.row); err != nil {
			return nil, err
		}
	}
	return final, nil
}

// spilledBytes reports the bytes this spill wrote (valid after finalize
// too — the counter lives on the file struct, not the fd).
func (g *groupSpill) spilledBytes() int64 { return g.sf.bytesWritten() }
