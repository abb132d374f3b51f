package opt

import (
	"fmt"
	"slices"

	"raven/internal/data"
	"raven/internal/ir"
	"raven/internal/relational"
)

// pushdownRelationalProjections is the "well known optimization triggered
// by the data engine" of the paper (§2.2): a top-down required-columns
// analysis that narrows scans to the columns actually consumed, trims
// projection lists, and — under the foreign-key assumption — eliminates
// joins whose build side contributes nothing but its key. After
// model-projection pushdown removed inputs from the pipeline, this pass is
// what converts them into IO and shuffle savings.
func pushdownRelationalProjections(g *ir.Graph, cat ir.Catalog, assumeFK bool, rep *Report) error {
	rootCols, err := ir.OutputColumns(g.Root, cat)
	if err != nil {
		return err
	}
	needed := make(map[string]bool, len(rootCols))
	for _, c := range rootCols {
		needed[c] = true
	}
	root, err := pushNeeded(g.Root, needed, cat, assumeFK, rep)
	if err != nil {
		return err
	}
	g.Root = root
	return nil
}

func pushNeeded(n *ir.Node, needed map[string]bool, cat ir.Catalog, assumeFK bool, rep *Report) (*ir.Node, error) {
	switch n.Kind {
	case ir.KindProject:
		// Keep only the expressions someone upstream needs.
		kept := n.Exprs[:0]
		for _, e := range n.Exprs {
			if needed[e.Name] {
				kept = append(kept, e)
			}
		}
		if len(kept) == 0 {
			kept = n.Exprs[:1] // preserve row cardinality
		}
		n.Exprs = kept
		childNeeded := map[string]bool{}
		for _, e := range n.Exprs {
			relational.Columns(e.E, childNeeded)
		}
		child, err := pushNeeded(n.Children[0], childNeeded, cat, assumeFK, rep)
		if err != nil {
			return nil, err
		}
		n.Children[0] = child
		return n, nil
	case ir.KindFilter, ir.KindHaving:
		childNeeded := cloneSet(needed)
		relational.Columns(n.Pred, childNeeded)
		child, err := pushNeeded(n.Children[0], childNeeded, cat, assumeFK, rep)
		if err != nil {
			return nil, err
		}
		n.Children[0] = child
		return n, nil
	case ir.KindSort:
		// Sort keys must stay live through pushdown even when a column
		// pruner above would not otherwise request them.
		childNeeded := cloneSet(needed)
		for _, k := range n.OrderBy {
			childNeeded[k.Col] = true
		}
		child, err := pushNeeded(n.Children[0], childNeeded, cat, assumeFK, rep)
		if err != nil {
			return nil, err
		}
		n.Children[0] = child
		return n, nil
	case ir.KindAggregate:
		childNeeded := map[string]bool{}
		for _, a := range n.Aggs {
			if a.Col != "" {
				childNeeded[a.Col] = true
			}
		}
		for _, k := range n.GroupBy {
			childNeeded[k] = true
		}
		child, err := pushNeeded(n.Children[0], childNeeded, cat, assumeFK, rep)
		if err != nil {
			return nil, err
		}
		n.Children[0] = child
		return n, nil
	case ir.KindPredict:
		childNeeded := map[string]bool{}
		if n.KeepInput {
			outs := make(map[string]bool, len(n.OutputMap))
			for _, col := range n.OutputMap {
				outs[col] = true
			}
			for c := range needed {
				if !outs[c] {
					childNeeded[c] = true
				}
			}
		}
		for _, col := range n.InputMap {
			childNeeded[col] = true
		}
		child, err := pushNeeded(n.Children[0], childNeeded, cat, assumeFK, rep)
		if err != nil {
			return nil, err
		}
		n.Children[0] = child
		return n, nil
	case ir.KindUnion:
		for i, c := range n.Children {
			nc, err := pushNeeded(c, cloneSet(needed), cat, assumeFK, rep)
			if err != nil {
				return nil, err
			}
			n.Children[i] = nc
		}
		return n, nil
	case ir.KindJoin:
		needed = cloneSet(needed)
		needed[n.LeftKey] = true
		needed[n.RightKey] = true
		rightCols, err := ir.OutputColumns(n.Children[1], cat)
		if err != nil {
			return nil, err
		}
		rightSet := make(map[string]bool, len(rightCols))
		for _, c := range rightCols {
			rightSet[c] = true
		}
		if assumeFK {
			// If nothing but the key is needed from the build side, the
			// join is a no-op under FK integrity (each probe row matches
			// exactly once) — unless the probe key itself comes from the
			// build side.
			onlyKey := true
			for c := range needed {
				if rightSet[c] && c != n.RightKey {
					onlyKey = false
					break
				}
			}
			if onlyKey && rightSet[n.RightKey] && !rightSet[n.LeftKey] {
				rep.EliminatedJoins++
				rep.fire("join-elimination")
				delete(needed, n.RightKey)
				return pushNeeded(n.Children[0], needed, cat, assumeFK, rep)
			}
		}
		leftNeeded := map[string]bool{}
		rightNeeded := map[string]bool{}
		for c := range needed {
			if rightSet[c] {
				rightNeeded[c] = true
			} else {
				leftNeeded[c] = true
			}
		}
		l, err := pushNeeded(n.Children[0], leftNeeded, cat, assumeFK, rep)
		if err != nil {
			return nil, err
		}
		r, err := pushNeeded(n.Children[1], rightNeeded, cat, assumeFK, rep)
		if err != nil {
			return nil, err
		}
		n.Children[0], n.Children[1] = l, r
		return n, nil
	case ir.KindScan:
		t, ok := cat.Table(n.Table)
		if !ok {
			return nil, fmt.Errorf("opt: unknown table %q", n.Table)
		}
		var cols []string
		for _, f := range t.Schema() {
			if needed[ir.Qualify(n.Alias, f.Name)] {
				cols = append(cols, f.Name)
			}
		}
		if len(cols) == 0 {
			// Preserve cardinality with the narrowest column.
			cols = []string{t.Schema()[0].Name}
		}
		n.Columns = cols
		if rep.ScanColumns == nil {
			rep.ScanColumns = map[string][]string{}
		}
		rep.ScanColumns[ir.Qualify(n.Alias, n.Table)] = cols
		return n, nil
	}
	return n, nil
}

func cloneSet(s map[string]bool) map[string]bool {
	out := make(map[string]bool, len(s))
	for k := range s {
		out[k] = true
	}
	return out
}

// pushdownZonePredicates copies filter conjuncts onto the scans whose rows
// they constrain, as zone predicates: the scan skips partitions and chunks
// whose min/max statistics rule a conjunct out (the engine-side half of
// data skipping, §4.2) and, on chunk-backed partitions, decodes only the
// rows that satisfy them. The Filter stays in the plan, so a copy is sound
// exactly where filtering before the operator equals filtering after it.
// One top-down walk carries each conjunct from its Filter through Filter,
// Project (following ColRef renames, so CTE renames d.x ← t.x resolve),
// Predict (input columns only), inner Join (to the side producing the
// column), Union and a Sort without LIMIT/OFFSET. It stops at a Sort that
// cuts rows, at Aggregate and at Having: a conjunct above them constrains
// their output, not the rows they read.
func pushdownZonePredicates(g *ir.Graph, cat ir.Catalog, rep *Report) error {
	count := 0
	var walk func(n *ir.Node, conjs []conjunct) error
	walk = func(n *ir.Node, conjs []conjunct) error {
		switch n.Kind {
		case ir.KindFilter:
			conjs = slices.Clip(conjs) // siblings share the parent's slice
			splitConjuncts(n.Pred, &conjs)
		case ir.KindProject:
			var through []conjunct
			for _, c := range conjs {
				for _, e := range n.Exprs {
					if e.Name != c.col {
						continue
					}
					if cr, ok := e.E.(*relational.ColRef); ok {
						c.col = cr.Name
						through = append(through, c)
					}
					break
				}
			}
			conjs = through
		case ir.KindPredict:
			var through []conjunct
			if n.KeepInput {
				outs := make(map[string]bool, len(n.OutputMap))
				for _, col := range n.OutputMap {
					outs[col] = true
				}
				for _, c := range conjs {
					if !outs[c.col] {
						through = append(through, c)
					}
				}
			}
			conjs = through
		case ir.KindSort:
			if n.Limit >= 0 || n.Offset > 0 {
				conjs = nil
			}
		case ir.KindAggregate, ir.KindHaving:
			conjs = nil
		case ir.KindJoin:
			if len(conjs) == 0 {
				break
			}
			right, err := ir.OutputColumns(n.Children[1], cat)
			if err != nil {
				return err
			}
			rightSet := make(map[string]bool, len(right))
			for _, c := range right {
				rightSet[c] = true
			}
			var l, r []conjunct
			for _, c := range conjs {
				if rightSet[c.col] {
					r = append(r, c)
				} else {
					l = append(l, c)
				}
			}
			if err := walk(n.Children[0], l); err != nil {
				return err
			}
			return walk(n.Children[1], r)
		case ir.KindScan:
			t, ok := cat.Table(n.Table)
			if !ok || n.Alias == "" {
				return nil
			}
			for _, c := range conjs {
				base := ir.BaseName(c.col)
				if c.col != ir.Qualify(n.Alias, base) || t.Schema().Index(base) < 0 {
					continue
				}
				zp := relational.ZonePredicate{Col: base, Op: c.op}
				if c.isStr {
					zp.IsStr, zp.StrV = true, c.str
				} else {
					zp.Val = c.num
				}
				n.Prune = append(n.Prune, zp)
				count++
			}
			return nil
		}
		for _, ch := range n.Children {
			if err := walk(ch, conjs); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(g.Root, nil); err != nil {
		return err
	}
	if count > 0 {
		rep.fire("zone-predicate-pushdown")
	}
	return nil
}

// scanStatsFor returns the global column statistics of the (unique) table
// a predict node reads through the given bound column, or nil.
func scanStatsFor(root *ir.Node, cat ir.Catalog, col string) *data.ColStats {
	base := ir.BaseName(col)
	scans := ir.FindAll(root, func(n *ir.Node) bool { return n.Kind == ir.KindScan })
	var found *data.ColStats
	for _, s := range scans {
		t, ok := cat.Table(s.Table)
		if !ok {
			continue
		}
		stats := t.GlobalStats()
		if cs, ok := stats[base]; ok {
			if found != nil {
				return nil // ambiguous across tables
			}
			found = cs
		}
	}
	return found
}
