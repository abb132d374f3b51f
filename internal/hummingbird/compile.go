// Package hummingbird compiles trained pipelines into tensor programs, the
// MLtoDNN transformation of the paper (its reference [57]). Featurizers
// are folded into per-feature affine/one-hot programs; tree ensembles are
// compiled with the GEMM strategy (five matrix operations per ensemble)
// when small, and the TreeTraversal strategy (vectorized gather loop) when
// large; linear models become a single GEMM. Programs execute on the host
// and log their work (CostLog), which the paper-figure cost model
// (internal/experiments) prices on a modeled GPU.
package hummingbird

import (
	"fmt"
	"sync"

	"raven/internal/model"
	"raven/internal/pipefold"
)

// Strategy selects the tree-compilation technique.
type Strategy uint8

// Tree compilation strategies.
const (
	// StrategyAuto picks GEMM for small ensembles, TreeTraversal otherwise.
	StrategyAuto Strategy = iota
	// StrategyGEMM uses the 5-matrix formulation.
	StrategyGEMM
	// StrategyTreeTraversal uses the vectorized gather loop.
	StrategyTreeTraversal
)

func (s Strategy) String() string {
	switch s {
	case StrategyGEMM:
		return "gemm"
	case StrategyTreeTraversal:
		return "tree-traversal"
	}
	return "auto"
}

// gemmTensors is the 5-matrix GEMM formulation of a tree ensemble
// (block-diagonal over trees): given the feature matrix X,
//
//	T = 1[X·A <= B]      (which internal comparisons hold)
//	P = 1[T·C == D]      (which leaf's ancestor pattern matches)
//	Y = P·E              (reached-leaf values, summed over trees)
type gemmTensors struct {
	feat     []int32   // I: the feature each internal node tests (A's one-hot rows)
	b        []float32 // I thresholds
	c        []float32 // I × L: +1 leaf in left subtree, −1 in right
	d        []float32 // L: required left-ancestor counts
	e        []float32 // L leaf values
	internal int
	leaves   int
}

// ttTensors is the TreeTraversal formulation: flattened node arrays with
// self-looping leaves, iterated maxDepth times.
type ttTensors struct {
	feat     []int32
	thresh   []float32
	left     []int32
	right    []int32
	value    []float32
	roots    []int32
	maxDepth int
}

// Program is a compiled pipeline, immutable once compiled and safe to run
// from concurrent workers.
type Program struct {
	Name     string
	Features []pipefold.Feature
	// Model part: exactly one of linear / trees is set.
	linW []float32 // d linear weights
	linB float32
	gemm *gemmTensors
	tt   *ttTensors

	Strategy  Strategy
	task      model.Task
	algo      model.Algo
	baseScore float32
	nTrees    int
	// InputCols lists the distinct bound input columns (transfer volume).
	InputCols []string
	// labelIdx holds the per-feature label-encoder lookup tables,
	// precomputed at compile time so Run never rebuilds them per batch.
	labelIdx []map[string]int
	// curPool recycles the tree-traversal cursor buffers across batches;
	// sync.Pool keeps concurrent workers from sharing a buffer.
	curPool sync.Pool
}

// gemmSizeLimit bounds the block-diagonal GEMM tensors; larger ensembles
// use TreeTraversal. Hummingbird reserves GEMM for small trees: the
// strategy is O(rows × features × internal-nodes) dense compute, which
// stops paying past a few hundred nodes.
const gemmSizeLimit = 512

// Compile translates a pipeline into a tensor program. Pipelines
// containing operators without a tensor translation (e.g. Normalizer)
// fail — they stay on the ML runtime, mirroring the paper's 88% MLtoDNN
// coverage.
func Compile(p *model.Pipeline, strategy Strategy) (*Program, error) {
	final := p.FinalModel()
	if final == nil {
		return nil, fmt.Errorf("hummingbird: pipeline %q has no model operator", p.Name)
	}
	feats, err := pipefold.Fold(p)
	if err != nil {
		return nil, err
	}
	prog := &Program{Name: p.Name, Features: feats, Strategy: strategy}
	seen := make(map[string]bool)
	for _, f := range feats {
		if f.Kind != pipefold.Const && !seen[f.Input] {
			seen[f.Input] = true
			prog.InputCols = append(prog.InputCols, f.Input)
		}
	}
	// Pre-index label-encoder categories once: buildX runs per batch (and
	// concurrently under parallel execution), so the lookup tables must be
	// immutable by then.
	prog.labelIdx = make([]map[string]int, len(feats))
	for j, f := range feats {
		if f.Kind == pipefold.Label {
			idx := make(map[string]int, len(f.Categories))
			for k, cat := range f.Categories {
				idx[cat] = k
			}
			prog.labelIdx[j] = idx
		}
	}
	switch m := final.(type) {
	case *model.LinearModel:
		if len(m.Coef) != len(feats) {
			return nil, fmt.Errorf("hummingbird: linear width %d vs %d features", len(m.Coef), len(feats))
		}
		prog.linW = make([]float32, len(m.Coef))
		for i, w := range m.Coef {
			prog.linW[i] = float32(w)
		}
		prog.linB = float32(m.Intercept)
		prog.task = m.Task
		prog.algo = model.Algo(255) // marker: linear
	case *model.TreeEnsemble:
		if m.Features != len(feats) {
			return nil, fmt.Errorf("hummingbird: ensemble width %d vs %d features", m.Features, len(feats))
		}
		prog.task = m.Task
		prog.algo = m.Algo
		prog.baseScore = float32(m.BaseScore)
		prog.nTrees = len(m.Trees)
		totalInternal, totalLeaves, maxDepth := 0, 0, 0
		for i := range m.Trees {
			totalInternal += len(m.Trees[i].Nodes) - m.Trees[i].NumLeaves()
			totalLeaves += m.Trees[i].NumLeaves()
			if d := m.Trees[i].Depth(); d > maxDepth {
				maxDepth = d
			}
		}
		pick := strategy
		if pick == StrategyAuto {
			if totalInternal <= gemmSizeLimit && totalLeaves <= gemmSizeLimit {
				pick = StrategyGEMM
			} else {
				pick = StrategyTreeTraversal
			}
		}
		prog.Strategy = pick
		if pick == StrategyGEMM {
			prog.gemm = buildGEMM(m, totalInternal, totalLeaves)
		} else {
			prog.tt = buildTT(m, maxDepth)
		}
	default:
		return nil, fmt.Errorf("hummingbird: unsupported model operator %q", final.Kind())
	}
	return prog, nil
}

// buildGEMM assembles the 5 block-diagonal matrices of the ensemble.
func buildGEMM(m *model.TreeEnsemble, totalInternal, totalLeaves int) *gemmTensors {
	g := &gemmTensors{
		feat:     make([]int32, totalInternal),
		b:        make([]float32, totalInternal),
		c:        make([]float32, totalInternal*totalLeaves),
		d:        make([]float32, totalLeaves),
		e:        make([]float32, totalLeaves),
		internal: totalInternal, leaves: totalLeaves,
	}
	iOff, lOff := 0, 0
	for ti := range m.Trees {
		t := &m.Trees[ti]
		// Local numbering of internal nodes and leaves.
		internalIdx := make(map[int]int)
		leafIdx := make(map[int]int)
		for ni, n := range t.Nodes {
			if n.IsLeaf() {
				leafIdx[ni] = lOff + len(leafIdx)
			} else {
				internalIdx[ni] = iOff + len(internalIdx)
			}
		}
		for ni, n := range t.Nodes {
			if n.IsLeaf() {
				li := leafIdx[ni]
				g.e[li] = float32(n.Value)
				continue
			}
			ii := internalIdx[ni]
			g.feat[ii] = int32(n.Feature)
			g.b[ii] = float32(n.Threshold)
		}
		// For each leaf, mark ancestors: +1 if the leaf lies in the left
		// subtree of the ancestor, −1 if in the right subtree.
		var mark func(node int, ancestors []int, sides []bool)
		mark = func(node int, ancestors []int, sides []bool) {
			n := t.Nodes[node]
			if n.IsLeaf() {
				li := leafIdx[node]
				need := 0
				for k, a := range ancestors {
					ii := internalIdx[a]
					if sides[k] {
						g.c[ii*totalLeaves+li] = 1
						need++
					} else {
						g.c[ii*totalLeaves+li] = -1
					}
				}
				g.d[li] = float32(need)
				return
			}
			mark(n.Left, append(ancestors, node), append(sides, true))
			mark(n.Right, append(ancestors, node), append(sides, false))
		}
		mark(0, nil, nil)
		iOff += len(internalIdx)
		lOff += len(leafIdx)
	}
	return g
}

// buildTT flattens the ensemble into node arrays with self-looping leaves.
func buildTT(m *model.TreeEnsemble, maxDepth int) *ttTensors {
	tt := &ttTensors{maxDepth: maxDepth}
	for ti := range m.Trees {
		t := &m.Trees[ti]
		off := int32(len(tt.feat))
		tt.roots = append(tt.roots, off)
		for _, n := range t.Nodes {
			if n.IsLeaf() {
				idx := int32(len(tt.feat))
				tt.feat = append(tt.feat, 0)
				tt.thresh = append(tt.thresh, 0)
				tt.left = append(tt.left, idx) // leaves self-loop
				tt.right = append(tt.right, idx)
				tt.value = append(tt.value, float32(n.Value))
			} else {
				tt.feat = append(tt.feat, int32(n.Feature))
				tt.thresh = append(tt.thresh, float32(n.Threshold))
				tt.left = append(tt.left, off+int32(n.Left))
				tt.right = append(tt.right, off+int32(n.Right))
				tt.value = append(tt.value, 0)
			}
		}
	}
	return tt
}
