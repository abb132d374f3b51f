// Package hummingbird compiles trained pipelines into tensor programs, the
// MLtoDNN transformation of the paper (its reference [57]). Featurizers
// are folded into per-feature affine/one-hot programs; tree ensembles are
// compiled with the TreeTraversal strategy (a vectorized gather loop, one
// level of every tree per iteration); linear models become a single GEMM.
// Programs execute on the host and log their work (CostLog), which the
// paper-figure cost model (internal/experiments) prices on a modeled GPU.
package hummingbird

import (
	"fmt"
	"sync"

	"raven/internal/model"
	"raven/internal/pipefold"
)

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
	tt   *ttTensors

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

// Compile translates a pipeline into a tensor program. Pipelines
// containing operators without a tensor translation (e.g. Normalizer)
// fail — they stay on the ML runtime, mirroring the paper's 88% MLtoDNN
// coverage.
func Compile(p *model.Pipeline) (*Program, error) {
	final := p.FinalModel()
	if final == nil {
		return nil, fmt.Errorf("hummingbird: pipeline %q has no model operator", p.Name)
	}
	feats, err := pipefold.Fold(p)
	if err != nil {
		return nil, err
	}
	prog := &Program{Name: p.Name, Features: feats}
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
		prog.tt = buildTT(m)
	default:
		return nil, fmt.Errorf("hummingbird: unsupported model operator %q", final.Kind())
	}
	return prog, nil
}

// buildTT flattens the ensemble into node arrays with self-looping leaves.
func buildTT(m *model.TreeEnsemble) *ttTensors {
	tt := &ttTensors{}
	for ti := range m.Trees {
		t := &m.Trees[ti]
		tt.maxDepth = max(tt.maxDepth, t.Depth())
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
