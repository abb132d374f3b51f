package hummingbird

import (
	"fmt"
	"time"

	"raven/internal/data"
	"raven/internal/model"
	"raven/internal/pipefold"
	"raven/internal/tensor"
)

// Output holds one batch's predictions.
type Output struct {
	Score []float64
	Label []float64
}

// CostLog records the work of program executions in device-independent
// terms — kernel launches, GEMM FLOPs, gathered elements and the bytes a
// batch moves in and out — next to the host time they took. Logs of
// several batches sum with Add; a device model (internal/experiments)
// turns a log into a modeled elapsed time.
type CostLog struct {
	Kernels       int64
	GEMMFlops     int64
	GatherElems   int64
	BytesIn       int64
	BytesOut      int64
	MeasuredNanos int64
}

// AddKernel records one kernel launch.
func (c *CostLog) AddKernel() { c.Kernels++ }

// Add folds another log into c.
func (c *CostLog) Add(o *CostLog) {
	c.Kernels += o.Kernels
	c.GEMMFlops += o.GEMMFlops
	c.GatherElems += o.GatherElems
	c.BytesIn += o.BytesIn
	c.BytesOut += o.BytesOut
	c.MeasuredNanos += o.MeasuredNanos
}

// Run executes the program over a columnar batch on the host in float32,
// returning predictions and the batch's cost log.
func (p *Program) Run(batch *data.Table) (*Output, *CostLog, error) {
	t0 := time.Now()
	n := batch.NumRows()
	log := &CostLog{}
	x, err := p.buildX(batch, log)
	if err != nil {
		return nil, nil, err
	}
	// Host→device transfer: raw input columns as float32/int32.
	log.BytesIn = int64(n*len(p.InputCols)) * 4
	var scores *tensor.Mat
	switch {
	case p.linW != nil:
		scores, err = p.runLinear(x, log)
	case p.tt != nil:
		scores = p.runTT(x, log)
	default:
		return nil, nil, fmt.Errorf("hummingbird: program %q has no model part", p.Name)
	}
	if err != nil {
		return nil, nil, err
	}
	// Aggregation / post-transform.
	switch {
	case p.linW != nil:
		if p.task == model.Classification {
			scores.Sigmoid()
			log.AddKernel()
		}
	case p.algo == model.RandomForest:
		scores.Scale(1 / float32(p.nTrees))
		log.AddKernel()
	case p.algo == model.GradientBoosting:
		scores.AddScalar(p.baseScore)
		log.AddKernel()
		if p.task == model.Classification {
			scores.Sigmoid()
			log.AddKernel()
		}
	}
	out := &Output{Score: scores.Float64Col(0)}
	if p.task == model.Classification {
		lbl := scores.Threshold(0.5)
		log.AddKernel()
		out.Label = lbl.Float64Col(0)
	} else {
		out.Label = append([]float64(nil), out.Score...)
	}
	log.BytesOut = int64(n) * 8
	log.MeasuredNanos = time.Since(t0).Nanoseconds()
	return out, log, nil
}

// buildX materializes the feature matrix from the symbolic per-feature
// programs (the on-device featurization kernels).
func (p *Program) buildX(batch *data.Table, log *CostLog) (*tensor.Mat, error) {
	n := batch.NumRows()
	d := len(p.Features)
	x := tensor.New(n, d)
	for j, f := range p.Features {
		log.AddKernel()
		log.GatherElems += int64(n)
		if f.Kind == pipefold.Const {
			v := float32(f.Value)
			for r := 0; r < n; r++ {
				x.Set(r, j, v)
			}
			continue
		}
		c := batch.Col(f.Input)
		if c == nil {
			return nil, fmt.Errorf("hummingbird: batch lacks column %q", f.Input)
		}
		switch f.Kind {
		case pipefold.Num:
			for r := 0; r < n; r++ {
				x.Set(r, j, float32(f.Apply(c.AsFloat(r))))
			}
		case pipefold.OneHot:
			for r := 0; r < n; r++ {
				raw := 0.0
				if c.AsString(r) == f.Cat {
					raw = 1
				}
				x.Set(r, j, float32(f.Apply(raw)))
			}
		case pipefold.Label:
			idx := p.labelIdx[j]
			for r := 0; r < n; r++ {
				raw := -1.0
				if ix, ok := idx[c.AsString(r)]; ok {
					raw = float64(ix)
				}
				x.Set(r, j, float32(f.Apply(raw)))
			}
		}
	}
	return x, nil
}

func (p *Program) runLinear(x *tensor.Mat, log *CostLog) (*tensor.Mat, error) {
	w := &tensor.Mat{Rows: len(p.linW), Cols: 1, Data: p.linW}
	y, err := tensor.MatMul(x, w)
	if err != nil {
		return nil, err
	}
	y.AddScalar(p.linB)
	log.AddKernel()
	log.AddKernel()
	log.GEMMFlops += tensor.FLOPs(x.Rows, x.Cols, 1)
	return y, nil
}

// runTT evaluates all trees with the vectorized traversal loop: every
// (row, tree) pair walks one level per iteration via gathers.
func (p *Program) runTT(x *tensor.Mat, log *CostLog) *tensor.Mat {
	tt := p.tt
	n := x.Rows
	nt := len(tt.roots)
	var cur []int32
	if buf, ok := p.curPool.Get().(*[]int32); ok && cap(*buf) >= n*nt {
		cur = (*buf)[:n*nt]
	} else {
		cur = make([]int32, n*nt)
	}
	defer p.curPool.Put(&cur)
	for r := 0; r < n; r++ {
		copy(cur[r*nt:(r+1)*nt], tt.roots)
	}
	for depth := 0; depth < tt.maxDepth; depth++ {
		for r := 0; r < n; r++ {
			row := x.Row(r)
			base := r * nt
			for t := 0; t < nt; t++ {
				node := cur[base+t]
				if x := row[tt.feat[node]]; x <= tt.thresh[node] {
					cur[base+t] = tt.left[node]
				} else {
					cur[base+t] = tt.right[node]
				}
			}
		}
	}
	// Each level is one fused gather/compare/select kernel on device.
	log.Kernels += int64(tt.maxDepth)
	log.GatherElems += int64(tt.maxDepth) * int64(n) * int64(nt) * 3
	y := tensor.New(n, 1)
	for r := 0; r < n; r++ {
		s := float32(0)
		base := r * nt
		for t := 0; t < nt; t++ {
			s += tt.value[cur[base+t]]
		}
		y.Data[r] = s
	}
	log.AddKernel()
	log.GatherElems += int64(n * nt)
	return y
}
