package engine

import (
	"fmt"

	"raven/internal/data"
	"raven/internal/hummingbird"
	"raven/internal/ir"
	"raven/internal/model"
	"raven/internal/relational"
)

// dnnProgram is a pipeline compiled for the MLtoDNN target: the immutable
// tensor program plus the pipeline outputs its label and score columns
// answer. One is compiled per lowered plan and shared by every worker.
type dnnProgram struct {
	prog               *hummingbird.Program
	labelVal, scoreVal string
}

// compileDNN binds the pipeline's inputs to plan columns and compiles it to
// a tensor program.
func compileDNN(p *model.Pipeline, inputMap map[string]string) (*dnnProgram, error) {
	bound := p.Clone()
	if err := renamePipelineInputs(bound, inputMap); err != nil {
		return nil, err
	}
	out := &dnnProgram{}
	switch m := bound.FinalModel().(type) {
	case nil:
		return nil, fmt.Errorf("engine: DNN target needs a model operator in %q", p.Name)
	case *model.LinearModel:
		out.labelVal, out.scoreVal = m.OutLabel, m.OutScore
	case *model.TreeEnsemble:
		out.labelVal, out.scoreVal = m.OutLabel, m.OutScore
	}
	prog, err := hummingbird.Compile(bound)
	if err != nil {
		return nil, err
	}
	out.prog = prog
	return out, nil
}

// DNNOp executes a Hummingbird-compiled tensor program for a predict node
// (the MLtoDNN physical operator). It computes on the host in float32, so
// its scores agree with the ML runtime within float32 rounding rather
// than byte for byte.
type DNNOp struct {
	Child     Operator
	Pipeline  *model.Pipeline
	OutputMap map[string]string
	KeepInput bool
	// Work sums the program's cost log over every batch this operator —
	// and, once absorbed, its worker clones — ran. Only the paper-figure
	// cost model (internal/experiments) prices it.
	Work hummingbird.CostLog

	prog  *dnnProgram
	stats relational.OpStats
}

// Columns returns pass-through columns plus mapped prediction outputs.
func (d *DNNOp) Columns() []string {
	return predictColumns(d.Child, d.Pipeline, d.OutputMap, d.KeepInput)
}

// OutputSchema implements relational.SchemaProvider.
func (d *DNNOp) OutputSchema() (data.Schema, bool) {
	return predictSchema(d.Child, d.Pipeline, d.OutputMap, d.KeepInput)
}

// Open opens the child; the program was compiled at lowering.
func (d *DNNOp) Open(env *relational.Env) error {
	d.stats = relational.OpStats{Name: "DNN(" + d.Pipeline.Name + ")"}
	defer timeOp(&d.stats)()
	d.Work = hummingbird.CostLog{}
	return d.Child.Open(env)
}

// CloneWorker implements relational.ParallelOp: clones share the compiled
// program, each accumulating a private work log.
func (d *DNNOp) CloneWorker(child Operator) (Operator, error) {
	return &DNNOp{
		Child:     child,
		Pipeline:  d.Pipeline,
		OutputMap: d.OutputMap,
		KeepInput: d.KeepInput,
		prog:      d.prog,
	}, nil
}

// AbsorbWorker folds a worker clone's work log and statistics back into
// the template.
func (d *DNNOp) AbsorbWorker(clone Operator) {
	c := clone.(*DNNOp)
	d.Work.Add(&c.Work)
	d.stats.Absorb(&c.stats)
}

// Next runs the tensor program over the next batch.
func (d *DNNOp) Next() (*data.Table, error) {
	defer timeOp(&d.stats)()
	b, err := d.Child.Next()
	if err != nil || b == nil {
		return nil, err
	}
	out, log, err := d.prog.prog.Run(b)
	if err != nil {
		return nil, err
	}
	d.Work.Add(log)
	res, err := data.NewTable(b.Name)
	if err != nil {
		return nil, err
	}
	if d.KeepInput {
		for _, c := range b.Cols {
			if err := res.AddColumn(c); err != nil {
				return nil, err
			}
		}
	}
	for _, v := range d.Pipeline.Outputs {
		name, ok := d.OutputMap[v]
		if !ok {
			continue
		}
		var vals []float64
		switch v {
		case d.prog.labelVal:
			vals = out.Label
		case d.prog.scoreVal:
			vals = out.Score
		default:
			return nil, fmt.Errorf("engine: DNN cannot produce output %q", v)
		}
		if err := res.AddColumn(data.NewFloat(name, vals)); err != nil {
			return nil, err
		}
	}
	d.stats.Rows += int64(res.NumRows())
	d.stats.Batches++
	return res, nil
}

// Close closes the child.
func (d *DNNOp) Close() error { return d.Child.Close() }

// Stats returns the operator statistics.
func (d *DNNOp) Stats() *relational.OpStats { return &d.stats }

// Children returns the single child.
func (d *DNNOp) Children() []Operator { return []Operator{d.Child} }

// lowerDNN compiles the predict node's pipeline and builds its DNNOp.
func (l *lowerer) lowerDNN(n *ir.Node, child Operator) (Operator, error) {
	prog, err := compileDNN(n.Pipeline, n.InputMap)
	if err != nil {
		return nil, err
	}
	return &DNNOp{
		Child:     child,
		Pipeline:  n.Pipeline,
		OutputMap: n.OutputMap,
		KeepInput: n.KeepInput,
		prog:      prog,
	}, nil
}
