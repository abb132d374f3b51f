package engine

import (
	"fmt"
	"sync"
	"time"

	"raven/internal/data"
	"raven/internal/device"
	"raven/internal/hummingbird"
	"raven/internal/ir"
	"raven/internal/model"
	"raven/internal/relational"
)

// dnnShared holds the compiled tensor program shared between the worker
// clones of one DNNOp: compilation happens once (under the mutex) and the
// immutable program is then run concurrently by all workers.
type dnnShared struct {
	mu                 sync.Mutex
	prog               *hummingbird.Program
	labelVal, scoreVal string
}

// DNNOp executes a Hummingbird-compiled tensor program for a predict node
// (the MLtoDNN physical operator). Computation always happens on the host;
// when the device is a simulated GPU the operator also records the modeled
// device time, which only the paper-figure cost model
// (internal/experiments/costmodel.go) reads.
type DNNOp struct {
	Child     Operator
	Pipeline  *model.Pipeline
	InputMap  map[string]string
	OutputMap map[string]string
	KeepInput bool
	Device    *device.Device
	Strategy  hummingbird.Strategy

	prog   *hummingbird.Program
	shared *dnnShared // set on worker clones (and their template)
	stats  relational.OpStats
	// ModeledNs is the device-modeled execution time (0 on CPU).
	ModeledNs int64
	// ComputeNs is the real host time spent inside program execution (the
	// part of the operator's wall time ModeledNs stands in for on a
	// simulated GPU).
	ComputeNs int64
	// BytesConverted counts boundary bytes (batch transfer volume).
	BytesConverted int64
	labelVal       string
	scoreVal       string
}

// Columns returns pass-through columns plus mapped prediction outputs.
func (d *DNNOp) Columns() []string {
	var out []string
	if d.KeepInput {
		out = append(out, d.Child.Columns()...)
	}
	for _, v := range d.Pipeline.Outputs {
		if name, ok := d.OutputMap[v]; ok {
			out = append(out, name)
		}
	}
	return out
}

// OutputSchema implements relational.SchemaProvider: pass-through columns
// keep the child's types and every mapped prediction output is a Float64
// score column.
func (d *DNNOp) OutputSchema() (data.Schema, bool) {
	var out data.Schema
	if d.KeepInput {
		child, ok := relational.SchemaOf(d.Child)
		if !ok {
			return nil, false
		}
		out = append(out, child...)
	}
	for _, v := range d.Pipeline.Outputs {
		if name, ok := d.OutputMap[v]; ok {
			out = append(out, data.Field{Name: name, Type: data.Float64})
		}
	}
	return out, true
}

// Open compiles the pipeline to a tensor program.
func (d *DNNOp) Open(env *relational.Env) error {
	d.stats = relational.OpStats{Name: fmt.Sprintf("DNN(%s,%s)", d.Pipeline.Name, d.Device.Name)}
	defer timeOp(&d.stats)()
	d.ModeledNs, d.ComputeNs, d.BytesConverted = 0, 0, 0
	if err := d.Child.Open(env); err != nil {
		return err
	}
	if d.shared != nil {
		// Worker clone (or its template): compile once, share the
		// immutable program across the exchange workers.
		d.shared.mu.Lock()
		defer d.shared.mu.Unlock()
		if d.shared.prog == nil {
			if err := d.compile(); err != nil {
				return err
			}
			d.shared.prog, d.shared.labelVal, d.shared.scoreVal = d.prog, d.labelVal, d.scoreVal
			return nil
		}
		d.prog, d.labelVal, d.scoreVal = d.shared.prog, d.shared.labelVal, d.shared.scoreVal
		return nil
	}
	return d.compile()
}

// compile lowers the pipeline to a tensor program.
func (d *DNNOp) compile() error {
	bound := d.Pipeline.Clone()
	if err := renamePipelineInputs(bound, d.InputMap); err != nil {
		return err
	}
	final := bound.FinalModel()
	if final == nil {
		return fmt.Errorf("engine: DNN target needs a model operator in %q", d.Pipeline.Name)
	}
	switch m := final.(type) {
	case *model.LinearModel:
		d.labelVal, d.scoreVal = m.OutLabel, m.OutScore
	case *model.TreeEnsemble:
		d.labelVal, d.scoreVal = m.OutLabel, m.OutScore
	}
	prog, err := hummingbird.Compile(bound, d.Strategy)
	if err != nil {
		return err
	}
	d.prog = prog
	return nil
}

// CloneWorker implements relational.ParallelOp: clones share the compiled
// program (compilation is deduplicated via dnnShared) and the device
// model, each accumulating private counters.
func (d *DNNOp) CloneWorker(child Operator) (Operator, error) {
	if d.shared == nil {
		// Seed with the template's program when it already compiled
		// (Exchange opens the template before cloning workers).
		d.shared = &dnnShared{prog: d.prog, labelVal: d.labelVal, scoreVal: d.scoreVal}
	}
	return &DNNOp{
		Child:     child,
		Pipeline:  d.Pipeline,
		InputMap:  d.InputMap,
		OutputMap: d.OutputMap,
		KeepInput: d.KeepInput,
		Device:    d.Device,
		Strategy:  d.Strategy,
		shared:    d.shared,
	}, nil
}

// AbsorbWorker folds a worker clone's counters back into the template.
func (d *DNNOp) AbsorbWorker(clone Operator) {
	c := clone.(*DNNOp)
	d.ModeledNs += c.ModeledNs
	d.ComputeNs += c.ComputeNs
	d.BytesConverted += c.BytesConverted
	d.stats.Absorb(&c.stats)
}

// Next runs the tensor program over the next batch.
func (d *DNNOp) Next() (*data.Table, error) {
	defer timeOp(&d.stats)()
	b, err := d.Child.Next()
	if err != nil || b == nil {
		return nil, err
	}
	t0 := time.Now()
	out, log, err := d.prog.Run(b, d.Device)
	if err != nil {
		return nil, err
	}
	d.ComputeNs += time.Since(t0).Nanoseconds()
	d.ModeledNs += modeledDeviceNs(d.Device, log)
	d.BytesConverted += log.BytesIn + log.BytesOut
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
		case d.labelVal:
			vals = out.Label
		case d.scoreVal:
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

func modeledDeviceNs(dev *device.Device, log *device.CostLog) int64 {
	if dev.Kind == device.CPU {
		return 0 // measured host time already covers CPU execution
	}
	return dev.ModeledNanos(log)
}

// Close closes the child.
func (d *DNNOp) Close() error { return d.Child.Close() }

// Stats returns the operator statistics.
func (d *DNNOp) Stats() *relational.OpStats { return &d.stats }

// Children returns the single child.
func (d *DNNOp) Children() []Operator { return []Operator{d.Child} }

// lowerDNN builds the DNNOp for a predict node targeting a DNN runtime.
func (l *lowerer) lowerDNN(n *ir.Node, child Operator) (Operator, error) {
	dev := &device.CPUDevice
	if n.Target == ir.TargetDNNGPU {
		dev = l.prof.GPU
		if dev == nil {
			dev = &device.TeslaP100
		}
	}
	return &DNNOp{
		Child:     child,
		Pipeline:  n.Pipeline,
		InputMap:  n.InputMap,
		OutputMap: n.OutputMap,
		KeepInput: n.KeepInput,
		Device:    dev,
	}, nil
}
