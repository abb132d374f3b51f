package engine

import (
	"fmt"

	"raven/internal/data"
	"raven/internal/fault"
	"raven/internal/mlruntime"
	"raven/internal/model"
	"raven/internal/relational"
)

// PredictOp is the physical operator bridging the data engine and the ML
// runtime: for each input batch it converts the bound columns to the ML
// format, runs the trained pipeline, and emits the mapped outputs
// (optionally alongside the input columns). It counts its boundary
// crossings (batches, converted bytes, sessions) for Result.
type PredictOp struct {
	Child     Operator
	Pipeline  *model.Pipeline
	InputMap  map[string]string // pipeline input -> child column
	OutputMap map[string]string // pipeline output value -> result column
	KeepInput bool
	// MaterializeFeatures emulates MADlib: featurization output is
	// materialized as one column per feature, then a model-only pipeline
	// consumes the wide table. Fails beyond MaxMaterializedColumns.
	MaterializeFeatures bool
	// Shared is the engine-level session pool (the catalog's): sessions
	// for this pipeline+binding are checked out across queries and shared
	// with this op's exchange clones instead of rebuilt per query.
	Shared *mlruntime.Pool

	stats    relational.OpStats
	key      mlruntime.PoolKey
	sess     *mlruntime.Session
	featSess *mlruntime.Session // featurization-only session (MADlib mode)
	mdlSess  *mlruntime.Session // model-only session (MADlib mode)
	matBuf   []float64          // reused transpose buffer (MADlib mode)
	matNames []string           // cached materialized column names
	// Boundary accounting. Sessions counts sessions checked out by this
	// op; ColdSessions counts the subset that had to be newly initialized
	// rather than reused warm from the pool.
	Sessions       int
	ColdSessions   int
	BytesConverted int64
}

// Operator aliases the relational operator interface for engine plans.
type Operator = relational.Operator

// predictColumns is the output of every predict operator, under every
// runtime choice: the child's columns when keep is set, then each mapped
// pipeline output.
func predictColumns(child Operator, p *model.Pipeline, outputMap map[string]string, keep bool) []string {
	var out []string
	if keep {
		out = append(out, child.Columns()...)
	}
	for _, v := range p.Outputs {
		if name, ok := outputMap[v]; ok {
			out = append(out, name)
		}
	}
	return out
}

// predictSchema types predictColumns for relational.SchemaProvider:
// pass-through columns keep the child's types and every mapped prediction
// output is a Float64 score column, so empty results stay correctly typed.
func predictSchema(child Operator, p *model.Pipeline, outputMap map[string]string, keep bool) (data.Schema, bool) {
	var out data.Schema
	if keep {
		cs, ok := relational.SchemaOf(child)
		if !ok {
			return nil, false
		}
		out = append(out, cs...)
	}
	for _, v := range p.Outputs {
		if name, ok := outputMap[v]; ok {
			out = append(out, data.Field{Name: name, Type: data.Float64})
		}
	}
	return out, true
}

// Columns returns pass-through columns plus mapped prediction outputs.
func (p *PredictOp) Columns() []string {
	return predictColumns(p.Child, p.Pipeline, p.OutputMap, p.KeepInput)
}

// OutputSchema implements relational.SchemaProvider.
func (p *PredictOp) OutputSchema() (data.Schema, bool) {
	return predictSchema(p.Child, p.Pipeline, p.OutputMap, p.KeepInput)
}

// Open opens the child and resets the boundary counters. The ML session is
// acquired lazily on the first Next: an exchange's template chain is
// opened and closed during plan setup without ever pulling a batch, so
// eager acquisition would charge a phantom session checkout per exchange.
// Lazy acquisition keeps Sessions exactly "one per chain actually
// executing", whether the session comes warm from the shared pool or is
// initialized cold. MADlib mode stays eager (its two sessions are part of
// its setup and it never runs inside an exchange).
func (p *PredictOp) Open(env *relational.Env) error {
	p.stats = relational.OpStats{Name: "Predict(" + p.Pipeline.Name + ")"}
	defer timeOp(&p.stats)()
	p.Sessions = 0
	p.ColdSessions = 0
	p.BytesConverted = 0
	if err := p.Child.Open(env); err != nil {
		return err
	}
	if p.MaterializeFeatures {
		if err := p.openMaterialized(); err != nil {
			// Drain never Closes a tree whose Open failed; release the
			// opened child here so its resources are not stranded.
			p.Child.Close()
			return err
		}
	}
	return nil
}

// ensureSession checks a session out of the shared pool on the first
// batch.
func (p *PredictOp) ensureSession() error {
	if p.sess != nil {
		return nil
	}
	p.key = mlruntime.PoolKey{
		Pipeline: p.Pipeline,
		Binding:  mlruntime.BindingKey(p.InputMap, p.OutputMap),
	}
	sess, cold, err := p.Shared.Acquire(p.key, p.boundPipeline)
	if err != nil {
		return err
	}
	p.sess = sess
	p.Sessions++
	if cold {
		p.ColdSessions++
	}
	return nil
}

// boundPipeline builds the session pipeline: outputs restricted to the
// mapped ones, dead operators pruned, and inputs renamed to the bound
// child columns so binding finds them directly.
func (p *PredictOp) boundPipeline() (*model.Pipeline, error) {
	bound := p.Pipeline.Clone()
	keep := make(map[string]bool, len(p.OutputMap))
	for v := range p.OutputMap {
		keep[v] = true
	}
	var outs []string
	for _, o := range bound.Outputs {
		if keep[o] {
			outs = append(outs, o)
		}
	}
	bound.Outputs = outs
	bound.Prune()
	if err := renamePipelineInputs(bound, p.InputMap); err != nil {
		return nil, err
	}
	return bound, nil
}

// CloneWorker implements relational.ParallelOp: the clone shares the
// immutable pipeline and the session pool, so each exchange worker runs
// its own session concurrently without shared mutable state.
func (p *PredictOp) CloneWorker(child Operator) (Operator, error) {
	return &PredictOp{
		Child:     child,
		Pipeline:  p.Pipeline,
		InputMap:  p.InputMap,
		OutputMap: p.OutputMap,
		KeepInput: p.KeepInput,
		// CanParallelize keeps MADlib-mode ops out of exchanges, but the
		// plan rewrite also uses CloneWorker to rebuild an op over a
		// rewritten child — the mode must survive that.
		MaterializeFeatures: p.MaterializeFeatures,
		Shared:              p.Shared,
	}, nil
}

// AbsorbWorker folds a finished worker clone's boundary accounting and
// statistics back into the template (called after all workers join).
func (p *PredictOp) AbsorbWorker(clone Operator) {
	c := clone.(*PredictOp)
	p.Sessions += c.Sessions
	p.ColdSessions += c.ColdSessions
	p.BytesConverted += c.BytesConverted
	p.stats.Absorb(&c.stats)
}

// CanParallelize vetoes parallel execution for the MADlib materialized
// mode, which deliberately models a serial engine.
func (p *PredictOp) CanParallelize() bool { return !p.MaterializeFeatures }

// openMaterialized splits the pipeline into featurization and model halves
// with a materialized wide table between them (MADlib execution style).
func (p *PredictOp) openMaterialized() error {
	final := p.Pipeline.FinalModel()
	if final == nil {
		return fmt.Errorf("engine: MADlib mode requires a model operator in pipeline %q", p.Pipeline.Name)
	}
	width := p.Pipeline.NumFeatures()
	if width > MaxMaterializedColumns {
		return fmt.Errorf("engine: featurization of %q needs %d columns, exceeding the %d-column limit",
			p.Pipeline.Name, width, MaxMaterializedColumns)
	}
	featureVal := final.Inputs()[0]
	feat := p.Pipeline.Clone()
	feat.Outputs = []string{featureVal}
	feat.RemoveOp(final.OpName())
	feat.Prune()
	if err := renamePipelineInputs(feat, p.InputMap); err != nil {
		return err
	}
	fs, err := mlruntime.NewSession(feat)
	if err != nil {
		return err
	}
	// Model-only pipeline: one numeric input per materialized feature.
	mdl := &model.Pipeline{Name: p.Pipeline.Name + "_model"}
	featCols := make([]string, width)
	for i := range featCols {
		featCols[i] = fmt.Sprintf("f%d", i)
		mdl.Inputs = append(mdl.Inputs, model.Input{Name: featCols[i]})
	}
	mdl.Ops = append(mdl.Ops, &model.Concat{Name: "gather", In: featCols, Out: featureVal})
	mdl.Ops = append(mdl.Ops, final.CloneOp())
	keep := make(map[string]bool, len(p.OutputMap))
	for v := range p.OutputMap {
		keep[v] = true
	}
	for _, o := range p.Pipeline.Outputs {
		if keep[o] {
			mdl.Outputs = append(mdl.Outputs, o)
		}
	}
	ms, err := mlruntime.NewSession(mdl)
	if err != nil {
		return err
	}
	p.featSess, p.mdlSess = fs, ms
	p.Sessions = 2
	return nil
}

// Next runs the pipeline over the next child batch.
func (p *PredictOp) Next() (*data.Table, error) {
	defer timeOp(&p.stats)()
	b, err := p.Child.Next()
	if err != nil || b == nil {
		return nil, err
	}
	if err := fault.Inject(fault.SitePredictNext); err != nil {
		return nil, err
	}
	var outs map[string]mlruntime.Value
	if p.MaterializeFeatures {
		outs, err = p.runMaterialized(b)
	} else {
		if err := p.ensureSession(); err != nil {
			return nil, err
		}
		in, berr := p.sess.Bind(b)
		if berr != nil {
			return nil, berr
		}
		p.BytesConverted += approxValueBytes(in)
		outs, err = p.sess.Run(in, b.NumRows())
	}
	if err != nil {
		return nil, err
	}
	res, err := data.NewTable(b.Name)
	if err != nil {
		return nil, err
	}
	if p.KeepInput {
		for _, c := range b.Cols {
			if err := res.AddColumn(c); err != nil {
				return nil, err
			}
		}
	}
	for _, v := range p.Pipeline.Outputs {
		name, ok := p.OutputMap[v]
		if !ok {
			continue
		}
		val, ok := outs[v]
		if !ok || val.Block == nil || val.Block.Cols != 1 {
			return nil, fmt.Errorf("engine: pipeline output %q is not a single numeric column", v)
		}
		if err := res.AddColumn(data.NewFloat(name, val.Block.Data)); err != nil {
			return nil, err
		}
	}
	p.stats.Rows += int64(res.NumRows())
	p.stats.Batches++
	return res, nil
}

func (p *PredictOp) runMaterialized(b *data.Table) (map[string]mlruntime.Value, error) {
	in, err := p.featSess.Bind(b)
	if err != nil {
		return nil, err
	}
	p.BytesConverted += approxValueBytes(in)
	fouts, err := p.featSess.Run(in, b.NumRows())
	if err != nil {
		return nil, err
	}
	var block *mlruntime.Block
	for _, v := range fouts {
		block = v.Block
	}
	// Materialize: one real column copy per feature (the MADlib table).
	// The row-major featurization block is transposed into one flat
	// column-major buffer (reused across batches) with a tiled loop, so
	// both the reads and the writes stay within cache lines instead of
	// striding the whole block per element.
	n := b.NumRows()
	cols := block.Cols
	wide, err := data.NewTable("featurized")
	if err != nil {
		return nil, err
	}
	if need := n * cols; cap(p.matBuf) < need {
		p.matBuf = make([]float64, need)
	}
	buf := p.matBuf[: n*cols : n*cols]
	const tile = 128
	for r0 := 0; r0 < n; r0 += tile {
		rMax := min(r0+tile, n)
		for c0 := 0; c0 < cols; c0 += tile {
			cMax := min(c0+tile, cols)
			for r := r0; r < rMax; r++ {
				row := block.Data[r*cols+c0 : r*cols+cMax]
				for ci, v := range row {
					buf[(c0+ci)*n+r] = v
				}
			}
		}
	}
	for len(p.matNames) < cols {
		p.matNames = append(p.matNames, fmt.Sprintf("f%d", len(p.matNames)))
	}
	for c := 0; c < cols; c++ {
		if err := wide.AddColumn(data.NewFloat(p.matNames[c], buf[c*n:(c+1)*n])); err != nil {
			return nil, err
		}
	}
	p.BytesConverted += wide.ByteSize()
	bound, err := p.mdlSess.Bind(wide)
	if err != nil {
		return nil, err
	}
	return p.mdlSess.Run(bound, n)
}

// Close returns the session to the pool (warm for the next query) and
// closes the child.
func (p *PredictOp) Close() error {
	if p.sess != nil {
		p.Shared.Release(p.key, p.sess)
		p.sess = nil
	}
	return p.Child.Close()
}

// Stats returns the operator statistics.
func (p *PredictOp) Stats() *relational.OpStats { return &p.stats }

// Children returns the single child.
func (p *PredictOp) Children() []Operator { return []Operator{p.Child} }

// renamePipelineInputs rewrites pipeline input names (and the operator
// references to them) to the mapped child column names.
func renamePipelineInputs(p *model.Pipeline, inputMap map[string]string) error {
	rename := make(map[string]string, len(inputMap))
	for i := range p.Inputs {
		col, ok := inputMap[p.Inputs[i].Name]
		if !ok {
			return fmt.Errorf("engine: pipeline input %q is unbound", p.Inputs[i].Name)
		}
		rename[p.Inputs[i].Name] = col
		p.Inputs[i].Name = col
	}
	for _, op := range p.Ops {
		switch o := op.(type) {
		case *model.StandardScaler:
			o.In = renameVal(o.In, rename)
		case *model.OneHotEncoder:
			o.In = renameVal(o.In, rename)
		case *model.LabelEncoder:
			o.In = renameVal(o.In, rename)
		case *model.Normalizer:
			o.In = renameVal(o.In, rename)
		case *model.Concat:
			for i := range o.In {
				o.In[i] = renameVal(o.In[i], rename)
			}
		case *model.FeatureExtractor:
			o.In = renameVal(o.In, rename)
		case *model.LinearModel:
			o.In = renameVal(o.In, rename)
		case *model.TreeEnsemble:
			o.In = renameVal(o.In, rename)
		}
	}
	return nil
}

func renameVal(v string, rename map[string]string) string {
	if nv, ok := rename[v]; ok {
		return nv
	}
	return v
}

func approxValueBytes(in map[string]mlruntime.Value) int64 {
	var n int64
	for _, v := range in {
		switch {
		case v.Block != nil:
			n += int64(len(v.Block.Data) * 8)
		case v.Dict != nil:
			n += int64(len(v.Codes) * 4)
		default:
			for _, s := range v.Str {
				n += int64(len(s)) + 16
			}
		}
	}
	return n
}

func timeOp(s *relational.OpStats) func() {
	return relational.Timer(s)
}

// AdaptivePredict exists only so that callers written against the former
// mid-query re-optimizing predict operator — the type switch of the frozen
// bench/e2e/trace.go — still compile; nothing builds this type.
type AdaptivePredict struct{ PredictOp }
