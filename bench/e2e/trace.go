package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"time"

	"raven"
	"raven/internal/data"
	"raven/internal/engine"
	"raven/internal/model"
	"raven/internal/opt"
	"raven/internal/relational"
	"raven/internal/sched"
	"raven/internal/sqlparse"
	"raven/internal/strategy"
)

// span is one timed interval of the traced pass. Spans of one op share its
// op_id; parent is the id of the span that caused this one (0 for the op
// span itself). Times are nanoseconds since the tracer started.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	OpID    int    `json:"op_id"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	// Rows and CPUNs are set on operator spans: rows produced, and the
	// operator's raw self time summed over its workers (see layOutOps for
	// how that becomes the span's interval).
	Rows  int64 `json:"rows,omitempty"`
	CPUNs int64 `json:"cpu_ns,omitempty"`
}

// tracer keeps spans in memory; they are written out when the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

func (t *tracer) now() int64 { return time.Since(t.t0).Nanoseconds() }

// begin opens a span and returns its id.
func (t *tracer) begin(parent, opID int, name string) int {
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, OpID: opID, Name: name, StartNs: t.now()})
	return len(t.spans)
}

func (t *tracer) end(id int) { t.spans[id-1].EndNs = t.now() }

func (t *tracer) dur(id int) time.Duration {
	return time.Duration(t.spans[id-1].EndNs - t.spans[id-1].StartNs)
}

// hand is the engine driven by hand, layer by layer, as Session.Query
// drives it: the same catalog contents, optimizer options and profile the
// benchmark session builds, but with a span around every call.
type hand struct {
	cat  *engine.Catalog
	opts opt.Options
	prof engine.Profile
	// fact is the fact table as ingested, kept for the decode probe.
	fact       *data.ChunkedTable
	ingestMBps float64 // fact CSV bytes per second through ReadCSVChunked
}

// newHand loads the inputs into a bare catalog, mirroring
// Session.RegisterTableCSV / RegisterModelFile and NewSession's defaults
// under WithParallelism(0).
func newHand(w workload, in *inputs, spill string) (*hand, error) {
	h := &hand{cat: engine.NewCatalog(), opts: opt.DefaultOptions(), prof: engine.Local}
	dop := runtime.NumCPU()
	h.opts.Strategy = strategy.CalibratedRule{}
	h.opts.ExecDOP = dop
	h.prof.ExecDOP = dop
	if w.budget > 0 {
		h.prof.GlobalBudget = relational.NewGlobalBudget(w.budget, spill)
	}
	threshold := w.chunkThreshold
	if threshold == 0 {
		threshold = raven.DefaultChunkRegisterRows
	}
	for i, path := range in.tables {
		ct, mbps, err := ingest(path)
		if err != nil {
			return nil, err
		}
		if i == 0 {
			h.fact, h.ingestMBps = ct, mbps
		}
		if threshold > 0 && ct.NumRows() >= threshold {
			if err := h.cat.RegisterChunked(ct); err != nil {
				return nil, err
			}
			continue
		}
		t, err := ct.Decode()
		if err != nil {
			return nil, err
		}
		h.cat.RegisterTable(t)
	}
	p, err := model.Load(in.model)
	if err != nil {
		return nil, err
	}
	return h, h.cat.RegisterModel(p)
}

// ingest reads one CSV into chunked storage and returns the rate in MB/s.
func ingest(path string) (*data.ChunkedTable, float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, 0, err
	}
	name := tableName(path)
	start := time.Now()
	ct, err := data.ReadCSVChunked(name, f, 0)
	if err != nil {
		return nil, 0, fmt.Errorf("ingesting %s: %w", path, err)
	}
	return ct, float64(st.Size()) / 1e6 / time.Since(start).Seconds(), nil
}

// layers is what one traced op measured, keyed by per-layer metric name.
type layers map[string]float64

// query runs one text through every layer by hand under parent, adds what
// it measured to l, and returns the result's byte count and fingerprint.
func (h *hand) query(ctx context.Context, tr *tracer, parent, opID int, sql string, l layers) (*sink, error) {
	id := tr.begin(parent, opID, "sqlparse.parse")
	stmt, err := sqlparse.Parse(sql)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	l["sqlparse.parse_us"] += us(tr.dur(id))

	id = tr.begin(parent, opID, "sqlparse.plan")
	g, err := sqlparse.Plan(stmt, h.cat)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	l["sqlparse.plan_us"] += us(tr.dur(id))

	id = tr.begin(parent, opID, "opt.optimize")
	og, rep, err := opt.New(h.cat, h.opts).Optimize(g)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	l["opt.optimize_us"] += us(tr.dur(id))
	l["opt.rules_fired"] += float64(len(rep.Fired))
	for _, rule := range rep.Fired {
		l["rule:"+rule]++
	}

	id = tr.begin(parent, opID, "engine.lower")
	root, err := engine.Lower(og, h.cat, h.prof)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	l["engine.lower_us"] += us(tr.dur(id))

	// What engine.RunContext does between lowering and draining, spelled
	// out so the operator tree stays in hand for the walk below.
	id = tr.begin(parent, opID, "engine.execute")
	relational.SetContext(ctx, root)
	var mb *relational.MemBudget
	if gb := h.prof.GlobalBudget; gb != nil {
		mb = gb.QueryBudgetFor(sched.Default().AdmitCap())
		relational.SetBudget(mb, root)
	}
	res, err := engine.ExecuteContext(ctx, root, h.prof)
	if mb != nil {
		mb.Cleanup()
	}
	tr.end(id)
	if err != nil {
		return nil, err
	}
	l["engine.exec_ms"] += ms(tr.dur(id))
	h.layOutOps(tr, id, opID, root, l)
	l["result_rows"] += float64(res.Table.NumRows())

	id = tr.begin(parent, opID, "data.write_csv")
	out := newSink()
	err = data.WriteCSV(res.Table, out)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	l["data.write_csv_ms"] += ms(tr.dur(id))
	l["data.result_bytes_per_op"] += float64(out.n)
	return out, nil
}

// opKind maps an executed operator to the per-layer metric that owns its
// self time; "" for operators that are pure plumbing.
func opKind(op relational.Operator) string {
	switch op.(type) {
	case *engine.PredictOp, *engine.DNNOp, *engine.AdaptivePredict:
		return "engine.predict"
	case *relational.Scan:
		return "relational.scan"
	case *relational.HashJoin, *relational.ParallelHashJoin:
		return "relational.join"
	case *relational.Aggregate, *relational.PartialAggregate, *relational.MergeAggregate,
		*relational.GroupAggregate, *relational.PartialGroupAggregate, *relational.MergeGroupAggregate:
		return "relational.agg"
	case *relational.Sort, *relational.PartialSort, *relational.MergeSortRuns, *relational.Limit:
		return "relational.sort"
	case *relational.Filter, *relational.Project, *relational.HavingFilter:
		return "relational.filter_project"
	}
	return ""
}

// layOutOps walks the executed operator tree and turns operator self
// times into child spans of the execute span, laid end to end from its
// start. An operator's self time is its WallNs minus its children's. Under
// an Exchange the operators carry CPU time summed over the workers, which
// can exceed the wall time; there each operator gets the share of the
// Exchange's wall time that its self time is of the segment's total, so
// the spans add up to the root's wall time and stay inside the execute
// span. The raw self times go to the per-layer metrics and to cpu_ns.
func (h *hand) layOutOps(tr *tracer, exec, opID int, root relational.Operator, l layers) {
	at := tr.spans[exec-1].StartNs
	end := tr.spans[exec-1].EndNs
	var walk func(op relational.Operator, scale float64, inExchange bool)
	walk = func(op relational.Operator, scale float64, inExchange bool) {
		st := op.Stats()
		if ex, ok := op.(*relational.Exchange); ok {
			if busy := float64(segmentSelf(ex.Template)); !inExchange && busy > 0 {
				l["exchange_busy_ns"] += busy
				scale *= float64(st.WallNs) / busy
			}
			walk(ex.Template, scale, true)
			return
		}
		self := selfNs(op)
		kind := opKind(op)
		if kind == "" {
			kind = "relational.other"
		}
		l[kind+"_self_ms"] += float64(self) / 1e6
		switch kind {
		case "engine.predict":
			l["engine.predict_rows"] += float64(st.Rows)
		case "relational.scan":
			l["rows_scanned"] += float64(st.Rows)
		}
		stop := min(at+int64(float64(self)*scale), end)
		tr.spans = append(tr.spans, span{ID: len(tr.spans) + 1, Parent: exec, OpID: opID,
			Name: kind + ":" + st.Name, StartNs: at, EndNs: stop, Rows: st.Rows, CPUNs: self})
		at = stop
		for _, c := range op.Children() {
			walk(c, scale, inExchange)
		}
	}
	walk(root, 1, false)
	// The cores the query could have used, for exchange_busy_ratio. The
	// Exchange's own WallNs is no use as the denominator: it only runs
	// while the consumer is inside Next, and the workers run on while the
	// consumer is busy elsewhere.
	l["exec_dop_ns"] += float64(end-tr.spans[exec-1].StartNs) * float64(h.prof.ExecDOP)
}

// selfNs is an operator's own time: its WallNs minus its children's.
func selfNs(op relational.Operator) int64 {
	self := op.Stats().WallNs
	for _, c := range op.Children() {
		self -= c.Stats().WallNs
	}
	return max(self, 0)
}

// segmentSelf sums the self times of every operator below an Exchange.
func segmentSelf(op relational.Operator) int64 {
	var sum int64
	if _, ok := op.(*relational.Exchange); !ok {
		sum = selfNs(op)
	}
	for _, c := range op.Children() {
		sum += segmentSelf(c)
	}
	return sum
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
