// Package raven is an end-to-end optimizer and execution engine for
// machine-learning prediction queries, reproducing "End-to-end
// Optimization of Machine Learning Prediction Queries" (SIGMOD 2022).
//
// A prediction query joins, filters and featurizes relational data and
// invokes a trained pipeline through a PREDICT table-valued function:
//
//	WITH d AS (
//	  SELECT * FROM patient_info AS pi
//	  JOIN pulmonary_test AS pt ON pi.id = pt.id)
//	SELECT d.id, p.score
//	FROM PREDICT(MODEL = covid_risk, DATA = d) WITH (score FLOAT) AS p
//	WHERE d.asthma = 'yes' AND p.score > 0.5
//
// Raven builds a unified intermediate representation holding both the
// relational and the ML operators, applies logical cross-optimizations
// (predicate-based model pruning, model-projection pushdown, data-induced
// optimizations) and then picks the best runtime for the ML part (the ML
// runtime, a SQL translation, or a Hummingbird-style tensor compilation)
// via a data-driven strategy.
//
// # Parallel execution
//
// Plans execute serially by default. WithParallelism(n) turns on real
// morsel-driven parallel execution: partition-parallel plan segments —
// chains of Scan, Filter, Project and Predict operators — are rewritten
// into Exchange operators that split the partitioned input into row-range
// morsels and drive n worker goroutines over a shared morsel queue. Each
// worker owns a clone of the operator chain with its own ML runtime
// session (sessions are pooled and cloned, not re-initialized), and the
// Exchange merges result batches back in morsel order, so parallel plans
// produce byte-identical results to serial ones.
//
// Pipeline breakers scale too. Hash joins inside a segment become
// parallel: the build (right) side is drained once — itself through an
// exchange when large, with the key index constructed by a chunked worker
// pool — and every exchange worker probes its morsels against that shared
// immutable build table, so joins, and the predicts above them, run at
// full DOP. Global aggregates become per-worker partial accumulators
// (COUNT/SUM/MIN/MAX, with AVG decomposed into SUM+COUNT) folded at a
// merge breaker in morsel order; the serial aggregate uses the same
// per-batch fold, which keeps parallel aggregates bit-identical to serial
// ones. Grouped aggregates (GROUP BY, including over PREDICT and joins)
// follow the same discipline: per-worker grouped accumulators — a dense
// code-indexed array when the single group key is dictionary-encoded with
// small cardinality, hashed canonically-encoded typed keys otherwise —
// are merged by key VALUE at a breaker in morsel order, so grouped
// results are byte-identical across serial/parallel execution and raw/
// dictionary representations, with rows in first-occurrence order.
// Ordered queries (HAVING / ORDER BY / LIMIT — "groups whose average
// score passes a threshold, top-k by that score") extend the guarantee
// to the row order itself: ORDER BY runs as a sort breaker with typed
// multi-key comparators (dictionary keys compare through cached
// code→rank tables; NaNs collapse to one key sorting last ascending),
// per-worker sorted runs are k-way merged in morsel order with ties
// broken by serial first-occurrence row order, and a LIMIT turns the
// sort into a bounded top-k heap (per worker and at the merge), so
// ordered parallel results are byte-identical to serial ones too.
// HAVING evaluates above the grouped-aggregation breaker with the same
// dict-aware expression kernels as WHERE.
// Materializations and unions stay serial but consume parallel
// input. Result.Wall is the measured wall time at whatever parallelism
// the query ran; the engine reports no modeled time.
//
// Usage:
//
//	s := raven.NewSession(raven.WithParallelism(runtime.NumCPU()))
//	s.RegisterTable(patients)
//	s.RegisterModel(pipe)
//	res, err := s.Query(`SELECT p.score FROM PREDICT(MODEL = m, DATA = patients AS d) WITH (score FLOAT) AS p`)
package raven

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"raven/internal/data"
	"raven/internal/engine"
	"raven/internal/ir"
	"raven/internal/model"
	"raven/internal/opt"
	"raven/internal/relational"
	"raven/internal/sched"
	"raven/internal/sqlparse"
	"raven/internal/strategy"
	"raven/internal/train"
)

// Re-exported data types so API consumers outside this module can build
// tables and models without reaching into internal packages.
type (
	// Table is an in-memory columnar table.
	Table = data.Table
	// Column is one typed column of a table.
	Column = data.Column
	// Pipeline is a trained pipeline (featurizers + model).
	Pipeline = model.Pipeline
	// Profile describes how the engine executes plans (parallelism, batch
	// size, memory budget).
	Profile = engine.Profile
	// OptimizerOptions selects the optimizer rules.
	OptimizerOptions = opt.Options
	// OptimizerReport records what the optimizer did.
	OptimizerReport = opt.Report
	// RuntimeStrategy picks MLtoSQL / MLtoDNN / none per query.
	RuntimeStrategy = opt.RuntimeStrategy
	// TrainSpec describes a pipeline to train.
	TrainSpec = train.Spec
	// ModelKind selects the model family of a TrainSpec.
	ModelKind = train.ModelKind
	// PanicError is a panic inside query execution converted into a typed
	// per-query error (check with errors.As); the process and concurrent
	// queries on the same scheduler pool are unaffected.
	PanicError = relational.PanicError
)

// ErrOverloaded is returned (wrapped — check with errors.Is) by
// QueryContext/ExecuteContext when admission control has a bounded wait
// configured (Scheduler.SetAdmitWait) and no query slot frees in time.
var ErrOverloaded = sched.ErrOverloaded

// Model families for TrainSpec.Kind (re-exports).
const (
	// ModelLogistic trains L1-regularized logistic regression.
	ModelLogistic = train.KindLogistic
	// ModelDecisionTree trains a CART decision tree.
	ModelDecisionTree = train.KindDecisionTree
	// ModelRandomForest trains a random forest.
	ModelRandomForest = train.KindRandomForest
	// ModelGradientBoosting trains a gradient-boosted ensemble.
	ModelGradientBoosting = train.KindGradientBoosting
)

// Column constructors (re-exports).
var (
	// NewFloatColumn builds a FLOAT column.
	NewFloatColumn = data.NewFloat
	// NewIntColumn builds a BIGINT column.
	NewIntColumn = data.NewInt
	// NewStringColumn builds a VARCHAR column.
	NewStringColumn = data.NewString
	// NewBoolColumn builds a BOOLEAN column.
	NewBoolColumn = data.NewBool
	// NewTable builds a table from columns.
	NewTable = data.NewTable
	// Replicate scales a table by repeating its rows, offsetting the
	// listed integer key columns per copy (for parallelism benchmarks).
	Replicate = data.Replicate
	// LoadModel reads a pipeline from a JSON model file.
	LoadModel = model.Load
	// TrainPipeline fits a pipeline on a labeled table.
	TrainPipeline = train.FitPipeline
)

// ProfileLocal is the default engine profile: serial execution, no memory
// budget. The paper's modeled clusters (Spark, SQL Server, MADlib) are not
// engine profiles; cmd/ravenbench applies them to measured runs.
var ProfileLocal = engine.Local

// Session is the entry point: a catalog of tables and models plus an
// optimizer configuration (the paper's RavenSession).
type Session struct {
	cat     *engine.Catalog
	profile engine.Profile
	opts    opt.Options
	// parallelism is the WithParallelism request, applied after all
	// options so it composes with WithProfile/WithOptimizerOptions in
	// any order.
	parallelism int
	// plans caches optimized plans keyed on normalized SQL + catalog
	// version (nil when disabled): serving workloads parse/plan/optimize
	// once and execute many times.
	plans *planCache
	// planCacheSize is the WithPlanCacheSize request (0 = default).
	planCacheSize int
	// globalBudget, when non-nil, is the engine-global memory accountant
	// shared by every query this session runs (WithGlobalMemoryBudget).
	globalBudget *relational.GlobalBudget
	// chunkThreshold is the row count at which RegisterTableCSV keeps a
	// CSV in chunked storage instead of materializing it (0 = the
	// DefaultChunkRegisterRows default, < 0 = always materialize).
	chunkThreshold int
}

// irGraph aliases the internal IR graph for the plan cache.
type irGraph = ir.Graph

// Option configures a session.
type Option func(*Session)

// WithProfile selects the engine profile (default: ProfileLocal).
func WithProfile(p Profile) Option {
	return func(s *Session) { s.profile = p }
}

// WithOptimizerOptions overrides the full rule configuration.
func WithOptimizerOptions(o OptimizerOptions) Option {
	return func(s *Session) { s.opts = o }
}

// WithParallelism enables real morsel-driven parallel execution with n
// worker goroutines per partition-parallel plan segment (see the package
// comment). n <= 0 selects runtime.NumCPU(); n == 1 keeps serial
// execution. The degree of parallelism is also exposed to the runtime
// strategy, which may shift its MLtoDNN threshold when the ML runtime
// scales across workers. It composes with WithProfile and
// WithOptimizerOptions regardless of option order.
func WithParallelism(n int) Option {
	return func(s *Session) {
		if n <= 0 {
			n = runtime.NumCPU()
		}
		s.parallelism = n
	}
}

// WithStrategy sets the runtime-selection strategy (default: the paper's
// §5.2 rule). Pass nil to disable logical-to-physical transformations.
func WithStrategy(st RuntimeStrategy) Option {
	return func(s *Session) { s.opts.Strategy = st }
}

// WithGlobalMemoryBudget enables out-of-core execution: the resident
// state of every pipeline breaker (join build, grouped-aggregation merge,
// sort) of every query the session runs — including concurrent ones —
// draws from a single budget of the given size, so total memory pressure
// is bounded for the whole session; state beyond it spills to compressed
// temp files, merged back externally. Results — including row order —
// stay byte-identical to the in-memory execution at any parallelism.
// Budgeted queries pass the scheduler's admission control, and each keeps
// a floor (budget divided by the admission cap) that is always granted,
// so concurrent neighbors can force a query to spill earlier but never
// livelock it. dir is the spill directory (empty = the OS temp dir);
// files are removed when the query finishes, on error, cancellation and
// panic paths included. Result.SpilledBytes reports per-query spill
// volume; MemoryStats exposes the global pressure. bytes <= 0 disables
// spilling (the default).
func WithGlobalMemoryBudget(bytes int64, dir string) Option {
	return func(s *Session) {
		if bytes > 0 {
			s.globalBudget = relational.NewGlobalBudget(bytes, dir)
		}
	}
}

// WithChunkedRegistration sets the row threshold at or above which
// RegisterTableCSV keeps a CSV in compressed chunked storage instead of
// materializing it (default DefaultChunkRegisterRows). threshold < 0
// always materializes; threshold 0 restores the default.
func WithChunkedRegistration(threshold int) Option {
	return func(s *Session) { s.chunkThreshold = threshold }
}

// WithPlanCacheSize bounds the session's plan cache (default 256 plans).
// n < 0 disables plan caching entirely — every Query replans, the
// cold-planning baseline the serving benchmark compares against.
func WithPlanCacheSize(n int) Option {
	return func(s *Session) { s.planCacheSize = n }
}

// WithoutOptimizations disables all Raven rules (the "Raven (no-opt)"
// baseline; the engine's own projection/zone pushdowns still run).
func WithoutOptimizations() Option {
	return func(s *Session) { s.opts = opt.NoOpt() }
}

// NewSession creates a session with all logical optimizations enabled and
// the calibrated rule-based strategy for runtime selection (the paper's
// §5.2 rule re-derived for this system's cost structure).
func NewSession(options ...Option) *Session {
	s := &Session{
		cat:     engine.NewCatalog(),
		profile: engine.Local,
		opts:    opt.DefaultOptions(),
	}
	s.opts.Strategy = strategy.CalibratedRule{}
	for _, o := range options {
		o(s)
	}
	if s.parallelism > 0 {
		s.profile.ExecDOP = s.parallelism
		s.opts.ExecDOP = s.parallelism
	}
	if s.globalBudget != nil {
		s.profile.GlobalBudget = s.globalBudget
	}
	switch {
	case s.planCacheSize < 0:
		s.plans = nil
	case s.planCacheSize == 0:
		s.plans = newPlanCache(defaultPlanCacheSize)
	default:
		s.plans = newPlanCache(s.planCacheSize)
	}
	return s
}

// RegisterTable adds a table (as one partition with statistics).
func (s *Session) RegisterTable(t *Table) { s.cat.RegisterTable(t) }

// DefaultChunkRegisterRows is the RegisterTableCSV row threshold at which
// a CSV stays in compressed chunked storage instead of being materialized
// (override with WithChunkedRegistration).
const DefaultChunkRegisterRows = 65536

// RegisterTableCSV loads a CSV file and registers it under the file's
// base name. The file is streamed into compressed chunked storage in one
// pass; files below the chunked-registration threshold are then decoded
// and registered in memory (and the decoded table returned), while files
// at or above it stay chunked — scans decode row ranges on demand, so the
// catalog can exceed RAM — and the returned table is nil. On either path
// an empty field in a numeric or boolean column loads as a null (decoding
// to the type's zero value) rather than rejecting the file.
func (s *Session) RegisterTableCSV(path string) (*Table, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	ct, err := data.ReadCSVChunked(csvTableName(path), f, 0)
	if err != nil {
		return nil, err
	}
	threshold := s.chunkThreshold
	if threshold == 0 {
		threshold = DefaultChunkRegisterRows
	}
	if threshold > 0 && ct.NumRows() >= threshold {
		if err := s.cat.RegisterChunked(ct); err != nil {
			return nil, err
		}
		return nil, nil
	}
	t, err := ct.Decode()
	if err != nil {
		return nil, err
	}
	s.cat.RegisterTable(t)
	return t, nil
}

// csvTableName derives the registered table name from the CSV path: the
// base name without its extension, matching data.ReadCSVFile.
func csvTableName(path string) string {
	base := path
	if i := strings.LastIndexByte(base, '/'); i >= 0 {
		base = base[i+1:]
	}
	if i := strings.LastIndexByte(base, '.'); i > 0 {
		base = base[:i]
	}
	return base
}

// RegisterTableChunked encodes t into compressed chunked storage of
// chunkRows rows per chunk (<= 0 selects the default) and registers it
// chunk-backed: scans decode row ranges on demand instead of holding the
// table resident.
func (s *Session) RegisterTableChunked(t *Table, chunkRows int) error {
	b := data.NewChunkedBuilder(t.Name, chunkRows)
	if err := b.Append(t); err != nil {
		return err
	}
	ct, err := b.Finish()
	if err != nil {
		return err
	}
	return s.cat.RegisterChunked(ct)
}

// RegisterPartitionedTable partitions t by the given column (computing
// per-partition statistics) and registers it; the data-induced rule can
// then compile one model per partition.
//
// Partitioning groups t's rows by partition key, and scans read the
// partitions one after another, so the registered table's scan order is
// partition order, not t's row order. Whatever follows scan order differs
// from the same query over RegisterTable(t): the rows a LIMIT or OFFSET
// without ORDER BY keeps, the row order of an unordered result, the
// first-occurrence order of groups, and the last bits of float SUM/AVG
// folds. A result fixed by its ORDER BY over distinct keys, ORDER BY …
// LIMIT included, is the same under either registration.
func (s *Session) RegisterPartitionedTable(t *Table, column string) error {
	pt, err := data.PartitionBy(t, column)
	if err != nil {
		return err
	}
	s.cat.RegisterPartitioned(pt)
	return nil
}

// RegisterModel adds a trained pipeline to the catalog.
func (s *Session) RegisterModel(p *Pipeline) error { return s.cat.RegisterModel(p) }

// RegisterModelFile loads a JSON model file and registers it.
func (s *Session) RegisterModelFile(path string) (*Pipeline, error) {
	p, err := model.Load(path)
	if err != nil {
		return nil, err
	}
	if err := s.cat.RegisterModel(p); err != nil {
		return nil, err
	}
	return p, nil
}

// Result is a query's outcome.
type Result struct {
	// Table holds the result rows.
	Table *Table
	// Wall is the measured wall time of executing the plan, at whatever
	// parallelism the session runs (planning and admission wait excluded).
	Wall time.Duration
	// Report describes the optimizations applied.
	Report *OptimizerReport
	// Plan is the optimized plan rendered as text.
	Plan string
	// Sessions is the number of ML runtime sessions the query checked out
	// of the catalog pool; ColdSessions the subset built from scratch
	// rather than found warm. Together they make pool hygiene observable:
	// after failed or canceled queries a healthy pool keeps ColdSessions
	// at zero on the next run.
	Sessions int
	// ColdSessions — see Sessions.
	ColdSessions int
	// SpilledBytes is the total bytes the pipeline breakers spilled to
	// temp files under the session memory budget (0 without a budget).
	SpilledBytes int64
	// ChunksDecoded and ChunksSkipped sum, over the query's scans of
	// chunk-backed tables, the chunk decodes performed and the chunks left
	// encoded because a zone map excluded them.
	ChunksDecoded, ChunksSkipped int64
}

// Query parses, optimizes and executes a prediction query. Plans are
// served from the session plan cache (keyed on normalized SQL + catalog
// version) when enabled, so repeated queries skip parse/plan/optimize.
func (s *Session) Query(sql string) (*Result, error) {
	return s.QueryContext(context.Background(), sql)
}

// QueryContext is Query under a context: cancellation and deadlines
// propagate to every morsel and pipeline-breaker boundary of the
// executing plan, so a done context surfaces as the query error (wrapping
// ctx.Err()) within one batch of work, with all scheduler slots and ML
// sessions released. Overload (a configured bounded admission wait
// elapsing) surfaces as an error wrapping ErrOverloaded; a panic during
// execution as one wrapping a *PanicError.
func (s *Session) QueryContext(ctx context.Context, sql string) (*Result, error) {
	if s.plans != nil {
		return s.execPlanned(ctx, NormalizeSQL(sql))
	}
	g, rep, err := s.prepare(sql)
	if err != nil {
		return nil, err
	}
	res, err := engine.RunContext(ctx, g, s.cat, s.profile)
	if err != nil {
		return nil, fmt.Errorf("raven: executing query: %w", err)
	}
	return newResult(res, rep, g.Explain()), nil
}

// newResult wraps an engine result with the plan it executed.
func newResult(res *engine.Result, rep *OptimizerReport, plan string) *Result {
	return &Result{
		Table:         res.Table,
		Wall:          res.Wall,
		Report:        rep,
		Plan:          plan,
		Sessions:      res.Sessions,
		ColdSessions:  res.ColdSessions,
		SpilledBytes:  res.SpilledBytes,
		ChunksDecoded: res.ChunksDecoded,
		ChunksSkipped: res.ChunksSkipped,
	}
}

// Explain optimizes the query and returns the plan text and the optimizer
// report without executing.
func (s *Session) Explain(sql string) (string, *OptimizerReport, error) {
	g, rep, err := s.prepare(sql)
	if err != nil {
		return "", nil, err
	}
	return g.Explain(), rep, nil
}

func (s *Session) prepare(sql string) (*ir.Graph, *opt.Report, error) {
	g, err := sqlparse.ParseAndPlan(sql, s.cat)
	if err != nil {
		return nil, nil, err
	}
	og, rep, err := opt.New(s.cat, s.opts).Optimize(g)
	if err != nil {
		return nil, nil, fmt.Errorf("raven: optimizing query: %w", err)
	}
	return og, rep, nil
}

// Tables lists registered table names.
func (s *Session) Tables() []string { return s.cat.TableNames() }

// Models lists registered model names.
func (s *Session) Models() []string { return s.cat.ModelNames() }
