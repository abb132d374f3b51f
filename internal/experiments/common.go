package experiments

import (
	"fmt"
	"sort"

	"raven/internal/engine"
	"raven/internal/ir"
	"raven/internal/opt"
	"raven/internal/sqlparse"
)

// Config sizes the experiments. The defaults are ravenbench's; tests and
// benchmarks pass smaller values. Rows scale the paper's 100M-2B row
// tables down by a constant factor per experiment (see the substitution
// policy in costmodel.go).
type Config struct {
	// Rows is the fact-table row count.
	Rows int
	// Runs per measurement; with 3+ runs the trimmed mean is reported
	// (the paper uses the trimmed mean of 5).
	Runs int
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.Rows == 0 {
		c.Rows = 50000
	}
	if c.Runs == 0 {
		c.Runs = 1
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// runResult is one measured configuration.
type runResult struct {
	Seconds float64 // reported (cost-model) seconds, trimmed mean
	Wall    float64 // measured wall seconds of the serial run, trimmed mean
	Rows    int
	Report  *opt.Report
}

// planQuery parses, plans and optimizes sql under the given options.
func planQuery(cat *engine.Catalog, sql string, opts opt.Options) (*ir.Graph, *opt.Report, error) {
	g, err := sqlparse.ParseAndPlan(sql, cat)
	if err != nil {
		return nil, nil, fmt.Errorf("experiments: planning %q: %w", sql, err)
	}
	og, rep, err := opt.New(cat, opts).Optimize(g)
	if err != nil {
		return nil, nil, fmt.Errorf("experiments: optimizing: %w", err)
	}
	return og, rep, nil
}

// runQuery optimizes sql under the given options, executes it under the
// cluster's profile and converts each run's measurements into the
// cluster's reported time — the one place the cost model is applied —
// repeating runs times and reporting the trimmed mean.
func runQuery(cat *engine.Catalog, sql string, opts opt.Options, cl Cluster, runs int) (*runResult, error) {
	res, err := runPriced(cat, sql, opts, cl.Profile, runs, cl.Cost)
	if err != nil {
		return nil, err
	}
	return res[0], nil
}

// runPriced is runQuery for several cost models over the same executions:
// result i reports every run priced by costs[i].
func runPriced(cat *engine.Catalog, sql string, opts opt.Options, prof engine.Profile, runs int, costs ...CostModel) ([]*runResult, error) {
	og, rep, err := planQuery(cat, sql, opts)
	if err != nil {
		return nil, err
	}
	if runs < 1 {
		runs = 1
	}
	reported := make([][]float64, len(costs))
	walls := make([]float64, 0, runs)
	rows := 0
	for i := 0; i < runs; i++ {
		res, err := engine.Run(og, cat, prof)
		if err != nil {
			return nil, fmt.Errorf("experiments: executing: %w", err)
		}
		for c, cost := range costs {
			modeled, err := cost.Reported(res.Root)
			if err != nil {
				return nil, err
			}
			reported[c] = append(reported[c], modeled.Seconds())
		}
		walls = append(walls, res.Wall.Seconds())
		rows = res.Table.NumRows()
	}
	wall := trimmedMean(walls)
	out := make([]*runResult, len(costs))
	for c := range costs {
		out[c] = &runResult{Seconds: trimmedMean(reported[c]), Wall: wall, Rows: rows, Report: rep}
	}
	return out, nil
}

func trimmedMean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	sort.Float64s(vals)
	if len(vals) >= 3 {
		vals = vals[1 : len(vals)-1]
	}
	s := 0.0
	for _, v := range vals {
		s += v
	}
	return s / float64(len(vals))
}

// ravenOptions returns the full optimizer configuration with the given
// strategy.
func ravenOptions(st opt.RuntimeStrategy) opt.Options {
	o := opt.DefaultOptions()
	o.Strategy = st
	return o
}

// comboOptions builds the rule combinations swept by the
// micro-experiments (Figs. 9-10).
func comboOptions(modelProj bool, choice opt.Choice) opt.Options {
	o := opt.Options{EngineOnly: true, AssumeFK: true}
	o.ModelProjection = modelProj
	if choice != opt.ChoiceNone {
		o.Strategy = opt.FixedStrategy{C: choice}
	}
	return o
}
