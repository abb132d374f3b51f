// Command ravenopt shows what the Raven optimizer does to a prediction
// query: the unified IR before and after optimization plus the rule
// report. It runs on the built-in running example (the paper's COVID-risk
// query) or on user-provided CSV tables and a model file.
//
// Usage:
//
//	ravenopt                               # built-in running example
//	ravenopt -csv a.csv -csv b.csv -model m.onnx.json -query 'SELECT ...'
//	ravenopt -no-opt                       # show the unoptimized plan only
package main

import (
	"flag"
	"fmt"
	"os"

	"raven/internal/engine"
	"raven/internal/opt"
	"raven/internal/sqlparse"
	"raven/internal/strategy"
	"raven/internal/testfix"

	"raven/internal/data"
	"raven/internal/model"
)

type csvList []string

func (c *csvList) String() string     { return fmt.Sprint([]string(*c)) }
func (c *csvList) Set(v string) error { *c = append(*c, v); return nil }

func main() {
	var csvs csvList
	flag.Var(&csvs, "csv", "CSV table file (repeatable)")
	var (
		modelPath = flag.String("model", "", "model file (.onnx.json)")
		query     = flag.String("query", "", "prediction query (default: the built-in running example)")
		noOpt     = flag.Bool("no-opt", false, "disable Raven optimizations")
	)
	flag.Parse()

	cat := engine.NewCatalog()
	sql := *query
	if len(csvs) == 0 && *modelPath == "" {
		pi, pt, bt := testfix.CovidTables()
		cat.RegisterTable(pi)
		cat.RegisterTable(pt)
		cat.RegisterTable(bt)
		if err := cat.RegisterModel(testfix.CovidPipeline()); err != nil {
			fatal(err)
		}
		if sql == "" {
			sql = testfix.CovidQuery
		}
	} else {
		for _, path := range csvs {
			t, err := data.ReadCSVFile(path)
			if err != nil {
				fatal(err)
			}
			cat.RegisterTable(t)
		}
		p, err := model.Load(*modelPath)
		if err != nil {
			fatal(err)
		}
		if err := cat.RegisterModel(p); err != nil {
			fatal(err)
		}
		if sql == "" {
			fatal(fmt.Errorf("-query is required with -csv/-model"))
		}
	}

	g, err := sqlparse.ParseAndPlan(sql, cat)
	if err != nil {
		fatal(err)
	}
	fmt.Println("--- unified IR (before optimization) ---")
	fmt.Println(g.Explain())

	opts := opt.DefaultOptions()
	opts.Strategy = strategy.CalibratedRule{}
	if *noOpt {
		opts = opt.NoOpt()
	}
	og, rep, err := opt.New(cat, opts).Optimize(g)
	if err != nil {
		fatal(err)
	}
	fmt.Println("--- optimized plan ---")
	fmt.Println(og.Explain())
	fmt.Println("--- optimizer report ---")
	fmt.Println(rep.String())
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "ravenopt: %v\n", err)
	os.Exit(1)
}
