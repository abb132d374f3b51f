package experiments

import (
	"fmt"

	"raven/internal/datagen"
	"raven/internal/engine"
	"raven/internal/opt"
	"raven/internal/strategy"
	"raven/internal/train"
)

// trainFig6 fits the three models §7.1.1 evaluates — LR with strong L1,
// DT of depth 8, GB with 20 estimators of depth 3 — and registers them.
func trainFig6(ds *datagen.Dataset, cat *engine.Catalog) (map[string]string, error) {
	names := map[string]string{}
	specs := []struct {
		label string
		kind  train.ModelKind
		mut   func(*train.Spec)
	}{
		{"LR", train.KindLogistic, func(s *train.Spec) { s.Alpha = 0.001 }},
		{"DT", train.KindDecisionTree, func(s *train.Spec) { s.MaxDepth = 8 }},
		{"GB", train.KindGradientBoosting, func(s *train.Spec) {
			s.NEstimators = 20
			s.MaxDepth = 3
			s.LearningRate = 0.2
		}},
	}
	for _, sp := range specs {
		p, err := ds.Train(sp.kind, sp.mut)
		if err != nil {
			return nil, err
		}
		if err := cat.RegisterModel(p); err != nil {
			return nil, err
		}
		names[sp.label] = p.Name
	}
	return names, nil
}

// Fig6 compares prediction-query runtime on the Spark profile across the
// four datasets and three models: SparkML, Spark+scikit-learn, Raven
// without optimizations, and Raven.
func Fig6(cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	rep := &Report{
		ID:     "fig6",
		Title:  "Prediction query runtime on Spark (reported seconds)",
		Header: []string{"dataset", "model", "SparkML", "Spark+SKL", "Raven(no-opt)", "Raven", "speedup"},
	}
	rep.Note("rows=%d per fact table (paper: 1.6B/2B/500M/200M; constant scale-down per dataset)", cfg.Rows)
	for _, ds := range datagen.All(cfg.Rows, cfg.Seed) {
		cat := ds.Catalog()
		models, err := trainFig6(ds, cat)
		if err != nil {
			return nil, err
		}
		for _, label := range []string{"LR", "DT", "GB"} {
			q := ds.Query(models[label])
			sparkML, err := runQuery(cat, q, opt.NoOpt(), SparkML, cfg.Runs)
			if err != nil {
				return nil, err
			}
			sparkSKL, err := runQuery(cat, q, opt.NoOpt(), SparkSKL, cfg.Runs)
			if err != nil {
				return nil, err
			}
			noopt, err := runQuery(cat, q, opt.NoOpt(), Spark, cfg.Runs)
			if err != nil {
				return nil, err
			}
			raven, err := runQuery(cat, q, ravenOptions(strategy.CalibratedRule{}), Spark, cfg.Runs)
			if err != nil {
				return nil, err
			}
			rep.AddRow(ds.Name, label,
				ms(sparkML.Seconds), ms(sparkSKL.Seconds),
				ms(noopt.Seconds), ms(raven.Seconds),
				f2(noopt.Seconds/raven.Seconds)+"x")
		}
	}
	return rep, nil
}

// Fig7 sweeps the Hospital dataset size, comparing Raven with and without
// optimizations for LR and GB (the paper's 1M-10B rows scaled down 1000x).
func Fig7(cfg Config, sizes []int) (*Report, error) {
	cfg = cfg.withDefaults()
	if len(sizes) == 0 {
		sizes = []int{1000, 10000, 100000, 1000000}
	}
	rep := &Report{
		ID:     "fig7",
		Title:  "Raven scalability on Hospital (reported seconds)",
		Header: []string{"rows", "model", "Raven(no-opt)", "Raven", "speedup"},
	}
	for _, size := range sizes {
		ds := datagen.Hospital(size, cfg.Seed)
		cat := ds.Catalog()
		for _, mk := range []struct {
			label string
			kind  train.ModelKind
			mut   func(*train.Spec)
		}{
			{"LR", train.KindLogistic, func(s *train.Spec) { s.Alpha = 0.001 }},
			{"GB", train.KindGradientBoosting, func(s *train.Spec) {
				s.NEstimators = 20
				s.MaxDepth = 3
				s.LearningRate = 0.2
			}},
		} {
			p, err := ds.Train(mk.kind, mk.mut)
			if err != nil {
				return nil, err
			}
			if err := cat.RegisterModel(p); err != nil {
				return nil, err
			}
			q := ds.Query(p.Name)
			noopt, err := runQuery(cat, q, opt.NoOpt(), Spark, cfg.Runs)
			if err != nil {
				return nil, err
			}
			raven, err := runQuery(cat, q, ravenOptions(strategy.CalibratedRule{}), Spark, cfg.Runs)
			if err != nil {
				return nil, err
			}
			rep.AddRow(fmt.Sprintf("%d", size), mk.label,
				ms(noopt.Seconds), ms(raven.Seconds), f2(noopt.Seconds/raven.Seconds)+"x")
		}
	}
	return rep, nil
}

// Fig8 compares SQL Server (DOP 1 and 16) with and without Raven, plus
// MADlib on PostgreSQL. Queries aggregate the predictions (§7.1.2); for
// MADlib the GB model is replaced with RF (the only ensemble MADlib
// supports) and Expedia/Flights hit PostgreSQL's 1600-column limit.
func Fig8(cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	rep := &Report{
		ID:    "fig8",
		Title: "Prediction query runtime on SQL Server and MADlib (reported seconds)",
		Header: []string{"dataset", "model", "SQLSrv DOP1", "SQLSrv DOP16",
			"Raven DOP1", "Raven DOP16", "MADlib", "speedup(DOP16)"},
	}
	for _, ds := range datagen.All(cfg.Rows, cfg.Seed) {
		cat := ds.Catalog()
		models, err := trainFig6(ds, cat)
		if err != nil {
			return nil, err
		}
		// MADlib substitutes RF for GB.
		rf, err := ds.Train(train.KindRandomForest, func(s *train.Spec) {
			s.NEstimators = 10
			s.MaxDepth = 6
		})
		if err != nil {
			return nil, err
		}
		if err := cat.RegisterModel(rf); err != nil {
			return nil, err
		}
		for _, label := range []string{"LR", "DT", "GB"} {
			q := ds.AggregateQuery(models[label])
			dop1, err := runQuery(cat, q, opt.NoOpt(), SQLServerDOP1, cfg.Runs)
			if err != nil {
				return nil, err
			}
			dop16, err := runQuery(cat, q, opt.NoOpt(), SQLServerDOP16, cfg.Runs)
			if err != nil {
				return nil, err
			}
			r1, err := runQuery(cat, q, ravenOptions(strategy.CalibratedRule{}), SQLServerDOP1, cfg.Runs)
			if err != nil {
				return nil, err
			}
			r16, err := runQuery(cat, q, ravenOptions(strategy.CalibratedRule{}), SQLServerDOP16, cfg.Runs)
			if err != nil {
				return nil, err
			}
			madlibCell := "n/a"
			madlibModel := models[label]
			if label == "GB" {
				madlibModel = rf.Name
			}
			mres, err := runQuery(cat, ds.AggregateQuery(madlibModel), opt.NoOpt(), MADlib, cfg.Runs)
			if err != nil {
				// Expedia/Flights exceed the materialized-column limit.
				madlibCell = "n/a (1600-col limit)"
			} else {
				madlibCell = ms(mres.Seconds)
			}
			rep.AddRow(ds.Name, label,
				ms(dop1.Seconds), ms(dop16.Seconds),
				ms(r1.Seconds), ms(r16.Seconds), madlibCell,
				f2(dop16.Seconds/r16.Seconds)+"x")
		}
	}
	rep.Note("MADlib rows use RF in place of GB (MADlib supports no boosted ensembles)")
	return rep, nil
}

// Table1 reports the dataset statistics of the generated workloads.
func Table1(cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	rep := &Report{
		ID:     "table1",
		Title:  "Dataset statistics",
		Header: []string{"dataset", "# tables", "# inputs (num/cat)", "# features after encoding"},
	}
	for _, ds := range datagen.All(cfg.Rows, cfg.Seed) {
		w, err := ds.EncodedWidth()
		if err != nil {
			return nil, err
		}
		rep.AddRow(ds.Name,
			fmt.Sprintf("%d", len(ds.Tables)),
			fmt.Sprintf("%d (%d/%d)", ds.NumInputs(), len(ds.Spec.Numeric), len(ds.Spec.Categorical)),
			fmt.Sprintf("%d", w))
	}
	rep.Note("paper widths 3965/6475 for Expedia/Flights are scaled ~10x to fit one host")
	return rep, nil
}
