package experiments

import (
	"fmt"
	"math"
	"strings"

	"raven/internal/datagen"
	"raven/internal/engine"
	"raven/internal/hummingbird"
	"raven/internal/mlruntime"
	"raven/internal/model"
	"raven/internal/opt"
	"raven/internal/pipefold"
	"raven/internal/train"
)

// Fig9 sweeps L1 regularization strength on Credit Card logistic models
// (§7.2.1): the smaller alpha is, the more zero weights, the more
// model-projection pushdown saves. Rule combinations follow the paper.
func Fig9(cfg Config, alphas []float64) (*Report, error) {
	cfg = cfg.withDefaults()
	if len(alphas) == 0 {
		alphas = []float64{0.001, 0.01, 0.1, 1, 2}
	}
	rep := &Report{
		ID:    "fig9",
		Title: "Impact of optimizations on linear models, Credit Card (reported seconds)",
		Header: []string{"alpha", "#zero-weights", "no-opt", "ModelProj",
			"MLtoSQL", "ModelProj+MLtoSQL", "ModelProj+MLtoDNN"},
	}
	ds := datagen.CreditCard(cfg.Rows, cfg.Seed)
	cat := ds.Catalog()
	for _, alpha := range alphas {
		a := alpha
		p, err := ds.Train(train.KindLogistic, func(s *train.Spec) {
			s.Alpha = a
			s.Name = strings.ReplaceAll(fmt.Sprintf("cc_lr_%g", a), ".", "_")
		})
		if err != nil {
			return nil, err
		}
		if err := cat.RegisterModel(p); err != nil {
			return nil, err
		}
		zeros := train.CountZeroWeights(p.FinalModel().(*model.LinearModel).Coef)
		q := ds.Query(p.Name)
		cells := []string{fmt.Sprintf("%g", alpha), fmt.Sprintf("%d", zeros)}
		for _, combo := range []opt.Options{
			opt.NoOpt(),
			comboOptions(true, opt.ChoiceNone),
			comboOptions(false, opt.ChoiceSQL),
			comboOptions(true, opt.ChoiceSQL),
			comboOptions(true, opt.ChoiceDNN),
		} {
			res, err := runQuery(cat, q, combo, Spark, cfg.Runs)
			if err != nil {
				return nil, err
			}
			cells = append(cells, ms(res.Seconds))
		}
		rep.AddRow(cells...)
	}
	return rep, nil
}

// Fig10 sweeps decision-tree depth on Hospital (§7.2.2): shallow trees
// leave many inputs unused (ModelProj wins) and translate to small CASE
// expressions (MLtoSQL wins); deep trees reverse both effects.
func Fig10(cfg Config, depths []int) (*Report, error) {
	cfg = cfg.withDefaults()
	if len(depths) == 0 {
		depths = []int{3, 5, 10, 15, 20}
	}
	rep := &Report{
		ID:    "fig10",
		Title: "Impact of optimizations on decision trees, Hospital (reported seconds)",
		Header: []string{"depth", "#unused-inputs", "no-opt", "ModelProj",
			"MLtoSQL", "ModelProj+MLtoSQL", "ModelProj+MLtoDNN"},
	}
	ds := datagen.Hospital(cfg.Rows, cfg.Seed)
	cat := ds.Catalog()
	for _, depth := range depths {
		d := depth
		p, err := ds.Train(train.KindDecisionTree, func(s *train.Spec) {
			s.MaxDepth = d
			s.Name = fmt.Sprintf("hosp_dt_%d", d)
		})
		if err != nil {
			return nil, err
		}
		if err := cat.RegisterModel(p); err != nil {
			return nil, err
		}
		unused := unusedInputs(p)
		q := ds.Query(p.Name)
		cells := []string{fmt.Sprintf("%d", depth), fmt.Sprintf("%d", unused)}
		for _, combo := range []opt.Options{
			opt.NoOpt(),
			comboOptions(true, opt.ChoiceNone),
			comboOptions(false, opt.ChoiceSQL),
			comboOptions(true, opt.ChoiceSQL),
			comboOptions(true, opt.ChoiceDNN),
		} {
			res, err := runQuery(cat, q, combo, Spark, cfg.Runs)
			if err != nil {
				return nil, err
			}
			cells = append(cells, ms(res.Seconds))
		}
		rep.AddRow(cells...)
	}
	return rep, nil
}

// unusedInputs counts pipeline inputs whose entire feature block goes
// untested by the tree model (the parenthesized counts on Fig. 10's
// x-axis).
func unusedInputs(p *model.Pipeline) int {
	ens, ok := p.FinalModel().(*model.TreeEnsemble)
	if !ok {
		return 0
	}
	used := make(map[int]bool)
	for _, f := range ens.UsedFeatures() {
		used[f] = true
	}
	feats, err := pipefold.Fold(p)
	if err != nil {
		return 0
	}
	blocks := map[string][]int{}
	for i, f := range feats {
		if f.Input != "" {
			blocks[f.Input] = append(blocks[f.Input], i)
		}
	}
	unused := 0
	for _, idxs := range blocks {
		all := true
		for _, ix := range idxs {
			if used[ix] {
				all = false
				break
			}
		}
		if all {
			unused++
		}
	}
	return unused
}

// Fig11 evaluates the data-induced optimizations on partitioned Hospital
// data (§7.2.2): per-partition model compilation under num_issues (2
// partitions) and rcount (6 partitions).
func Fig11(cfg Config, depths []int) (*Report, *Report, error) {
	cfg = cfg.withDefaults()
	if len(depths) == 0 {
		depths = []int{10, 15, 20}
	}
	rep := &Report{
		ID:    "fig11",
		Title: "Data-induced optimizations on Hospital (reported seconds)",
		Header: []string{"depth", "Raven(no-opt)", "Raven w/o part.",
			"Raven part(num_issues)", "Raven part(rcount)"},
	}
	tab2 := &Report{
		ID:     "table2",
		Title:  "Avg # columns pruned by the data-induced optimization",
		Header: []string{"depth", "no partitioning", "part(num_issues)", "part(rcount)"},
	}
	ds := datagen.Hospital(cfg.Rows, cfg.Seed)
	base := ds.Tables[0]
	catPlain := ds.Catalog()
	ptIssues, err := datagen.HospitalPartitionColumn(base, "num_issues")
	if err != nil {
		return nil, nil, err
	}
	catIssues := engine.NewCatalog()
	catIssues.RegisterPartitioned(ptIssues)
	ptRcount, err := datagen.HospitalPartitionColumn(base, "rcount")
	if err != nil {
		return nil, nil, err
	}
	catRcount := engine.NewCatalog()
	catRcount.RegisterPartitioned(ptRcount)

	for _, depth := range depths {
		d := depth
		p, err := ds.Train(train.KindDecisionTree, func(s *train.Spec) {
			s.MaxDepth = d
			s.Name = fmt.Sprintf("hosp_dt_part_%d", d)
		})
		if err != nil {
			return nil, nil, err
		}
		for _, cat := range []*engine.Catalog{catPlain, catIssues, catRcount} {
			if err := cat.RegisterModel(p); err != nil {
				return nil, nil, err
			}
		}
		q := ds.Query(p.Name)
		noopt, err := runQuery(catPlain, q, opt.NoOpt(), Spark, cfg.Runs)
		if err != nil {
			return nil, nil, err
		}
		noPartOpts := ravenOptions(opt.FixedStrategy{C: opt.ChoiceSQL})
		noPartOpts.PerPartition = false
		noPart, err := runQuery(catPlain, q, noPartOpts, Spark, cfg.Runs)
		if err != nil {
			return nil, nil, err
		}
		partOpts := ravenOptions(opt.FixedStrategy{C: opt.ChoiceSQL})
		wIssues, err := runQuery(catIssues, q, partOpts, Spark, cfg.Runs)
		if err != nil {
			return nil, nil, err
		}
		wRcount, err := runQuery(catRcount, q, partOpts, Spark, cfg.Runs)
		if err != nil {
			return nil, nil, err
		}
		rep.AddRow(fmt.Sprintf("%d", depth),
			ms(noopt.Seconds), ms(noPart.Seconds), ms(wIssues.Seconds), ms(wRcount.Seconds))
		tab2.AddRow(fmt.Sprintf("%d", depth),
			f1(float64(len(noPart.Report.RemovedInputs))),
			f1(meanInts(wIssues.Report.PrunedColumnsPerPartition)),
			f1(meanInts(wRcount.Report.PrunedColumnsPerPartition)))
	}
	tab2.Note("counts are model inputs removed per (partition-specialized) pipeline")
	return rep, tab2, nil
}

func meanInts(v []int) float64 {
	if len(v) == 0 {
		return 0
	}
	s := 0
	for _, x := range v {
		s += x
	}
	return float64(s) / float64(len(v))
}

// Fig12 evaluates MLtoDNN on complex gradient-boosting models (§7.3):
// each shape's MLtoDNN plan executes once per run, and every run is priced
// twice — with the tensor program's measured host compute (CPU) and with
// its work log on the Tesla K80s of the paper's GPU Spark cluster.
func Fig12(cfg Config, shapes [][2]int) (*Report, error) {
	cfg = cfg.withDefaults()
	if len(shapes) == 0 {
		shapes = [][2]int{{60, 5}, {100, 4}, {100, 8}, {500, 8}}
	}
	rep := &Report{
		ID:     "fig12",
		Title:  "MLtoDNN over CPU and GPU on complex GB models, Hospital (reported seconds)",
		Header: []string{"estimators/depth", "Raven(no-opt)", "MLtoDNN-CPU", "MLtoDNN-GPU", "GPU speedup"},
	}
	ds := datagen.Hospital(cfg.Rows, cfg.Seed)
	cat := ds.Catalog()
	cl := SparkGPU
	cpuCost := cl.Cost
	cpuCost.GPU = nil
	for _, sh := range shapes {
		est, depth := sh[0], sh[1]
		p, err := ds.Train(train.KindGradientBoosting, func(s *train.Spec) {
			s.NEstimators = est
			s.MaxDepth = depth
			s.LearningRate = 0.1
			s.Name = fmt.Sprintf("hosp_gb_%d_%d", est, depth)
		})
		if err != nil {
			return nil, err
		}
		if err := cat.RegisterModel(p); err != nil {
			return nil, err
		}
		q := ds.Query(p.Name)
		noopt, err := runQuery(cat, q, opt.NoOpt(), cl, cfg.Runs)
		if err != nil {
			return nil, err
		}
		dnn, err := runPriced(cat, q, comboOptions(false, opt.ChoiceDNN), cl.Profile, cfg.Runs, cpuCost, cl.Cost)
		if err != nil {
			return nil, err
		}
		cpu, gpu := dnn[0], dnn[1]
		rep.AddRow(fmt.Sprintf("%d/%d", est, depth),
			ms(noopt.Seconds), ms(cpu.Seconds), ms(gpu.Seconds),
			f2(noopt.Seconds/gpu.Seconds)+"x")
	}
	rep.Note("GPU time is device-modeled from the program's logged work (experiments.Device); CPU paths are measured")
	return rep, nil
}

// Accuracy reproduces §7.4's rounding study: prediction disagreement of
// the MLtoSQL and MLtoDNN translations against the ML runtime across
// datasets and model families (paper: ≤0.3% and ≤0.8%).
func Accuracy(cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	rep := &Report{
		ID:     "accuracy",
		Title:  "Prediction parity of translated plans vs the ML runtime",
		Header: []string{"dataset", "model", "MLtoSQL mismatch", "MLtoDNN mismatch", "max |score delta| (DNN)"},
	}
	for _, ds := range datagen.All(cfg.Rows, cfg.Seed) {
		for _, mk := range []struct {
			label string
			kind  train.ModelKind
			mut   func(*train.Spec)
		}{
			{"LR", train.KindLogistic, func(s *train.Spec) { s.Alpha = 0.01 }},
			{"DT", train.KindDecisionTree, func(s *train.Spec) { s.MaxDepth = 8 }},
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
			sqlMis, dnnMis, maxDelta, err := parity(p, ds)
			if err != nil {
				return nil, err
			}
			rep.AddRow(ds.Name, mk.label,
				fmt.Sprintf("%.4f%%", 100*sqlMis),
				fmt.Sprintf("%.4f%%", 100*dnnMis),
				fmt.Sprintf("%.2e", maxDelta))
		}
	}
	return rep, nil
}

// parity compares labels of the translated executions against the ML
// runtime over the dataset's training sample.
func parity(p *model.Pipeline, ds *datagen.Dataset) (sqlMis, dnnMis, maxDelta float64, err error) {
	tb := ds.TrainSample
	sess, err := mlruntime.NewSession(p)
	if err != nil {
		return 0, 0, 0, err
	}
	out, err := sess.RunTable(tb)
	if err != nil {
		return 0, 0, 0, err
	}
	mlScore := out["score"].Block.Data
	mlLabel := out["label"].Block.Data
	n := len(mlScore)

	inputMap := map[string]string{}
	for _, in := range p.Inputs {
		inputMap[in.Name] = in.Name
	}
	exprs, err := opt.CompileToSQL(p, inputMap, map[string]string{"score": "score", "label": "label"})
	if err != nil {
		return 0, 0, 0, err
	}
	var sqlLabel []float64
	for _, ne := range exprs {
		col, err := ne.E.Eval(tb)
		if err != nil {
			return 0, 0, 0, err
		}
		if ne.Name == "label" {
			sqlLabel = col.F64
		}
	}
	mis := 0
	for i := 0; i < n; i++ {
		if sqlLabel[i] != mlLabel[i] {
			mis++
		}
	}
	sqlMis = float64(mis) / float64(n)

	prog, err := hummingbird.Compile(p)
	if err != nil {
		return 0, 0, 0, err
	}
	res, _, err := prog.Run(tb)
	if err != nil {
		return 0, 0, 0, err
	}
	mis = 0
	for i := 0; i < n; i++ {
		if res.Label[i] != mlLabel[i] {
			mis++
		}
		if d := math.Abs(res.Score[i] - mlScore[i]); d > maxDelta {
			maxDelta = d
		}
	}
	dnnMis = float64(mis) / float64(n)
	return sqlMis, dnnMis, maxDelta, nil
}
