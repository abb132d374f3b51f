package opt

import (
	"math"

	"raven/internal/model"
)

// Choice is a logical-to-physical decision for one predict node.
type Choice uint8

// Runtime choices.
const (
	// ChoiceNone keeps the pipeline on the ML runtime.
	ChoiceNone Choice = iota
	// ChoiceSQL applies MLtoSQL.
	ChoiceSQL
	// ChoiceDNN applies MLtoDNN: the pipeline runs as a tensor program.
	ChoiceDNN
)

func (c Choice) String() string {
	switch c {
	case ChoiceSQL:
		return "MLtoSQL"
	case ChoiceDNN:
		return "MLtoDNN"
	}
	return "none"
}

// RuntimeStrategy decides which transformation to apply for a pipeline
// with the given statistics. Implementations live in internal/strategy
// (ML-informed rule-based, classification-based, regression-based).
type RuntimeStrategy interface {
	// Name identifies the strategy in reports.
	Name() string
	// Choose picks a transformation given the pipeline features.
	Choose(f *Features) Choice
}

// ParallelAwareStrategy is an optional refinement: strategies that
// condition their choice on the engine's real execution parallelism
// implement it, and the optimizer prefers ChooseParallel whenever
// Options.ExecDOP > 1.
type ParallelAwareStrategy interface {
	RuntimeStrategy
	// ChooseParallel picks a transformation knowing execDOP worker
	// goroutines will drive the physical predict operator.
	ChooseParallel(f *Features, execDOP int) Choice
}

// NumFeatures is the dimensionality of the statistics vector (§5.2: "we
// gathered 22 statistics").
const NumFeatures = 22

// FeatureNames labels each position of the vector.
var FeatureNames = [NumFeatures]string{
	"num_inputs", "num_features", "num_operators",
	"num_scalers", "num_onehot", "num_labelenc", "num_concat",
	"num_feature_extractors", "num_normalizers",
	"mean_ohe_width", "max_ohe_width",
	"is_linear", "is_dt", "is_rf", "is_gb",
	"num_trees", "mean_tree_depth", "max_tree_depth", "std_tree_depth",
	"total_tree_nodes", "total_leaves", "frac_unused_features",
}

// Features is the 22-statistic description of a trained pipeline used by
// the data-driven optimization strategies.
type Features struct {
	V [NumFeatures]float64
}

// ExtractFeatures computes the statistics vector for a pipeline.
func ExtractFeatures(p *model.Pipeline) *Features {
	f := &Features{}
	f.V[0] = float64(len(p.Inputs))
	f.V[1] = float64(p.NumFeatures())
	f.V[2] = float64(p.NumOperators())
	f.V[3] = float64(p.CountKind("StandardScaler"))
	f.V[4] = float64(p.CountKind("OneHotEncoder"))
	f.V[5] = float64(p.CountKind("LabelEncoder"))
	f.V[6] = float64(p.CountKind("Concat"))
	f.V[7] = float64(p.CountKind("FeatureExtractor"))
	f.V[8] = float64(p.CountKind("Normalizer"))
	var oheWidths []float64
	for _, op := range p.Ops {
		if o, ok := op.(*model.OneHotEncoder); ok {
			oheWidths = append(oheWidths, float64(len(o.Categories)))
		}
	}
	if len(oheWidths) > 0 {
		sum, maxW := 0.0, 0.0
		for _, w := range oheWidths {
			sum += w
			if w > maxW {
				maxW = w
			}
		}
		f.V[9] = sum / float64(len(oheWidths))
		f.V[10] = maxW
	}
	switch m := p.FinalModel().(type) {
	case *model.LinearModel:
		f.V[11] = 1
		// Mean tree depth is 0 for linear models (paper footnote 6).
		used := 0
		for _, w := range m.Coef {
			if w != 0 {
				used++
			}
		}
		if len(m.Coef) > 0 {
			f.V[21] = 1 - float64(used)/float64(len(m.Coef))
		}
	case *model.TreeEnsemble:
		switch m.Algo {
		case model.DecisionTree:
			f.V[12] = 1
		case model.RandomForest:
			f.V[13] = 1
		case model.GradientBoosting:
			f.V[14] = 1
		}
		f.V[15] = float64(len(m.Trees))
		depths := make([]float64, len(m.Trees))
		sum, maxD := 0.0, 0.0
		for i := range m.Trees {
			d := float64(m.Trees[i].Depth())
			depths[i] = d
			sum += d
			if d > maxD {
				maxD = d
			}
		}
		if len(depths) > 0 {
			mean := sum / float64(len(depths))
			f.V[16] = mean
			f.V[17] = maxD
			varsum := 0.0
			for _, d := range depths {
				varsum += (d - mean) * (d - mean)
			}
			f.V[18] = math.Sqrt(varsum / float64(len(depths)))
		}
		f.V[19] = float64(m.TotalNodes())
		leaves := 0
		for i := range m.Trees {
			leaves += m.Trees[i].NumLeaves()
		}
		f.V[20] = float64(leaves)
		if m.Features > 0 {
			f.V[21] = 1 - float64(len(m.UsedFeatures()))/float64(m.Features)
		}
	}
	return f
}

// Get returns the named statistic.
func (f *Features) Get(name string) float64 {
	for i, n := range FeatureNames {
		if n == name {
			return f.V[i]
		}
	}
	return math.NaN()
}

// Slice returns the statistics as a plain slice (for strategy training).
func (f *Features) Slice() []float64 {
	out := make([]float64, NumFeatures)
	copy(out, f.V[:])
	return out
}

// FixedStrategy always returns the same choice; used to force a specific
// transformation in micro-benchmarks (Figs. 9-12 sweep rule combinations).
type FixedStrategy struct{ C Choice }

// Name implements RuntimeStrategy.
func (s FixedStrategy) Name() string { return "fixed:" + s.C.String() }

// Choose implements RuntimeStrategy.
func (s FixedStrategy) Choose(*Features) Choice { return s.C }
