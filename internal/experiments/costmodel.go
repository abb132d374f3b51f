package experiments

import (
	"fmt"
	"time"

	"raven/internal/device"
	"raven/internal/engine"
	"raven/internal/relational"
)

// Substitution policy. This file holds every modeled (as opposed to
// measured) cost in the repository, and is the only place measured
// operator work becomes a paper-figure time. All computation runs for real
// on the host CPU and the engine reports only what it measured
// (engine.Result.Wall, per-operator Stats); the constants below model the
// boundary costs of the paper's production setups that a single-process Go
// binary does not pay natively:
//
//   - the Spark Python vectorized-UDF bridge (process hop + Arrow
//     serialization) per batch,
//   - ML runtime session initialization (model load/parse), which the
//     paper measures at 2-4s cold / ~0.1s warm on Spark,
//   - scheduling cost per partition,
//   - a cluster's degree of parallelism, applied by dividing the measured
//     time of data-parallel operators,
//   - (in internal/device) GPU kernel-launch latency and PCIe transfer.
//
// The constants are order-of-magnitude figures from the paper's §7.4 and
// common measurements of the respective systems; experiments only compare
// configurations that share them, so conclusions depend on their relative
// not absolute magnitude. Dataset sizes are scaled down the same way: row
// counts by a constant factor per experiment (Config.Rows), and the
// Expedia/Flights feature widths ~10x, to fit one host.

// CostModel converts the measured work of a serially executed plan into
// the time one of the paper's clusters would report for it.
type CostModel struct {
	// DOP is the degree of parallelism the exclusive time of
	// data-parallel operators is divided by (Spark: workers × cores).
	// Below 1 means 1.
	DOP int
	// UDFBatchOverhead is the cost of shipping one batch across the
	// data-engine → ML-runtime boundary (Python bridge + Arrow for Spark;
	// in-process call for SQL Server).
	UDFBatchOverhead time.Duration
	// SessionInit is the one-time ML runtime initialization (model load,
	// graph construction) per predict session.
	SessionInit time.Duration
	// PartitionOverhead is the scheduling cost per scanned partition.
	PartitionOverhead time.Duration
	// PredictPenalty scales the measured ML-runtime time, modeling slower
	// inference runtimes than our vectorized Go interpreter: scikit-learn
	// inference is commonly ~3× slower than ONNX Runtime on traditional
	// models, and SparkML's row-oriented JVM pipelines are slower still.
	// At most 1 means no penalty.
	PredictPenalty float64
	// PredictRowOverhead is the fixed per-row cost of a row-oriented
	// prediction pipeline (SparkML drives each row through the JVM Row
	// API, commonly measured at microsecond scale). Unlike PredictPenalty
	// it does not shrink as the vectorized interpreter gets faster, so it
	// keeps row stores slower than batch runtimes on small inputs too.
	// Vectorized runtimes leave it 0.
	PredictRowOverhead time.Duration
}

// Cluster is one of the paper's execution environments: how the engine
// runs the plan, and how that run's measurements become a reported time.
// Every cluster runs the serial engine (Profile.ExecDOP 0); its
// parallelism exists only in Cost.
type Cluster struct {
	Profile engine.Profile
	Cost    CostModel
}

var (
	// Spark models the paper's HDInsight cluster: 4 workers × 8 cores,
	// Python vectorized UDFs calling ONNX Runtime.
	Spark = Cluster{
		Profile: engine.Profile{Name: "spark", BatchSize: 10000},
		Cost: CostModel{
			DOP:               32,
			UDFBatchOverhead:  1 * time.Millisecond,
			SessionInit:       100 * time.Millisecond,
			PartitionOverhead: 2 * time.Millisecond,
		},
	}
	// SparkSKL is the paper's "Spark+SKL" baseline: the Spark cluster
	// invoking scikit-learn instead of ONNX Runtime through the same
	// Python UDF.
	SparkSKL = Cluster{
		Profile: engine.Profile{Name: "spark+skl", BatchSize: 10000},
		Cost: CostModel{
			DOP:               32,
			UDFBatchOverhead:  1 * time.Millisecond,
			SessionInit:       100 * time.Millisecond,
			PartitionOverhead: 2 * time.Millisecond,
			PredictPenalty:    3,
		},
	}
	// SparkML is the paper's SparkML baseline: JVM-native (no Python
	// bridge) but row-oriented pipeline execution.
	SparkML = Cluster{
		Profile: engine.Profile{Name: "sparkml", BatchSize: 10000},
		Cost: CostModel{
			DOP:                32,
			SessionInit:        100 * time.Millisecond,
			PartitionOverhead:  2 * time.Millisecond,
			PredictPenalty:     8,
			PredictRowOverhead: time.Microsecond,
		},
	}
	// SparkGPU models the paper's GPU Spark cluster for Fig. 12: one
	// driver and three workers with 6 CPUs each and Tesla K80s, picked to
	// match the CPU cluster's hourly cost.
	SparkGPU = Cluster{
		Profile: engine.Profile{Name: "spark-gpu", BatchSize: 10000, GPU: &device.TeslaK80},
		Cost: CostModel{
			DOP:               18,
			UDFBatchOverhead:  1 * time.Millisecond,
			SessionInit:       100 * time.Millisecond,
			PartitionOverhead: 2 * time.Millisecond,
		},
	}
	// SQLServerDOP1 is the single-threaded SQL Server configuration with
	// the in-process PREDICT/ONNX Runtime integration.
	SQLServerDOP1 = Cluster{
		Profile: engine.Profile{Name: "sqlserver-dop1", BatchSize: 10000},
		Cost: CostModel{
			DOP:              1,
			UDFBatchOverhead: 50 * time.Microsecond,
			SessionInit:      10 * time.Millisecond,
		},
	}
	// SQLServerDOP16 is SQL Server at degree-of-parallelism 16.
	SQLServerDOP16 = Cluster{
		Profile: engine.Profile{Name: "sqlserver-dop16", BatchSize: 10000},
		Cost: CostModel{
			DOP:              16,
			UDFBatchOverhead: 50 * time.Microsecond,
			SessionInit:      10 * time.Millisecond,
		},
	}
	// MADlib models PostgreSQL+MADlib: single-threaded row engine that
	// materializes each featurization step.
	MADlib = Cluster{
		Profile: engine.Profile{Name: "madlib", BatchSize: 10000, MaterializeFeaturization: true},
		Cost: CostModel{
			DOP:              1,
			UDFBatchOverhead: 2 * time.Millisecond,
			SessionInit:      5 * time.Millisecond,
		},
	}
)

// dataParallel reports whether an operator's work scales out with the
// cluster's degree of parallelism (scans, filters, projects, join probes,
// predictions) rather than being single-threaded coordinator work
// (aggregation, sorting, unions). It names every operator the serial,
// non-adaptive lowering the clusters run can produce; ok is false for
// anything else, so a new operator cannot be charged by accident.
func dataParallel(op engine.Operator) (parallel, ok bool) {
	switch op.(type) {
	case *relational.Scan, *relational.Filter, *relational.Project, *relational.HashJoin,
		*engine.PredictOp, *engine.DNNOp:
		return true, true
	case *relational.Aggregate, *relational.GroupAggregate, *relational.HavingFilter,
		*relational.Sort, *relational.Limit, *relational.Union:
		return false, true
	}
	return false, false
}

// Reported converts the measured per-operator times of an executed plan
// (engine.Result.Root) into the modeled end-to-end time: exclusive times
// of data-parallel operators are divided by the modeled DOP, serial
// operators are charged fully, and the boundary overheads (session init,
// per-batch UDF bridge, per-row pipeline cost, per-partition scheduling)
// are added from the model's constants. A simulated-GPU DNNOp computed on
// the host as a stand-in for the device, so its host compute is replaced
// by the device-modeled time. It fails on an operator it does not know —
// including the exchanges of a really-parallel plan, whose measured wall
// time needs no model.
func (m CostModel) Reported(root engine.Operator) (time.Duration, error) {
	dop := float64(max(m.DOP, 1))
	var totalNs float64
	var walk func(op engine.Operator) error
	walk = func(op engine.Operator) error {
		parallel, ok := dataParallel(op)
		if !ok {
			return fmt.Errorf("experiments: cost model does not cover operator %T", op)
		}
		s := op.Stats()
		excl := s.WallNs
		for _, c := range op.Children() {
			excl -= c.Stats().WallNs
		}
		work := float64(excl)
		switch o := op.(type) {
		case *engine.PredictOp:
			if m.PredictPenalty > 1 {
				work *= m.PredictPenalty
			}
			totalNs += float64(o.Sessions) * float64(m.SessionInit)
			totalNs += float64(s.Batches) * float64(m.UDFBatchOverhead) / dop
			totalNs += float64(s.Rows) * float64(m.PredictRowOverhead) / dop
		case *engine.DNNOp:
			if o.Device.Kind == device.SimGPU {
				work -= float64(o.ComputeNs)
			}
			totalNs += float64(o.ModeledNs) + float64(m.SessionInit)
		case *relational.Scan:
			totalNs += float64(o.PartitionsRead()) * float64(m.PartitionOverhead) / dop
		}
		if parallel {
			work /= dop
		}
		totalNs += max(work, 0)
		for _, c := range op.Children() {
			if err := walk(c); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(root); err != nil {
		return 0, err
	}
	return time.Duration(totalNs), nil
}
