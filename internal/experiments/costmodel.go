package experiments

import (
	"fmt"
	"time"

	"raven/internal/engine"
	"raven/internal/hummingbird"
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
//   - a GPU (Device) the MLtoDNN tensor program's logged work is priced
//     on — kernel-launch latency, throughput and PCIe transfer — since the
//     host has no GPU and the program computes on the host CPU.
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
	// GPU, when set, is the device MLtoDNN runs on: a DNNOp's measured
	// host compute is replaced by its work log priced on the device. Nil
	// charges the measured host compute, i.e. MLtoDNN on the CPU.
	GPU *Device
}

// Device models a GPU for the MLtoDNN tensor programs. Programs still
// compute on the host (so results are real); ModeledNanos assembles the
// device's elapsed time from a program's logged work: GEMM FLOPs over
// device throughput, gathered elements over gather throughput, a launch
// latency per kernel, and PCIe transfer for the batch in and the
// predictions out. The crossover the paper shows in Fig. 12 — small
// models lose to launch and transfer overhead, large gradient-boosting
// models win up to ~8× — is the throughput-vs-overhead effect this model
// reproduces from the real op shapes.
type Device struct {
	Name string
	// GEMMThroughput is sustained float32 FLOP/s for matrix multiplies.
	GEMMThroughput float64
	// GatherThroughput is elements/s for gather/compare kernels
	// (tree-traversal workloads are gather-bound).
	GatherThroughput float64
	// KernelLaunch is the per-kernel launch latency.
	KernelLaunch time.Duration
	// PCIeBandwidth is host↔device bytes/s.
	PCIeBandwidth float64
}

// TeslaK80 approximates the paper's GPU Spark cluster accelerator
// (float32 ~4.1 TFLOPs per GPU, PCIe ~10 GB/s).
var TeslaK80 = Device{
	Name:             "tesla-k80",
	GEMMThroughput:   4.1e12,
	GatherThroughput: 8.0e10,
	KernelLaunch:     8 * time.Microsecond,
	PCIeBandwidth:    10e9,
}

// ModeledNanos converts a work log into modeled elapsed nanoseconds on
// the device. The model is linear in the log, so a log summed over
// batches prices like the sum of its batches (up to rounding).
func (d *Device) ModeledNanos(c *hummingbird.CostLog) int64 {
	sec := float64(c.Kernels)*d.KernelLaunch.Seconds() +
		float64(c.GEMMFlops)/d.GEMMThroughput +
		float64(c.GatherElems)/d.GatherThroughput +
		float64(c.BytesIn+c.BytesOut)/d.PCIeBandwidth
	return int64(sec * 1e9)
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
		Profile: engine.Profile{Name: "spark-gpu", BatchSize: 10000},
		Cost: CostModel{
			DOP:               18,
			UDFBatchOverhead:  1 * time.Millisecond,
			SessionInit:       100 * time.Millisecond,
			PartitionOverhead: 2 * time.Millisecond,
			GPU:               &TeslaK80,
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
// (aggregation, sorting, unions). It names every operator the serial
// lowering the clusters run can produce; ok is false for
// anything else, so a new operator cannot be charged by accident.
func dataParallel(op engine.Operator) (parallel, ok bool) {
	switch op.(type) {
	case *relational.Scan, *relational.Filter, *relational.Project, *relational.HashJoin,
		*engine.PredictOp, *engine.DNNOp:
		return true, true
	case *relational.GroupAggregate, *relational.Sort, *relational.Limit, *relational.Union:
		return false, true
	}
	return false, false
}

// Reported converts the measured per-operator times of an executed plan
// (engine.Result.Root) into the modeled end-to-end time: exclusive times
// of data-parallel operators are divided by the modeled DOP, serial
// operators are charged fully, and the boundary overheads (session init,
// per-batch UDF bridge, per-row pipeline cost, per-partition scheduling)
// are added from the model's constants. Under a GPU a DNNOp computed on
// the host as a stand-in for the device, so its host compute is replaced
// by its work log priced on the device. It fails on an operator it does
// not know —
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
			totalNs += float64(m.SessionInit)
			if m.GPU != nil {
				work -= float64(o.Work.MeasuredNanos)
				totalNs += float64(m.GPU.ModeledNanos(&o.Work))
			}
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
