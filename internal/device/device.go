// Package device models the hardware the MLtoDNN path can target. The CPU
// device reports measured time. The GPU is simulated: tensor programs
// still compute on the host (so results are real), and the device also
// returns an analytically modeled elapsed time assembled from the
// program's actual op shapes — GEMM FLOPs over device throughput, gather
// volume over gather throughput, kernel-launch latency per op, and PCIe
// transfer for the batch in and predictions out. The crossover the paper
// shows in Fig. 12 (small models lose to launch+transfer overhead, large
// gradient-boosting models win up to ~8×) is a throughput-vs-overhead
// effect this model reproduces from the real op shapes. Only the
// paper-figure cost model (internal/experiments/costmodel.go) reads the
// modeled time; the engine's clock is the measured host time.
package device

import "time"

// Kind identifies a device type.
type Kind uint8

// Device kinds.
const (
	// CPU executes and reports measured time.
	CPU Kind = iota
	// SimGPU executes on the host but reports modeled GPU time.
	SimGPU
)

// Device describes an execution target for tensor programs.
type Device struct {
	Kind Kind
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

// CPUDevice reports measured time (all throughput fields unused).
var CPUDevice = Device{Kind: CPU, Name: "cpu"}

// TeslaP100 approximates the paper's Azure NC12s_v2 GPU (float32 ~9.3
// TFLOPs, PCIe 3.0 x16 ~12 GB/s effective).
var TeslaP100 = Device{
	Kind:             SimGPU,
	Name:             "tesla-p100",
	GEMMThroughput:   9.3e12,
	GatherThroughput: 2.0e11,
	KernelLaunch:     5 * time.Microsecond,
	PCIeBandwidth:    12e9,
}

// TeslaK80 approximates the paper's GPU Spark cluster accelerator
// (float32 ~4.1 TFLOPs per GPU, PCIe ~10 GB/s).
var TeslaK80 = Device{
	Kind:             SimGPU,
	Name:             "tesla-k80",
	GEMMThroughput:   4.1e12,
	GatherThroughput: 8.0e10,
	KernelLaunch:     8 * time.Microsecond,
	PCIeBandwidth:    10e9,
}

// TeslaV100 approximates the SQL Server GPU experiment's card (float32
// ~14 TFLOPs).
var TeslaV100 = Device{
	Kind:             SimGPU,
	Name:             "tesla-v100",
	GEMMThroughput:   14e12,
	GatherThroughput: 3.0e11,
	KernelLaunch:     5 * time.Microsecond,
	PCIeBandwidth:    13e9,
}

// CostLog accumulates the modeled work of one program execution.
type CostLog struct {
	Kernels       int64
	GEMMFlops     int64
	GatherElems   int64
	BytesIn       int64
	BytesOut      int64
	MeasuredNanos int64
}

// AddKernel records one kernel launch.
func (c *CostLog) AddKernel() { c.Kernels++ }

// ModeledNanos converts the cost log into modeled elapsed nanoseconds on
// the device. On CPU the measured time is returned unchanged.
func (d *Device) ModeledNanos(c *CostLog) int64 {
	if d.Kind == CPU {
		return c.MeasuredNanos
	}
	sec := float64(c.Kernels)*d.KernelLaunch.Seconds() +
		float64(c.GEMMFlops)/d.GEMMThroughput +
		float64(c.GatherElems)/d.GatherThroughput +
		float64(c.BytesIn+c.BytesOut)/d.PCIeBandwidth
	return int64(sec * 1e9)
}
