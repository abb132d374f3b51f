package experiments

import (
	"math/rand"
	"testing"

	"raven/internal/data"
	"raven/internal/datagen"
	"raven/internal/engine"
	"raven/internal/hummingbird"
	"raven/internal/opt"
	"raven/internal/testfix"
	"raven/internal/train"
)

func TestGPUModelComponents(t *testing.T) {
	// Pure launch cost: 10 kernels at 8µs.
	if got := TeslaK80.ModeledNanos(&hummingbird.CostLog{Kernels: 10}); got != 80_000 {
		t.Fatalf("launch-only = %dns, want 80000", got)
	}
	// Pure transfer: 10 GB at 10 GB/s ≈ 1s.
	if got := TeslaK80.ModeledNanos(&hummingbird.CostLog{BytesIn: 10e9}); got < 9e8 || got > 1.1e9 {
		t.Fatalf("transfer-only = %dns, want ~1e9", got)
	}
	// Pure GEMM: 4.1 TFLOP at 4.1 TFLOPS ≈ 1s.
	if got := TeslaK80.ModeledNanos(&hummingbird.CostLog{GEMMFlops: 4.1e12}); got < 9e8 || got > 1.1e9 {
		t.Fatalf("gemm-only = %dns, want ~1e9", got)
	}
	// The measured host time is not part of the device model.
	if got := TeslaK80.ModeledNanos(&hummingbird.CostLog{MeasuredNanos: 12345}); got != 0 {
		t.Fatalf("measured-only = %dns, want 0", got)
	}
}

func TestGPUCostModelScalesWithModel(t *testing.T) {
	ds := datagen.Hospital(2000, 5)
	price := func(est, depth int) int64 {
		p, err := ds.Train(train.KindGradientBoosting, func(s *train.Spec) {
			s.NEstimators = est
			s.MaxDepth = depth
		})
		if err != nil {
			t.Fatal(err)
		}
		prog, err := hummingbird.Compile(p)
		if err != nil {
			t.Fatal(err)
		}
		_, log, err := prog.Run(ds.Tables[0])
		if err != nil {
			t.Fatal(err)
		}
		return TeslaK80.ModeledNanos(log)
	}
	if small, big := price(5, 3), price(80, 7); big <= small {
		t.Fatalf("bigger model should cost more on GPU: small=%d big=%d", small, big)
	}
}

// dnnPlan runs the covid model as MLtoDNN straight over one n-row table
// under prof and returns the executed DNNOp with the table.
func dnnPlan(t *testing.T, n int, prof engine.Profile) (*engine.DNNOp, *data.Table) {
	t.Helper()
	rng := rand.New(rand.NewSource(3))
	age, bpm := make([]float64, n), make([]float64, n)
	asthma, hyper := make([]string, n), make([]string, n)
	yn := []string{"no", "yes"}
	for i := range age {
		age[i], bpm[i] = 20+70*rng.Float64(), 50+100*rng.Float64()
		asthma[i], hyper[i] = yn[rng.Intn(2)], yn[rng.Intn(2)]
	}
	tbl := data.MustNewTable("d", data.NewFloat("age", age), data.NewFloat("bpm", bpm),
		data.NewString("asthma", asthma), data.NewString("hypertension", hyper))
	cat := engine.NewCatalog()
	cat.RegisterTable(tbl)
	if err := cat.RegisterModel(testfix.CovidPipeline()); err != nil {
		t.Fatal(err)
	}
	g, _, err := planQuery(cat, `SELECT p.score FROM PREDICT(MODEL = covid_risk, DATA = d) WITH (score FLOAT) AS p`,
		comboOptions(false, opt.ChoiceDNN))
	if err != nil {
		t.Fatal(err)
	}
	res, err := engine.Run(g, cat, prof)
	if err != nil {
		t.Fatal(err)
	}
	var find func(op engine.Operator) *engine.DNNOp
	find = func(op engine.Operator) *engine.DNNOp {
		if d, ok := op.(*engine.DNNOp); ok {
			return d
		}
		for _, c := range op.Children() {
			if d := find(c); d != nil {
				return d
			}
		}
		return nil
	}
	d := find(res.Root)
	if d == nil {
		t.Fatal("plan has no DNNOp")
	}
	return d, tbl
}

// TestDNNWorkLogPricesLikeItsBatches pins what Fig. 12 relies on: a
// DNNOp's work log is the sum of its batches' logs — worker clones
// included — so pricing the sum on the K80 equals summing each batch's
// modeled time, up to 1 ns of rounding per batch.
func TestDNNWorkLogPricesLikeItsBatches(t *testing.T) {
	const n, batch = 1000, 128
	prof := engine.Profile{Name: "small-batches", BatchSize: batch}
	d, tbl := dnnPlan(t, n, prof)
	prog, err := hummingbird.Compile(testfix.CovidPipeline())
	if err != nil {
		t.Fatal(err)
	}
	var perBatch int64
	var sum hummingbird.CostLog
	batches := int64(0)
	for lo := 0; lo < n; lo += batch {
		_, log, err := prog.Run(tbl.Slice(lo, min(lo+batch, n)))
		if err != nil {
			t.Fatal(err)
		}
		perBatch += TeslaK80.ModeledNanos(log)
		sum.Add(log)
		batches++
	}
	if got := d.Stats().Batches; got != batches {
		t.Fatalf("DNNOp ran %d batches, want %d", got, batches)
	}
	priced := TeslaK80.ModeledNanos(&d.Work)
	if diff := priced - perBatch; diff < -batches || diff > batches {
		t.Fatalf("summed log prices at %dns, per-batch sum %dns (%d batches)", priced, perBatch, batches)
	}
	// Worker clones fold their logs into the template: the parallel plan
	// logs the same work as the serial one.
	prof.ExecDOP = 4
	par, _ := dnnPlan(t, n, prof)
	for _, w := range []*hummingbird.CostLog{&d.Work, &par.Work} {
		got := *w
		got.MeasuredNanos = sum.MeasuredNanos
		if got != sum {
			t.Fatalf("work log %+v, want the batches' sum %+v", got, sum)
		}
	}
}

// TestCPUReturnsMeasured: without a GPU the cost model charges a DNNOp its
// measured host compute; with one, that compute is replaced by the work
// log priced on the device.
func TestCPUReturnsMeasured(t *testing.T) {
	d, _ := dnnPlan(t, 1000, engine.Profile{Name: "one-batch", BatchSize: 10000})
	cpu := reported(t, CostModel{}, d)
	gpu := reported(t, CostModel{GPU: &TeslaK80}, d)
	want := TeslaK80.ModeledNanos(&d.Work) - d.Work.MeasuredNanos
	if diff := int64(gpu-cpu) - want; diff < -2 || diff > 2 {
		t.Fatalf("GPU - CPU pricing = %dns, want modeled - measured = %dns", int64(gpu-cpu), want)
	}
}
