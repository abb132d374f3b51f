package tensor

import (
	"math"
	"testing"
	"testing/quick"
)

// fromFloat64 builds a matrix from a row-major float64 slice.
func fromFloat64(rows, cols int, vals []float64) *Mat {
	m := New(rows, cols)
	for i, v := range vals {
		m.Data[i] = float32(v)
	}
	return m
}

func TestMatMul(t *testing.T) {
	a := fromFloat64(2, 3, []float64{1, 2, 3, 4, 5, 6})
	b := fromFloat64(3, 2, []float64{7, 8, 9, 10, 11, 12})
	c, err := MatMul(a, b)
	if err != nil {
		t.Fatal(err)
	}
	want := []float32{58, 64, 139, 154}
	for i := range want {
		if c.Data[i] != want[i] {
			t.Fatalf("matmul = %v, want %v", c.Data, want)
		}
	}
	if _, err := MatMul(a, a); err == nil {
		t.Fatal("expected shape mismatch error")
	}
}

func TestElementwise(t *testing.T) {
	m := fromFloat64(1, 3, []float64{-1, 0, 1})
	m.AddScalar(1)
	if m.Data[0] != 0 || m.Data[2] != 2 {
		t.Fatalf("AddScalar = %v", m.Data)
	}
	m.Scale(2)
	if m.Data[2] != 4 {
		t.Fatalf("Scale = %v", m.Data)
	}
	s := fromFloat64(1, 1, []float64{0})
	s.Sigmoid()
	if s.Data[0] != 0.5 {
		t.Fatalf("Sigmoid(0) = %v", s.Data[0])
	}
	th := fromFloat64(1, 3, []float64{0.2, 0.5, 0.9}).Threshold(0.5)
	if th.Data[0] != 0 || th.Data[1] != 0 || th.Data[2] != 1 {
		t.Fatalf("Threshold = %v", th.Data)
	}
}

func TestAccessors(t *testing.T) {
	m := New(2, 2)
	m.Set(1, 0, 3)
	if m.Data[2] != 3 || m.Row(1)[0] != 3 {
		t.Fatal("Set/Row broken")
	}
	col := m.Float64Col(0)
	if col[1] != 3 {
		t.Fatalf("Float64Col = %v", col)
	}
	if FLOPs(10, 20, 30) != 12000 {
		t.Fatal("FLOPs wrong")
	}
}

// Property: sigmoid output is always in (0, 1) and monotone.
func TestQuickSigmoidRange(t *testing.T) {
	f := func(v float64) bool {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return true
		}
		m := fromFloat64(1, 1, []float64{v})
		m.Sigmoid()
		s := m.Data[0]
		return s >= 0 && s <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: (A·B)·e1 equals A·(B·e1) — associativity on a basis vector.
func TestQuickMatMulAssociativity(t *testing.T) {
	f := func(vals []float64) bool {
		if len(vals) < 9 {
			return true
		}
		for _, v := range vals[:9] {
			if math.IsNaN(v) || math.Abs(v) > 1e3 {
				return true
			}
		}
		a := fromFloat64(3, 3, vals[:9])
		e := fromFloat64(3, 1, []float64{1, 0, 0})
		ab, err := MatMul(a, a)
		if err != nil {
			return false
		}
		left, err := MatMul(ab, e)
		if err != nil {
			return false
		}
		ae, err := MatMul(a, e)
		if err != nil {
			return false
		}
		right, err := MatMul(a, ae)
		if err != nil {
			return false
		}
		for i := range left.Data {
			diff := float64(left.Data[i] - right.Data[i])
			scale := math.Max(1, math.Abs(float64(left.Data[i])))
			if math.Abs(diff)/scale > 1e-4 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
