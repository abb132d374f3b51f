// Package tensor implements the dense float32 tensor substrate used by
// the MLtoDNN path: row-major matrices with GEMM and elementwise math —
// the operator vocabulary DNN runtimes execute.
// float32 is deliberate: it matches GPU inference precision, so the
// rounding behaviour of translated models mirrors the paper's §7.4
// accuracy study.
package tensor

import (
	"fmt"
	"math"
)

// Mat is a dense row-major float32 matrix.
type Mat struct {
	Rows, Cols int
	Data       []float32
}

// New allocates a zeroed rows×cols matrix.
func New(rows, cols int) *Mat {
	return &Mat{Rows: rows, Cols: cols, Data: make([]float32, rows*cols)}
}

// Row returns the r-th row slice.
func (m *Mat) Row(r int) []float32 { return m.Data[r*m.Cols : (r+1)*m.Cols] }

// Set assigns element (r, c).
func (m *Mat) Set(r, c int, v float32) { m.Data[r*m.Cols+c] = v }

// MatMul computes a·b with a blocked inner loop (ikj order for cache
// friendliness). Panics on shape mismatch are avoided by returning an
// error.
func MatMul(a, b *Mat) (*Mat, error) {
	if a.Cols != b.Rows {
		return nil, fmt.Errorf("tensor: matmul shape mismatch %dx%d · %dx%d",
			a.Rows, a.Cols, b.Rows, b.Cols)
	}
	out := New(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		orow := out.Row(i)
		for k, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.Row(k)
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
	return out, nil
}

// AddScalar adds s elementwise in place and returns m.
func (m *Mat) AddScalar(s float32) *Mat {
	for i := range m.Data {
		m.Data[i] += s
	}
	return m
}

// Scale multiplies elementwise in place by s and returns m.
func (m *Mat) Scale(s float32) *Mat {
	for i := range m.Data {
		m.Data[i] *= s
	}
	return m
}

// Sigmoid applies the logistic function elementwise in place, returning m.
func (m *Mat) Sigmoid() *Mat {
	for i, v := range m.Data {
		if v >= 0 {
			m.Data[i] = 1 / (1 + float32(math.Exp(float64(-v))))
		} else {
			e := float32(math.Exp(float64(v)))
			m.Data[i] = e / (1 + e)
		}
	}
	return m
}

// Threshold returns a 0/1 matrix indicating m > t.
func (m *Mat) Threshold(t float32) *Mat {
	out := New(m.Rows, m.Cols)
	for i, v := range m.Data {
		if v > t {
			out.Data[i] = 1
		}
	}
	return out
}

// Float64Col extracts column c as float64 values.
func (m *Mat) Float64Col(c int) []float64 {
	out := make([]float64, m.Rows)
	for r := 0; r < m.Rows; r++ {
		out[r] = float64(m.Data[r*m.Cols+c])
	}
	return out
}

// FLOPs returns the multiply-add count of a GEMM with these shapes.
func FLOPs(aRows, aCols, bCols int) int64 {
	return 2 * int64(aRows) * int64(aCols) * int64(bCols)
}
