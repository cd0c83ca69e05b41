package linalg

import "fmt"

// Fixture builders for the package's tests.

// NewMatrix allocates a zero matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("linalg: invalid dimensions %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// FromRows builds a matrix from row slices (all must share a length).
func FromRows(rows [][]float64) (*Matrix, error) {
	if len(rows) == 0 {
		return NewMatrix(0, 0), nil
	}
	cols := len(rows[0])
	m := NewMatrix(len(rows), cols)
	for i, r := range rows {
		if len(r) != cols {
			return nil, fmt.Errorf("linalg: row %d has %d entries, want %d", i, len(r), cols)
		}
		copy(m.Data[i*cols:(i+1)*cols], r)
	}
	return m, nil
}

// Dot returns ⟨a,b⟩.
func Dot(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}
