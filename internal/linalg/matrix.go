// Package linalg provides the dense linear algebra needed by the regression
// layer: a row-major Matrix type, Householder QR factorization, and
// least-squares solvers. It is deliberately small and dependency-free;
// ChARLES only ever solves skinny least-squares systems (rows = partition
// size, cols = |T|+1 ≤ a handful).
package linalg

import (
	"fmt"
)

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols
}

// Reshape makes m a rows×cols matrix, reusing its storage when it is large
// enough. The entries are left unspecified; callers overwrite all of them.
func (m *Matrix) Reshape(rows, cols int) {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("linalg: invalid dimensions %dx%d", rows, cols))
	}
	m.Rows, m.Cols = rows, cols
	if n := rows * cols; cap(m.Data) >= n {
		m.Data = m.Data[:n]
	} else {
		m.Data = make([]float64, n)
	}
}

// At returns m[i,j].
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns m[i,j] = v.
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }
