package linalg

import (
	"errors"
	"fmt"
	"math"
)

// ErrSingular is returned when a system is (numerically) rank deficient.
var ErrSingular = errors.New("linalg: matrix is singular or rank deficient")

// householder holds a Householder QR factorization of an m×n matrix with
// m ≥ n: A = Q·R with Q orthogonal (stored implicitly as Householder
// vectors) and R upper triangular.
type householder struct {
	qr   *Matrix   // Householder vectors below the diagonal, R on/above it
	rdia []float64 // diagonal of R
}

// factor factorizes qr in place (it becomes the factorization's storage),
// reusing f's diagonal buffer.
func (f *householder) factor(qr *Matrix) error {
	m, n := qr.Rows, qr.Cols
	if m < n {
		return fmt.Errorf("linalg: QR needs rows ≥ cols, got %dx%d", m, n)
	}
	f.qr = qr
	f.rdia = resize(f.rdia, n)
	rdia := f.rdia
	for k := 0; k < n; k++ {
		// Householder vector for column k.
		norm := 0.0
		for i := k; i < m; i++ {
			norm = math.Hypot(norm, qr.At(i, k))
		}
		if norm == 0 {
			rdia[k] = 0
			continue
		}
		if qr.At(k, k) < 0 {
			norm = -norm
		}
		for i := k; i < m; i++ {
			qr.Set(i, k, qr.At(i, k)/norm)
		}
		qr.Set(k, k, qr.At(k, k)+1)
		// Apply the reflector to the remaining columns.
		for j := k + 1; j < n; j++ {
			s := 0.0
			for i := k; i < m; i++ {
				s += qr.At(i, k) * qr.At(i, j)
			}
			s = -s / qr.At(k, k)
			for i := k; i < m; i++ {
				qr.Set(i, j, qr.At(i, j)+s*qr.At(i, k))
			}
		}
		rdia[k] = -norm
	}
	return nil
}

// fullRank reports whether R has no (near-)zero diagonal entries relative to
// the largest one.
func (f *householder) fullRank() bool {
	maxd := 0.0
	for _, d := range f.rdia {
		if a := math.Abs(d); a > maxd {
			maxd = a
		}
	}
	if maxd == 0 {
		return false
	}
	const rcond = 1e-12
	for _, d := range f.rdia {
		if math.Abs(d) <= rcond*maxd {
			return false
		}
	}
	return true
}

// solve writes the least-squares solution into x (len n), using y — a copy
// of b, len m — as scratch for Qᵀb.
func (f *householder) solve(x, y []float64) error {
	m, n := f.qr.Rows, f.qr.Cols
	if !f.fullRank() {
		return ErrSingular
	}
	// Apply Qᵀ to b.
	for k := 0; k < n; k++ {
		if f.qr.At(k, k) == 0 {
			continue
		}
		s := 0.0
		for i := k; i < m; i++ {
			s += f.qr.At(i, k) * y[i]
		}
		s = -s / f.qr.At(k, k)
		for i := k; i < m; i++ {
			y[i] += s * f.qr.At(i, k)
		}
	}
	// Back-substitute R·x = (Qᵀb)[:n].
	for i := n - 1; i >= 0; i-- {
		s := y[i]
		for j := i + 1; j < n; j++ {
			s -= f.qr.At(i, j) * x[j]
		}
		x[i] = s / f.rdia[i]
	}
	return nil
}

// Workspace is reusable storage for least-squares solves: the factored
// working copy of A, R's diagonal, and the right-hand-side and solution
// vectors. A caller solving many small systems keeps one and allocates
// nothing once its buffers have grown. The zero value is ready to use; a
// Workspace is not safe for concurrent use.
type Workspace struct {
	qr householder
	a  Matrix
	y  []float64
	x  []float64
}

// SolveLS returns x minimizing ‖A·x − b‖₂ (QR-based, numerically stable).
// A and b are not modified.
func SolveLS(a *Matrix, b []float64) ([]float64, error) {
	return new(Workspace).SolveLS(a, b)
}

// SolveRidge solves the regularized least-squares problem
// min ‖A·x − b‖² + λ‖x‖² via the augmented system [A; √λ·I]x = [b; 0].
// With λ > 0 the system is always full rank.
func SolveRidge(a *Matrix, b []float64, lambda float64) ([]float64, error) {
	return new(Workspace).SolveRidge(a, b, lambda)
}

// SolveLS is the package-level SolveLS in w's storage. The returned slice
// is w's and is overwritten by the next solve.
func (w *Workspace) SolveLS(a *Matrix, b []float64) ([]float64, error) {
	if a.Rows < a.Cols {
		return nil, fmt.Errorf("linalg: QR needs rows ≥ cols, got %dx%d", a.Rows, a.Cols)
	}
	if len(b) != a.Rows {
		return nil, fmt.Errorf("linalg: QR.Solve: len(b)=%d, want %d", len(b), a.Rows)
	}
	w.a.Reshape(a.Rows, a.Cols)
	copy(w.a.Data, a.Data)
	w.y = append(w.y[:0], b...)
	return w.solveWorking()
}

// SolveRidge is the package-level SolveRidge in w's storage. The returned
// slice is w's and is overwritten by the next solve.
func (w *Workspace) SolveRidge(a *Matrix, b []float64, lambda float64) ([]float64, error) {
	if lambda < 0 {
		return nil, fmt.Errorf("linalg: SolveRidge: negative lambda %g", lambda)
	}
	if lambda == 0 {
		return w.SolveLS(a, b)
	}
	m, n := a.Rows, a.Cols
	if len(b) != m {
		return nil, fmt.Errorf("linalg: SolveRidge: len(b)=%d, want %d", len(b), m)
	}
	w.a.Reshape(m+n, n)
	copy(w.a.Data, a.Data)
	clear(w.a.Data[m*n:])
	sq := math.Sqrt(lambda)
	for j := 0; j < n; j++ {
		w.a.Set(m+j, j, sq)
	}
	w.y = append(w.y[:0], b...)
	for j := 0; j < n; j++ {
		w.y = append(w.y, 0)
	}
	return w.solveWorking()
}

// solveWorking factors w.a in place and solves against w.y.
func (w *Workspace) solveWorking() ([]float64, error) {
	if err := w.qr.factor(&w.a); err != nil {
		return nil, err
	}
	w.x = resize(w.x, w.a.Cols)
	if err := w.qr.solve(w.x, w.y); err != nil {
		return nil, err
	}
	return w.x, nil
}

// resize returns s with length n, reusing its storage when large enough.
func resize(s []float64, n int) []float64 {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]float64, n)
}
