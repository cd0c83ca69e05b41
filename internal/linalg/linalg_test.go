package linalg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMatrixBasics(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Set(0, 0, 1)
	m.Set(1, 2, 5)
	if m.At(0, 0) != 1 || m.At(1, 2) != 5 || m.At(0, 1) != 0 {
		t.Error("At/Set broken")
	}
	m.Reshape(3, 2)
	if m.Rows != 3 || m.Cols != 2 || len(m.Data) != 6 {
		t.Error("Reshape broken")
	}
}

func TestFromRows(t *testing.T) {
	m, err := FromRows([][]float64{{1, 2}, {3, 4}})
	if err != nil || m.At(1, 0) != 3 {
		t.Fatalf("FromRows: %v", err)
	}
	if _, err := FromRows([][]float64{{1, 2}, {3}}); err == nil {
		t.Error("ragged rows accepted")
	}
	empty, err := FromRows(nil)
	if err != nil || empty.Rows != 0 {
		t.Error("empty FromRows broken")
	}
}

func TestQRExactSolve(t *testing.T) {
	// Square full-rank: least squares = exact solve.
	a, _ := FromRows([][]float64{{2, 1}, {1, -1}})
	x, err := SolveLS(a, []float64{5, 1})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(x[0], 2, 1e-10) || !almostEq(x[1], 1, 1e-10) {
		t.Errorf("QR solve = %v", x)
	}
}

func TestQROverdeterminedRecovery(t *testing.T) {
	// y = 3x + 2 sampled without noise: LS must recover exactly.
	var rows [][]float64
	var b []float64
	for i := 0; i < 10; i++ {
		x := float64(i)
		rows = append(rows, []float64{x, 1})
		b = append(b, 3*x+2)
	}
	a, _ := FromRows(rows)
	x, err := SolveLS(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(x[0], 3, 1e-10) || !almostEq(x[1], 2, 1e-10) {
		t.Errorf("LS = %v, want [3 2]", x)
	}
}

func TestQRLeastSquaresOptimality(t *testing.T) {
	// The QR solution must beat random perturbations in ‖Ax−b‖₂.
	rng := rand.New(rand.NewSource(11))
	a := NewMatrix(20, 3)
	b := make([]float64, 20)
	for i := 0; i < 20; i++ {
		for j := 0; j < 3; j++ {
			a.Set(i, j, rng.NormFloat64())
		}
		b[i] = rng.NormFloat64()
	}
	x, err := SolveLS(a, b)
	if err != nil {
		t.Fatal(err)
	}
	base := residNorm(a, x, b)
	for trial := 0; trial < 100; trial++ {
		xp := append([]float64(nil), x...)
		for j := range xp {
			xp[j] += rng.NormFloat64() * 0.1
		}
		if residNorm(a, xp, b) < base-1e-9 {
			t.Fatalf("perturbed solution beats QR: %v < %v", residNorm(a, xp, b), base)
		}
	}
}

func residNorm(a *Matrix, x, b []float64) float64 {
	ss := 0.0
	for i := range b {
		r := Dot(a.Data[i*a.Cols:(i+1)*a.Cols], x) - b[i]
		ss += r * r
	}
	return math.Sqrt(ss)
}

// factorCopy factors a copy of a, for tests that inspect the factorization.
func factorCopy(a *Matrix) (*householder, error) {
	f := &householder{}
	return f, f.factor(&Matrix{Rows: a.Rows, Cols: a.Cols, Data: append([]float64(nil), a.Data...)})
}

func TestQRRankDeficiencyDetected(t *testing.T) {
	// Column 2 = 2 × column 1.
	a, _ := FromRows([][]float64{{1, 2}, {2, 4}, {3, 6}})
	if _, err := SolveLS(a, []float64{1, 2, 3}); err == nil {
		t.Error("rank-deficient LS accepted")
	}
	f, err := factorCopy(a)
	if err != nil {
		t.Fatal(err)
	}
	if f.fullRank() {
		t.Error("fullRank() true for rank-deficient matrix")
	}
}

func TestFactorShapeCheck(t *testing.T) {
	if _, err := factorCopy(NewMatrix(2, 3)); err == nil {
		t.Error("wide matrix accepted by QR")
	}
	if _, err := SolveLS(NewMatrix(2, 3), []float64{1, 2}); err == nil {
		t.Error("wide matrix accepted by SolveLS")
	}
}

func TestSolveRidgeHandlesRankDeficiency(t *testing.T) {
	a, _ := FromRows([][]float64{{1, 2}, {2, 4}, {3, 6}})
	x, err := SolveRidge(a, []float64{1, 2, 3}, 1e-6)
	if err != nil {
		t.Fatalf("ridge failed: %v", err)
	}
	// Prediction should still be close even though coefficients are not unique.
	for i, want := range []float64{1, 2, 3} {
		if got := Dot(a.Data[i*2:i*2+2], x); !almostEq(got, want, 1e-3) {
			t.Errorf("ridge prediction[%d] = %v, want %v", i, got, want)
		}
	}
	if _, err := SolveRidge(a, []float64{1, 2, 3}, -1); err == nil {
		t.Error("negative lambda accepted")
	}
}

func TestDotProperty(t *testing.T) {
	f := func(a, b [4]float64) bool {
		x, y := a[:], b[:]
		// Bound magnitudes so the products stay finite: commutativity of a
		// sum of non-finite terms is not a meaningful property to check.
		for i := range x {
			x[i] = math.Mod(x[i], 1e6)
			y[i] = math.Mod(y[i], 1e6)
			if math.IsNaN(x[i]) || math.IsNaN(y[i]) {
				return true
			}
		}
		return almostEq(Dot(x, y), Dot(y, x), 1e-6*(1+math.Abs(Dot(x, y))))
	}
	cfg := &quick.Config{MaxCount: 50, Rand: rand.New(rand.NewSource(3))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestQRSolveBadLength(t *testing.T) {
	a, _ := FromRows([][]float64{{1}, {2}})
	if _, err := SolveLS(a, []float64{1}); err == nil {
		t.Error("bad b length accepted by SolveLS")
	}
	if _, err := SolveRidge(a, []float64{1}, 1e-6); err == nil {
		t.Error("bad b length accepted by SolveRidge")
	}
}

// TestWorkspaceMatchesFreshSolves pins that one Workspace reused across
// systems of varying shape (tall, square, rank deficient, ridge) returns
// bit-identical solutions and the same errors as the allocating solvers,
// and leaves its inputs untouched.
func TestWorkspaceMatchesFreshSolves(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var w Workspace
	for trial := 0; trial < 200; trial++ {
		cols := 1 + rng.Intn(4)
		rows := cols + rng.Intn(6) - 1
		if rows < 1 {
			rows = 1
		}
		a := NewMatrix(rows, cols)
		for i := range a.Data {
			a.Data[i] = math.Round(rng.NormFloat64()*4) / 2
		}
		if trial%5 == 0 && cols > 1 {
			for i := 0; i < rows; i++ { // duplicate a column: rank deficient
				a.Set(i, cols-1, 2*a.At(i, 0))
			}
		}
		b := make([]float64, rows)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		a0, b0 := append([]float64(nil), a.Data...), append([]float64(nil), b...)
		lambda := 0.0
		if trial%3 == 0 {
			lambda = 1e-6
		}
		want, wantErr := SolveRidge(a, b, lambda)
		got, gotErr := w.SolveRidge(a, b, lambda)
		if (wantErr == nil) != (gotErr == nil) || (wantErr != nil && wantErr.Error() != gotErr.Error()) {
			t.Fatalf("trial %d: err %v, want %v", trial, gotErr, wantErr)
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: %v, want %v", trial, got, want)
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("trial %d: %v, want %v", trial, got, want)
			}
		}
		for i := range a.Data {
			if a.Data[i] != a0[i] {
				t.Fatalf("trial %d: A modified", trial)
			}
		}
		for i := range b {
			if b[i] != b0[i] {
				t.Fatalf("trial %d: b modified", trial)
			}
		}
	}
}
