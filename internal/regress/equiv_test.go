package regress

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// TestRoundCandidatesFiniteAndDistinct covers the whole float range: normal,
// subnormal, ±0 and ±MaxFloat64. Every candidate of a finite x is finite
// and distinct, the list starts at 0 and ends at x, and Roundness stays a
// score in [0, 1] (subnormals once produced NaN candidates and overflowing
// roundings +Inf).
func TestRoundCandidatesFiniteAndDistinct(t *testing.T) {
	xs := []float64{
		0, math.Copysign(0, -1), 1, -1, 1.0493, -997.3, 0.0237, 185000,
		1e-300, 1e-305, 1e-308, 2.2250738585072014e-308, // smallest normal
		1e-310, -1e-310, 4.9e-324, -4.9e-324, 1.5e-320,
		1.7e308, -1.7e308, math.MaxFloat64, -math.MaxFloat64, 9.99999e307,
	}
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 2000; i++ {
		// Random magnitudes across every binary exponent, subnormals included.
		x := math.Float64frombits(rng.Uint64()&^(0x7ff<<52) | uint64(rng.Intn(0x7ff))<<52)
		xs = append(xs, x)
	}
	for _, x := range xs {
		cands := RoundCandidates(x)
		if x == 0 {
			if len(cands) != 1 || cands[0] != 0 {
				t.Errorf("RoundCandidates(%v) = %v, want [0]", x, cands)
			}
			continue
		}
		if cands[0] != 0 || cands[len(cands)-1] != x {
			t.Errorf("RoundCandidates(%v) = %v: want 0 first and x last", x, cands)
		}
		for i, c := range cands {
			if math.IsNaN(c) || math.IsInf(c, 0) {
				t.Errorf("RoundCandidates(%v)[%d] = %v, not finite", x, i, c)
			}
			for _, d := range cands[:i] {
				if c == d {
					t.Errorf("RoundCandidates(%v) = %v: duplicate %v", x, cands, c)
				}
			}
		}
		for digits := 1; digits <= 6; digits++ {
			if r := RoundSig(x, digits); math.IsNaN(r) || math.IsInf(r, 0) {
				t.Errorf("RoundSig(%v, %d) = %v, not finite", x, digits, r)
			}
		}
		if r := Roundness(x); !(r >= 0 && r <= 1) {
			t.Errorf("Roundness(%v) = %v, outside [0, 1]", x, r)
		}
	}
	if r := Roundness(1e-310); r != 1 {
		t.Errorf("Roundness(1e-310) = %v, want 1 (one significant digit)", r)
	}
	if r := RoundSig(1.7e308, 1); r != 1.7e308 {
		t.Errorf("RoundSig(1.7e308, 1) = %v, want x itself (2e308 overflows)", r)
	}
}

// snapReference is Snap as it was before in-place trials: every candidate
// rounding is tried on a fresh clone of the best model so far.
func snapReference(m *Model, x [][]float64, y []float64, opts SnapOptions) *Model {
	if opts.Tolerance <= 0 || len(y) == 0 {
		return m.Clone()
	}
	scale := opts.Scale
	if scale <= 0 {
		for _, v := range y {
			scale += math.Abs(v)
		}
		scale /= float64(len(y))
		if scale == 0 {
			scale = 1
		}
	}
	budget := opts.Tolerance * scale
	best := m.Clone()
	for p := 0; p < len(m.Coef)+1; p++ {
		orig := getParam(best, p)
		for _, cand := range RoundCandidates(orig) {
			if cand == orig {
				break
			}
			trial := best.Clone()
			setParam(trial, p, cand)
			trial.Refit(x, y)
			if trial.MAE <= m.MAE+budget {
				best = trial
				break
			}
		}
	}
	best.Refit(x, y)
	return best
}

// randomProblem draws a small regression problem: d features, n rows, a
// planted affine policy with noise, and sometimes a duplicated column (rank
// deficient) or too few rows for the parameters.
func randomProblem(rng *rand.Rand) ([][]float64, []float64) {
	d := 1 + rng.Intn(3)
	n := 1 + rng.Intn(12)
	coef := make([]float64, d)
	for j := range coef {
		coef[j] = math.Round(rng.NormFloat64()*100) / 100
	}
	icpt := math.Round(rng.NormFloat64() * 1000)
	noise := []float64{0, 1e-6, 0.5, 50}[rng.Intn(4)]
	dup := d > 1 && rng.Intn(4) == 0
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = make([]float64, d)
		for j := range x[i] {
			x[i][j] = math.Round(rng.Float64()*5000) + 100
		}
		if dup {
			x[i][d-1] = 2 * x[i][0]
		}
		y[i] = icpt + rng.NormFloat64()*noise
		for j := range coef {
			y[i] += coef[j] * x[i][j]
		}
		if rng.Intn(10) == 0 {
			y[i] += 5000 // an outlier for FitRobust to trim
		}
	}
	return x, y
}

func TestSnapInPlaceMatchesCloningReference(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 500; trial++ {
		x, y := randomProblem(rng)
		m, err := Fit(x, y, DefaultOptions())
		if err != nil {
			continue
		}
		before := m.Clone()
		opts := SnapOptions{
			Tolerance: []float64{0, 0.01, 0.02, 0.1}[rng.Intn(4)],
			Scale:     []float64{0, 1, 100}[rng.Intn(3)],
		}
		got, want := Snap(m, x, y, opts), snapReference(m, x, y, opts)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: Snap = %+v, reference %+v", trial, got, want)
		}
		if !reflect.DeepEqual(m, before) {
			t.Fatalf("trial %d: Snap modified its input model", trial)
		}
	}
}

// fitRobustReference is FitRobust as it was before workspaces: fresh
// residual, keep and trimmed-row slices every round, a fresh model per fit.
func fitRobustReference(x [][]float64, y []float64, opts RobustOptions) (*Model, []bool, error) {
	opts = opts.withDefaults()
	m, err := Fit(x, y, opts.Base)
	if err != nil {
		return nil, nil, err
	}
	n := len(y)
	keep := make([]bool, n)
	for i := range keep {
		keep[i] = true
	}
	maxTrim := int(opts.MaxTrimFrac * float64(n))
	if maxTrim == 0 {
		return m, keep, nil
	}
	for round := 0; round < opts.Rounds; round++ {
		resid := make([]float64, 0, n)
		for i := range y {
			if keep[i] {
				resid = append(resid, math.Abs(y[i]-m.Predict(x[i])))
			}
		}
		s := append([]float64(nil), resid...)
		sort.Float64s(s)
		mad := 0.0
		if len(s)%2 == 1 {
			mad = s[len(s)/2]
		} else if len(s) > 0 {
			mad = (s[len(s)/2-1] + s[len(s)/2]) / 2
		}
		cut := opts.Threshold * mad
		if floor := 1e-9 * scaleAbs(y); cut < floor {
			cut = floor
		}
		trimmed := 0
		newKeep := make([]bool, n)
		for i := range y {
			newKeep[i] = keep[i]
			if keep[i] && math.Abs(y[i]-m.Predict(x[i])) > cut {
				newKeep[i] = false
				trimmed++
			}
		}
		if trimmed == 0 {
			break
		}
		total := 0
		for _, k := range newKeep {
			if !k {
				total++
			}
		}
		if total > maxTrim {
			break
		}
		var tx [][]float64
		var ty []float64
		for i := range y {
			if newKeep[i] {
				tx = append(tx, x[i])
				ty = append(ty, y[i])
			}
		}
		m2, err := Fit(tx, ty, opts.Base)
		if err != nil {
			break
		}
		m = m2
		keep = newKeep
	}
	m.Refit(x, y)
	return m, keep, nil
}

// TestWorkspaceFitsMatchFreshFits pins that one Workspace and one Model,
// reused across problems of varying shape, give models deep-equal to the
// allocating Fit and to the pre-workspace FitRobust, and that a failed fit
// leaves the model as it was.
func TestWorkspaceFitsMatchFreshFits(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	var w Workspace
	var m Model
	optsList := []Options{DefaultOptions(), {Intercept: false, Ridge: 1e-8}, {Intercept: true}}
	for trial := 0; trial < 600; trial++ {
		x, y := randomProblem(rng)
		opts := optsList[rng.Intn(len(optsList))]
		prev := *m.Clone()
		if trial%2 == 0 {
			want, wantErr := Fit(x, y, opts)
			gotErr := w.Fit(&m, x, y, opts)
			checkFit(t, trial, &m, prev, want, gotErr, wantErr)
			continue
		}
		// Aggressive trimming settings reach the rounds that stop early
		// (too many outliers, a failed refit) after trimming.
		ropts := RobustOptions{
			Base:        opts,
			MaxTrimFrac: []float64{0, 0.1, 0.3, 0.5}[rng.Intn(4)],
			Threshold:   []float64{0, 0.5, 1, 2}[rng.Intn(4)],
			Rounds:      rng.Intn(5),
		}
		want, wantKeep, wantErr := fitRobustReference(x, y, ropts)
		gotKeep, gotErr := w.FitRobust(&m, x, y, ropts)
		checkFit(t, trial, &m, prev, want, gotErr, wantErr)
		if wantErr == nil && !reflect.DeepEqual(gotKeep, wantKeep) {
			t.Fatalf("trial %d: keep %v, want %v", trial, gotKeep, wantKeep)
		}
	}
}

func checkFit(t *testing.T, trial int, got *Model, prev Model, want *Model, gotErr, wantErr error) {
	t.Helper()
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("trial %d: err %v, want %v", trial, gotErr, wantErr)
	}
	if wantErr != nil {
		if gotErr.Error() != wantErr.Error() {
			t.Fatalf("trial %d: err %v, want %v", trial, gotErr, wantErr)
		}
		if !reflect.DeepEqual(*got, prev) {
			t.Fatalf("trial %d: failed fit modified the model", trial)
		}
		return
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("trial %d: workspace fit %+v, fresh fit %+v", trial, got, want)
	}
}
