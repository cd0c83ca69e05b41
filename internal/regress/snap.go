package regress

import (
	"math"
)

// SnapOptions control coefficient snapping.
type SnapOptions struct {
	// Tolerance is the maximum allowed *relative* growth in MAE caused by
	// snapping; e.g. 0.05 permits snapped models whose mean absolute error
	// is at most 5% worse (in absolute terms, relative to the target scale)
	// than the exact fit. ≤ 0 disables snapping.
	Tolerance float64
	// Scale normalizes the MAE comparison; typically the mean |target|.
	// When 0, a scale is derived from the targets.
	Scale float64
}

// Snap rounds each coefficient (and the intercept) of m to nearby "normal"
// values — the grid humans use for policies: 1.05 rather than 1.0493,
// 1000 rather than 997.3 — keeping the rounding only when the model's mean
// absolute error on (x, y) does not degrade beyond the tolerance.
//
// It returns a new model; m is unchanged. Snapping proceeds coordinate-wise
// from the coarsest candidate to the finest, greedily keeping the coarsest
// acceptable rounding per coefficient (jointly validated at the end). The
// trials run in place on the returned model: a rejected candidate is
// restored before the next, and only the coefficients matter to a trial's
// error (diagnostics are recomputed at the end).
func Snap(m *Model, x [][]float64, y []float64, opts SnapOptions) *Model {
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
	// Try snapping each parameter independently, coarsest first; accept a
	// candidate when the resulting model stays within the error budget.
	var buf [maxRoundCandidates]float64
	params := len(m.Coef) + 1
	for p := 0; p < params; p++ {
		orig := getParam(best, p)
		for _, cand := range roundCandidates(orig, &buf) {
			if cand == orig {
				break // already normal
			}
			setParam(best, p, cand)
			best.Refit(x, y)
			if best.MAE <= m.MAE+budget {
				break
			}
			setParam(best, p, orig)
		}
	}
	best.Refit(x, y)
	return best
}

func getParam(m *Model, p int) float64 {
	if p < len(m.Coef) {
		return m.Coef[p]
	}
	return m.Intercept
}

func setParam(m *Model, p int, v float64) {
	if p < len(m.Coef) {
		m.Coef[p] = v
	} else {
		m.Intercept = v
	}
}

// maxRoundCandidates bounds RoundCandidates' output: zero, five roundings
// and x itself.
const maxRoundCandidates = 7

// RoundCandidates returns rounded versions of x ordered from coarsest to
// finest: zero first (the most normal constant of all — it removes a term),
// then 1–5 significant digits. The final candidate is x itself. Zero maps
// to just {0}. Every candidate is distinct, and finite when x is.
func RoundCandidates(x float64) []float64 {
	var buf [maxRoundCandidates]float64
	return append([]float64(nil), roundCandidates(x, &buf)...)
}

// roundCandidates is RoundCandidates into a caller-owned array.
func roundCandidates(x float64, buf *[maxRoundCandidates]float64) []float64 {
	out := buf[:0]
	if x == 0 || math.IsNaN(x) || math.IsInf(x, 0) {
		return append(out, x)
	}
	out = append(out, 0)
	// Round to 1..5 significant digits. A rounding that reproduces x ends
	// the list there: finer ones cannot be more normal (Snap stops at x).
	for digits := 1; digits <= 5; digits++ {
		r := RoundSig(x, digits)
		if r == x {
			break
		}
		if !contains(out, r) {
			out = append(out, r)
		}
	}
	return append(out, x)
}

func contains(s []float64, v float64) bool {
	for _, u := range s {
		if u == v {
			return true
		}
	}
	return false
}

// RoundSig rounds x to the given number of significant decimal digits.
// Negative powers of ten are applied by division (10⁵ is exact in binary
// floating point, 10⁻⁵ is not), so rounding 185000 to one digit yields
// exactly 200000 rather than 199999.99999999997. Tiny magnitudes — where
// the scale 10^p overflows, or x is subnormal and Log10 misjudges its
// magnitude — are rounded as x·10³⁰⁰ and scaled back (decimal rounding
// commutes with the scaling). When the rounded value would leave the finite
// range (1.7e308 to one digit), x itself is returned.
func RoundSig(x float64, digits int) float64 {
	if x == 0 || math.IsNaN(x) || math.IsInf(x, 0) {
		return x
	}
	if math.Abs(x) < minNormal {
		return RoundSig(x*1e300, digits) / 1e300
	}
	p := float64(digits-1) - math.Floor(math.Log10(math.Abs(x)))
	var r float64
	if p >= 0 {
		mag := math.Pow(10, p)
		if math.IsInf(mag, 0) {
			return RoundSig(x*1e300, digits) / 1e300
		}
		r = math.Round(x*mag) / mag
	} else {
		div := math.Pow(10, -p)
		r = math.Round(x/div) * div
	}
	if math.IsInf(r, 0) {
		return x
	}
	return r
}

// minNormal is the smallest positive normal float64.
const minNormal = 0x1p-1022

// Roundness scores how "normal" a constant looks, in [0,1]: 1 for values
// that are already 1–2 significant digits (10%, 0.05, 1000), decreasing as
// more digits are needed to represent the value exactly. ChARLES uses it in
// the interpretability score: "Age > 25" beats "Age > 23.796".
func Roundness(x float64) float64 {
	if x == 0 {
		return 1
	}
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0
	}
	for digits := 1; digits <= 6; digits++ {
		r := RoundSig(x, digits)
		if closeEnough(r, x) {
			// digits=1 or 2 → 1.0, then decay.
			switch digits {
			case 1:
				return 1
			case 2:
				return 1
			case 3:
				return 0.75
			case 4:
				return 0.5
			case 5:
				return 0.3
			default:
				return 0.15
			}
		}
	}
	return 0.1
}

func closeEnough(a, b float64) bool {
	diff := math.Abs(a - b)
	if diff == 0 {
		return true
	}
	return diff <= 1e-9*math.Max(math.Abs(a), math.Abs(b))
}
