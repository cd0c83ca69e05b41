package regress

import (
	"math"
	"sort"
)

// RobustOptions configure outlier-trimmed fitting.
type RobustOptions struct {
	Base Options
	// MaxTrimFrac bounds the fraction of rows that may be discarded as
	// outliers (default 0.2).
	MaxTrimFrac float64
	// Threshold is the MAD multiple beyond which a residual is an outlier
	// (default 6).
	Threshold float64
	// Rounds is the number of trim-refit rounds (default 2).
	Rounds int
}

func (o RobustOptions) withDefaults() RobustOptions {
	if o.MaxTrimFrac <= 0 {
		o.MaxTrimFrac = 0.2
	}
	if o.Threshold <= 0 {
		o.Threshold = 6
	}
	if o.Rounds <= 0 {
		o.Rounds = 2
	}
	return o
}

// FitRobust fits an OLS model, then iteratively discards rows whose
// absolute residual exceeds Threshold × MAD (median absolute deviation of
// the residuals) and refits. This keeps a handful of off-policy edits —
// data-entry errors, manual adjustments — from dragging the fitted policy
// away from the true one. It never discards more than MaxTrimFrac of the
// rows; if trimming would, the untrimmed fit is returned.
//
// The returned keep mask marks the rows used in the final fit.
func FitRobust(x [][]float64, y []float64, opts RobustOptions) (*Model, []bool, error) {
	m := new(Model)
	keep, err := new(Workspace).FitRobust(m, x, y, opts)
	if err != nil {
		return nil, nil, err
	}
	return m, keep, nil
}

// FitRobust is the package-level FitRobust in w's storage. It writes the
// model into m (on error m is unchanged); the keep mask is w's and is
// overwritten by the next robust fit.
func (w *Workspace) FitRobust(m *Model, x [][]float64, y []float64, opts RobustOptions) ([]bool, error) {
	opts = opts.withDefaults()
	if err := w.Fit(m, x, y, opts.Base); err != nil {
		return nil, err
	}
	n := len(y)
	keep := resizeBools(&w.keep, n)
	for i := range keep {
		keep[i] = true
	}
	maxTrim := int(opts.MaxTrimFrac * float64(n))
	if maxTrim == 0 {
		return keep, nil
	}
	for round := 0; round < opts.Rounds; round++ {
		resid := w.resid[:0]
		for i := range y {
			if keep[i] {
				resid = append(resid, math.Abs(y[i]-m.Predict(x[i])))
			}
		}
		w.resid = resid
		mad := median(resid)
		// All-but-exact fits: use a floor so numeric dust is not "outlying".
		floor := 1e-9 * scaleAbs(y)
		cut := opts.Threshold * mad
		if cut < floor {
			cut = floor
		}
		trimmed := 0
		newKeep := resizeBools(&w.newKeep, n)
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
			break // too many outliers: distrust the trimming, keep the fit
		}
		tx, ty := w.tx[:0], w.ty[:0]
		for i := range y {
			if newKeep[i] {
				tx = append(tx, x[i])
				ty = append(ty, y[i])
			}
		}
		w.tx, w.ty = tx, ty
		if err := w.Fit(m, tx, ty, opts.Base); err != nil {
			break
		}
		keep = newKeep
		w.keep, w.newKeep = w.newKeep, w.keep
	}
	// Diagnostics over all rows, so MAE reflects what the model explains
	// including the rows it refused to chase.
	m.Refit(x, y)
	return keep, nil
}

// resizeBools returns *buf resized to n, growing it when too small.
func resizeBools(buf *[]bool, n int) []bool {
	if cap(*buf) < n {
		*buf = make([]bool, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// median returns the median of xs, sorting xs in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := xs
	sort.Float64s(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

func scaleAbs(y []float64) float64 {
	s := 0.0
	for _, v := range y {
		s += math.Abs(v)
	}
	if len(y) == 0 {
		return 1
	}
	s /= float64(len(y))
	if s == 0 {
		return 1
	}
	return s
}
