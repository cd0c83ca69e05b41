package core

import (
	"math"

	"charles/internal/cluster"
	"charles/internal/regress"
)

// refineMaxIters bounds the EM-style refinement loop; assignments almost
// always stabilize within a handful of iterations.
const refineMaxIters = 12

// refineRestarts is the number of independent clustering seeds fed through
// refinement. EM converges to local optima that depend on the seeding (and
// hence on row order); taking the best of a few restarts makes recovery
// insensitive to both.
const refineRestarts = 3

// partitioner is one worker's reusable partition-labelling storage: the
// k-means and fitting workspaces, the refined labels of the current and
// best restart, and the per-cluster models. Labels it returns are its own
// and are overwritten by the next call.
type partitioner struct {
	km        cluster.Workspace
	fit       regress.Workspace
	cur, best []int
	sizes     []int
	models    []regress.Model
	fitted    []bool // models[c] is usable
	x         [][]float64
	y         []float64
}

// seedAndRefine clusters the 1-D signal with several independent seedings,
// refines each EM-style, and returns the refined labeling with the lowest
// total absolute fitting error (deterministic: ties keep the earliest
// restart). This is the partition-discovery workhorse behind candidate().
// At k = 1 every restart yields the one-cluster labeling and the same
// error, so the tie rule keeps restart 0 and the others are skipped.
func (p *partitioner) seedAndRefine(signal []float64, rows []int, fm *featMat, newVals []float64, k int, seed int64, noRefine bool) ([]int, error) {
	var bestLabels []int
	bestErr := math.Inf(1)
	restarts := refineRestarts
	if k == 1 || noRefine {
		restarts = 1 // without refinement the extra seeds only churn
	}
	for restart := 0; restart < restarts; restart++ {
		km, err := p.km.KMeans1D(signal, k, cluster.Options{Seed: seed + int64(restart)})
		if err != nil {
			return nil, err
		}
		labels, fitted := km.Labels, false
		if !noRefine {
			labels, fitted = p.refineClusters(km.Labels, rows, fm, newVals, k)
		}
		total := p.totalAbsError(labels, rows, fm, newVals, k, fitted)
		if total < bestErr-1e-9 {
			bestErr = total
			// labels is p.cur or the k-means workspace's, which the next
			// restart overwrites: keep a copy.
			p.best = append(p.best[:0], labels...)
			bestLabels = p.best
		}
	}
	return bestLabels, nil
}

// totalAbsError sums each row's absolute error under its cluster's model,
// fitting the models first unless fitted says p.models already hold the
// fit of exactly these labels.
func (p *partitioner) totalAbsError(labels []int, rows []int, fm *featMat, newVals []float64, k int, fitted bool) float64 {
	if !fitted {
		p.fitClusterModels(labels, rows, fm, newVals, k)
	}
	total := 0.0
	for i, r := range rows {
		c := labels[i]
		if !p.fitted[c] {
			continue
		}
		total += math.Abs(newVals[r] - p.models[c].Predict(fm.row(r)))
	}
	return total
}

// refineClusters improves an initial clustering of the changed rows by
// alternating (fit a linear model per cluster) with (reassign each row to
// the cluster whose model predicts its new value best). labels[i] is the
// cluster of rows[i]; feats and newVals are indexed by table row.
// The refined labels (same indexing as labels) are returned; the input
// slice is not modified. fitted reports that the loop converged (its last
// pass moved no row), so p.models are the fit of exactly the returned
// labels.
func (p *partitioner) refineClusters(labels []int, rows []int, fm *featMat, newVals []float64, k int) (refined []int, fitted bool) {
	p.cur = append(p.cur[:0], labels...)
	cur := p.cur
	if k <= 1 || len(rows) <= 1 {
		return cur, false
	}
	for iter := 0; iter < refineMaxIters; iter++ {
		p.fitClusterModels(cur, rows, fm, newVals, k)
		sizes := p.clusterSizes(cur, k)
		changed := false
		for i, r := range rows {
			// Tolerance for "fits equally well": rows on the intersection
			// of two transformation lines are ambiguous, and chasing
			// floating-point dust would make the outcome depend on the
			// k-means seeding (and hence on row order).
			eps := 1e-9 * (1 + math.Abs(newVals[r]))
			bestC, bestErr := -1, math.Inf(1)
			for c := 0; c < k; c++ {
				if !p.fitted[c] {
					continue
				}
				err := math.Abs(newVals[r] - p.models[c].Predict(fm.row(r)))
				switch {
				case err < bestErr-eps:
					bestC, bestErr = c, err
				case err <= bestErr+eps && bestC >= 0:
					// Tie: prefer the larger cluster, so ambiguous rows
					// join the dominant policy instead of propping up
					// spurious singleton partitions.
					if sizes[c] > sizes[bestC] || (sizes[c] == sizes[bestC] && c < bestC) {
						bestC = c
						if err < bestErr {
							bestErr = err
						}
					}
				}
			}
			if bestC >= 0 && bestC != cur[i] {
				cur[i] = bestC
				changed = true
			}
		}
		if !changed {
			return cur, true
		}
	}
	return cur, false
}

// clusterSizes counts the rows per cluster into p.sizes.
func (p *partitioner) clusterSizes(labels []int, k int) []int {
	if cap(p.sizes) < k {
		p.sizes = make([]int, k)
	}
	p.sizes = p.sizes[:k]
	clear(p.sizes)
	for _, l := range labels {
		p.sizes[l]++
	}
	return p.sizes
}

// fitClusterModels fits one model per cluster into p.models, with the same
// fallback ladder the partition fitter uses; clusters that cannot support
// any fit are marked unfitted in p.fitted (rows keep their previous
// assignment relative to them).
func (p *partitioner) fitClusterModels(labels []int, rows []int, fm *featMat, newVals []float64, k int) {
	if len(p.models) < k {
		p.models = make([]regress.Model, k)
		p.fitted = make([]bool, k)
	}
	sizes := p.clusterSizes(labels, k)
	for c := 0; c < k; c++ {
		p.fitted[c] = false
		if sizes[c] == 0 {
			continue
		}
		x, y := p.x[:0], p.y[:0]
		for i, r := range rows {
			if labels[i] != c {
				continue
			}
			x = append(x, fm.row(r))
			y = append(y, newVals[r])
		}
		p.x, p.y = x, y
		if len(y) == 0 {
			continue
		}
		m := &p.models[c]
		err := p.fit.Fit(m, x, y, regress.DefaultOptions())
		if err != nil {
			err = p.fit.Fit(m, x, y, regress.Options{Intercept: false, Ridge: 1e-8})
		}
		if err != nil {
			// Constant model: predict the cluster's mean new value.
			mean := 0.0
			for _, v := range y {
				mean += v
			}
			mean /= float64(len(y))
			m.Coef = append(m.Coef[:0], make([]float64, len(x[0]))...)
			m.Intercept = mean
			m.Refit(x, y)
		}
		p.fitted[c] = true
	}
}
