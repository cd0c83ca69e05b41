// Package cluster implements one-dimensional k-means (Lloyd's algorithm
// with k-means++ seeding and several restarts). ChARLES clusters the scalar
// residuals of a global regression to discover candidate data partitions,
// once per (transformation subset, k) candidate, so the package is a
// dedicated scalar implementation of exactly that.
package cluster

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// Result holds the outcome of a k-means run.
type Result struct {
	K         int
	Labels    []int     // cluster id per point, in input order
	Centers   []float64 // K centroids
	Inertia   float64   // Σ squared distance to assigned centroid
	Iters     int       // iterations until convergence
	Sizes     []int     // points per cluster
	Converged bool
}

// Options configure a k-means run.
type Options struct {
	MaxIters int   // default 100
	Restarts int   // independent seedings; best inertia wins (default 4)
	Seed     int64 // RNG seed for reproducibility
}

func (o Options) withDefaults() Options {
	if o.MaxIters <= 0 {
		o.MaxIters = 100
	}
	if o.Restarts <= 0 {
		o.Restarts = 4
	}
	return o
}

// KMeans1D clusters scalar values into k clusters (k is clamped to the
// number of values): opts.Restarts independent k-means++ seedings, each
// refined by up to opts.MaxIters Lloyd iterations, and the lowest-inertia
// run wins. Labels are renumbered so cluster 0 is the largest.
// Deterministic for a fixed opts.Seed.
func KMeans1D(values []float64, k int, opts Options) (*Result, error) {
	n := len(values)
	if k <= 0 {
		return nil, fmt.Errorf("cluster: k must be positive, got %d", k)
	}
	if n == 0 {
		return nil, fmt.Errorf("cluster: no points")
	}
	if k > n {
		k = n
	}
	opts = opts.withDefaults()
	rng := rand.New(rand.NewSource(opts.Seed))

	var best *Result
	for r := 0; r < opts.Restarts; r++ {
		res := runLloyd1D(values, k, opts.MaxIters, rng)
		if best == nil || res.Inertia < best.Inertia {
			best = res
		}
	}
	relabelBySize(best)
	return best, nil
}

func runLloyd1D(values []float64, k, maxIters int, rng *rand.Rand) *Result {
	n := len(values)
	centers := seedPlusPlus1D(values, k, rng)
	labels := make([]int, n)
	sizes := make([]int, k)
	res := &Result{K: k}
	for iter := 0; iter < maxIters; iter++ {
		changed := false
		for i, v := range values {
			bi, bd := 0, math.Inf(1)
			for c := range centers {
				dd := sq(v - centers[c])
				if dd < bd {
					bi, bd = c, dd
				}
			}
			if labels[i] != bi {
				labels[i] = bi
				changed = true
			}
		}
		if iter > 0 && !changed {
			res.Converged = true
			res.Iters = iter
			break
		}
		for c := range centers {
			centers[c] = 0
			sizes[c] = 0
		}
		for i, v := range values {
			c := labels[i]
			sizes[c]++
			centers[c] += v
		}
		for c := range centers {
			if sizes[c] == 0 {
				fi, fd := 0, -1.0
				for i, v := range values {
					dd := sq(v - centers[labels[i]])
					if dd > fd {
						fi, fd = i, dd
					}
				}
				centers[c] = values[fi]
				continue
			}
			inv := 1 / float64(sizes[c])
			centers[c] *= inv
		}
		res.Iters = iter + 1
	}
	inertia := 0.0
	for c := range sizes {
		sizes[c] = 0
	}
	for i, v := range values {
		bi, bd := 0, math.Inf(1)
		for c := range centers {
			dd := sq(v - centers[c])
			if dd < bd {
				bi, bd = c, dd
			}
		}
		labels[i] = bi
		sizes[bi]++
		inertia += bd
	}
	res.Labels = labels
	res.Sizes = sizes
	res.Inertia = inertia
	res.Centers = centers
	return res
}

// sq is the squared distance of a scalar difference.
func sq(d float64) float64 { return d * d }

// seedPlusPlus1D picks k initial centers with the k-means++ distribution.
func seedPlusPlus1D(values []float64, k int, rng *rand.Rand) []float64 {
	n := len(values)
	centers := make([]float64, 0, k)
	centers = append(centers, values[rng.Intn(n)])
	dist := make([]float64, n)
	for len(centers) < k {
		total := 0.0
		for i, v := range values {
			dd := math.Inf(1)
			for _, c := range centers {
				if d := sq(v - c); d < dd {
					dd = d
				}
			}
			dist[i] = dd
			total += dd
		}
		var chosen int
		if total == 0 {
			chosen = rng.Intn(n)
		} else {
			target := rng.Float64() * total
			acc := 0.0
			chosen = n - 1
			for i, dd := range dist {
				acc += dd
				if acc >= target {
					chosen = i
					break
				}
			}
		}
		centers = append(centers, values[chosen])
	}
	return centers
}

// relabelBySize renumbers clusters so that cluster 0 is the largest; this
// makes downstream output deterministic and stable across seeds.
func relabelBySize(r *Result) {
	order := make([]int, r.K)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		if r.Sizes[order[a]] != r.Sizes[order[b]] {
			return r.Sizes[order[a]] > r.Sizes[order[b]]
		}
		// Tie-break on the center for determinism.
		return r.Centers[order[a]] < r.Centers[order[b]]
	})
	remap := make([]int, r.K)
	for newID, oldID := range order {
		remap[oldID] = newID
	}
	for i, l := range r.Labels {
		r.Labels[i] = remap[l]
	}
	newCenters := make([]float64, r.K)
	newSizes := make([]int, r.K)
	for oldID, newID := range remap {
		newCenters[newID] = r.Centers[oldID]
		newSizes[newID] = r.Sizes[oldID]
	}
	r.Centers = newCenters
	r.Sizes = newSizes
}
