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
	return new(Workspace).KMeans1D(values, k, opts)
}

// Workspace is reusable KMeans1D storage: the per-run and best-run label,
// center and size buffers, the k-means++ distance buffer, the relabelling
// scratch and one random source, re-seeded per call. A caller that clusters
// many signals keeps one and allocates nothing per call once its buffers
// have grown. The zero value is ready to use; a Workspace is not safe for
// concurrent use.
type Workspace struct {
	rng       *rand.Rand
	cur, best Result
	dist      []float64
	order     bySize
	remap     []int
}

// KMeans1D is the package-level KMeans1D in w's storage. The returned
// Result and its slices are w's and are overwritten by the next call.
func (w *Workspace) KMeans1D(values []float64, k int, opts Options) (*Result, error) {
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
	if w.rng == nil {
		w.rng = rand.New(rand.NewSource(opts.Seed))
	} else {
		w.rng.Seed(opts.Seed)
	}

	for r := 0; r < opts.Restarts; r++ {
		w.runLloyd1D(values, k, opts.MaxIters)
		if r == 0 || w.cur.Inertia < w.best.Inertia {
			w.cur, w.best = w.best, w.cur
		}
	}
	w.relabelBySize()
	return &w.best, nil
}

// runLloyd1D runs one seeded Lloyd's refinement into w.cur.
func (w *Workspace) runLloyd1D(values []float64, k, maxIters int) {
	n := len(values)
	res := &w.cur
	*res = Result{K: k, Labels: resizeInts(res.Labels, n), Centers: res.Centers, Sizes: resizeInts(res.Sizes, k)}
	w.seedPlusPlus1D(values, k)
	centers, labels, sizes := res.Centers, res.Labels, res.Sizes
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
	res.Inertia = inertia
}

// sq is the squared distance of a scalar difference.
func sq(d float64) float64 { return d * d }

// seedPlusPlus1D picks k initial centers with the k-means++ distribution
// into w.cur.Centers.
func (w *Workspace) seedPlusPlus1D(values []float64, k int) {
	n := len(values)
	rng := w.rng
	centers := w.cur.Centers[:0]
	centers = append(centers, values[rng.Intn(n)])
	w.dist = resizeFloats(w.dist, n)
	dist := w.dist
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
	w.cur.Centers = centers
}

// bySize orders cluster ids by descending size, ties by ascending center.
type bySize struct {
	ids     []int
	sizes   []int
	centers []float64
}

func (o *bySize) Len() int { return len(o.ids) }
func (o *bySize) Less(a, b int) bool {
	if o.sizes[o.ids[a]] != o.sizes[o.ids[b]] {
		return o.sizes[o.ids[a]] > o.sizes[o.ids[b]]
	}
	// Tie-break on the center for determinism.
	return o.centers[o.ids[a]] < o.centers[o.ids[b]]
}
func (o *bySize) Swap(a, b int) { o.ids[a], o.ids[b] = o.ids[b], o.ids[a] }

// relabelBySize renumbers w.best's clusters so that cluster 0 is the
// largest; this makes downstream output deterministic and stable across
// seeds. w.cur's center and size buffers receive the renumbered copies.
func (w *Workspace) relabelBySize() {
	r := &w.best
	w.order = bySize{ids: resizeInts(w.order.ids, r.K), sizes: r.Sizes, centers: r.Centers}
	for i := range w.order.ids {
		w.order.ids[i] = i
	}
	sort.Stable(&w.order)
	w.remap = resizeInts(w.remap, r.K)
	for newID, oldID := range w.order.ids {
		w.remap[oldID] = newID
	}
	for i, l := range r.Labels {
		r.Labels[i] = w.remap[l]
	}
	newCenters := resizeFloats(w.cur.Centers, r.K)
	newSizes := resizeInts(w.cur.Sizes, r.K)
	for oldID, newID := range w.remap {
		newCenters[newID] = r.Centers[oldID]
		newSizes[newID] = r.Sizes[oldID]
	}
	w.cur.Centers, r.Centers = r.Centers, newCenters
	w.cur.Sizes, r.Sizes = r.Sizes, newSizes
}

func resizeInts(s []int, n int) []int {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]int, n)
}

func resizeFloats(s []float64, n int) []float64 {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]float64, n)
}
