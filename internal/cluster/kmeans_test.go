package cluster

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func wellSeparated1D() []float64 {
	// Three tight groups around 0, 100, 200.
	var vals []float64
	rng := rand.New(rand.NewSource(1))
	for _, center := range []float64{0, 100, 200} {
		for i := 0; i < 20; i++ {
			vals = append(vals, center+rng.NormFloat64())
		}
	}
	return vals
}

func TestKMeans1DSeparatesGroups(t *testing.T) {
	vals := wellSeparated1D()
	res, err := KMeans1D(vals, 3, Options{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if res.K != 3 {
		t.Fatalf("K = %d", res.K)
	}
	// Every group of 20 must share one label.
	for g := 0; g < 3; g++ {
		first := res.Labels[g*20]
		for i := 1; i < 20; i++ {
			if res.Labels[g*20+i] != first {
				t.Fatalf("group %d split across clusters", g)
			}
		}
	}
	if res.Inertia > float64(len(vals))*9 {
		t.Errorf("inertia too high: %v", res.Inertia)
	}
}

func TestKMeansDeterministicForSeed(t *testing.T) {
	vals := wellSeparated1D()
	a, err := KMeans1D(vals, 3, Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	b, err := KMeans1D(vals, 3, Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Labels {
		if a.Labels[i] != b.Labels[i] {
			t.Fatal("same seed produced different labels")
		}
	}
}

func TestKMeansLabelsSortedBySize(t *testing.T) {
	// 30 points near 0, 10 near 100: cluster 0 must be the big one.
	var vals []float64
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 30; i++ {
		vals = append(vals, rng.NormFloat64())
	}
	for i := 0; i < 10; i++ {
		vals = append(vals, 100+rng.NormFloat64())
	}
	res, err := KMeans1D(vals, 2, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Sizes[0] != 30 || res.Sizes[1] != 10 {
		t.Errorf("sizes = %v, want [30 10]", res.Sizes)
	}
	if res.Labels[0] != 0 {
		t.Error("majority group should be cluster 0")
	}
}

func TestKMeansErrors(t *testing.T) {
	if _, err := KMeans1D(nil, 2, Options{}); err == nil {
		t.Error("no points accepted")
	}
	if _, err := KMeans1D([]float64{1}, 0, Options{}); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := KMeans1D([]float64{1}, -1, Options{}); err == nil {
		t.Error("negative k accepted")
	}
}

func TestKMeansKLargerThanN(t *testing.T) {
	res, err := KMeans1D([]float64{1, 2}, 5, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.K != 2 {
		t.Errorf("K should clamp to n: %d", res.K)
	}
}

func TestKMeansInvariantsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(40)
		k := 1 + rng.Intn(4)
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = rng.NormFloat64() * 50
		}
		res, err := KMeans1D(vals, k, Options{Seed: seed})
		if err != nil {
			return false
		}
		// Labels in range, sizes sum to n, inertia non-negative, sizes
		// non-increasing.
		total := 0
		for _, s := range res.Sizes {
			total += s
		}
		if total != n || res.Inertia < 0 {
			return false
		}
		for i := 1; i < len(res.Sizes); i++ {
			if res.Sizes[i] > res.Sizes[i-1] {
				return false
			}
		}
		for _, l := range res.Labels {
			if l < 0 || l >= res.K {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(6))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestKMeansMoreClustersNeverWorse(t *testing.T) {
	vals := wellSeparated1D()
	prev := math.Inf(1)
	for k := 1; k <= 4; k++ {
		res, err := KMeans1D(vals, k, Options{Seed: 9, Restarts: 8})
		if err != nil {
			t.Fatal(err)
		}
		if res.Inertia > prev*1.001 {
			t.Errorf("k=%d inertia %v worse than k-1 %v", k, res.Inertia, prev)
		}
		prev = res.Inertia
	}
}

func TestDuplicatePointsDoNotCrash(t *testing.T) {
	vals := []float64{5, 5, 5, 5, 5}
	res, err := KMeans1D(vals, 3, Options{Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	if res.Inertia != 0 {
		t.Errorf("identical points inertia = %v", res.Inertia)
	}
}

// TestWorkspaceMatchesFreshKMeans pins that one Workspace reused across
// signals of varying length, k and seed returns results deep-equal to a
// fresh KMeans1D: the re-seeded random source and the recycled buffers
// leave no trace of earlier calls.
func TestWorkspaceMatchesFreshKMeans(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	var w Workspace
	for trial := 0; trial < 300; trial++ {
		vals := make([]float64, 1+rng.Intn(40))
		for i := range vals {
			vals[i] = math.Round(rng.NormFloat64()*3) * 10 // ties and empty clusters
		}
		k := 1 + rng.Intn(5)
		opts := Options{Seed: int64(rng.Intn(5)), Restarts: rng.Intn(5), MaxIters: rng.Intn(3) * 50}
		want, err := KMeans1D(vals, k, opts)
		if err != nil {
			t.Fatal(err)
		}
		got, err := w.KMeans1D(vals, k, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: workspace %+v, fresh %+v", trial, got, want)
		}
	}
}
