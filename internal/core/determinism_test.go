package core

import (
	"fmt"
	"reflect"
	"testing"

	"charles/internal/gen"
)

// TestSummarizeAllWorkerCountIndependent pins that a ranking depends only on
// the data and the options: every worker count, on every repeat, returns a
// MultiResult deep-equal to the single-worker one — provenance and
// zero-coefficient features included, not just the rendered text. Equal-score
// candidates with the same fingerprint are common on these chains, so a
// dedup that kept whichever worker's result arrived first fails here.
func TestSummarizeAllWorkerCountIndependent(t *testing.T) {
	for _, n := range []int{60, 100} {
		for seed := int64(1); seed <= 4; seed++ {
			snaps, err := gen.Chain(gen.ChainConfig{N: n, Steps: 2, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			for step := 0; step+1 < len(snaps); step++ {
				t.Run(fmt.Sprintf("n=%d/seed=%d/step=%d", n, seed, step), func(t *testing.T) {
					run := func(workers int) *MultiResult {
						opts := DefaultOptions("")
						opts.Workers = workers
						res, err := SummarizeAll(snaps[step], snaps[step+1], opts)
						if err != nil {
							t.Fatal(err)
						}
						return res
					}
					want := run(1)
					for _, workers := range []int{1, 2, 8} {
						for rep := 0; rep < 3; rep++ {
							if got := run(workers); !reflect.DeepEqual(got, want) {
								t.Fatalf("workers=%d rep=%d: result differs from workers=1", workers, rep)
							}
						}
					}
				})
			}
		}
	}
}
