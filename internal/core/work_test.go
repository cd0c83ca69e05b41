package core

import (
	"testing"

	"charles/internal/gen"
)

// TestEngineWorkCounters pins the engine's per-partition fit accounting on
// one fixed input: how many fits a run computes and how many its
// per-feature-subset memo answers. The memo is per subset, and one worker
// evaluates a subset start to finish, so the counts do not depend on the
// worker count. A change to them is a change to the work the engine does.
func TestEngineWorkCounters(t *testing.T) {
	snaps, err := gen.Chain(gen.ChainConfig{N: 150, Steps: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2} {
		opts := DefaultOptions("salary")
		opts.Workers = workers
		w0 := EngineWork()
		if _, err := Summarize(snaps[0], snaps[1], opts); err != nil {
			t.Fatal(err)
		}
		w1 := EngineWork()
		fits, hits := w1.PartitionFits-w0.PartitionFits, w1.FitMemoHits-w0.FitMemoHits
		if fits != 314 || hits != 370 {
			t.Errorf("workers=%d: %d partition fits, %d memo hits; want 314, 370", workers, fits, hits)
		}
	}
}
