package core

import (
	"sync/atomic"

	"charles/internal/diff"
	"charles/internal/dtree"
	"charles/internal/predicate"
)

// PairContext carries the derived state of one aligned snapshot pair that is
// independent of the engine's target attribute: the compiled atom-bitmap
// cache and the split index. A single Summarize run already shares both
// across its workers; the PairContext extends that amortization across *runs*
// — all targets of a multi-attribute summarization (SummarizeAll, the
// timeline workload) reuse one cache and one index instead of rebuilding
// them per engine run.
//
// The cache is internally synchronized and the index is immutable, so a
// PairContext is safe for concurrent Summarize calls.
type PairContext struct {
	a      *diff.Aligned
	pcache *predicate.Cache
	dindex *dtree.Index
	runs   atomic.Int64
}

// NewPairContext builds the shared acceleration structures for a. With an
// explicit condition pool, the split index covers exactly those attributes;
// without one it covers every non-key column of the source snapshot, so it
// serves whatever pool a later run's assistant selects. (Keys identify
// entities and are excluded from condition pools either way; indexing them
// would materialize a dictionary the size of the table for nothing. A run
// whose pool the index does not cover falls back to its own index — see
// newEngine — rather than failing.)
func NewPairContext(a *diff.Aligned, condAttrs ...string) (*PairContext, error) {
	keySet := map[string]bool{}
	for _, k := range a.Source.Key() {
		keySet[k] = true
	}
	var attrs []string
	if len(condAttrs) > 0 {
		for _, c := range condAttrs {
			if !keySet[c] {
				attrs = append(attrs, c)
			}
		}
	} else {
		for _, f := range a.Source.Schema() {
			if !keySet[f.Name] {
				attrs = append(attrs, f.Name)
			}
		}
	}
	dindex, err := dtree.NewIndex(a.Source, attrs)
	if err != nil {
		return nil, err
	}
	accelIndexBuilds.Add(1)
	accelCacheBuilds.Add(1)
	return &PairContext{a: a, pcache: predicate.NewCache(a.Source), dindex: dindex}, nil
}

// Summarize runs the engine for opts over the context's pair, sharing the
// atom cache and split index with every other run on the same context. The
// ranking is bit-identical to Summarize/SummarizeAligned with the same
// options — sharing changes where derived state lives, not what is derived.
func (pc *PairContext) Summarize(opts Options) ([]Ranked, error) {
	if err := opts.validate(pc.a.Source); err != nil {
		return nil, err
	}
	e, err := newEngine(pc.a, opts, pc)
	if err != nil {
		return nil, err
	}
	pc.runs.Add(1)
	return e.run()
}

// PairStats reports how much work the context amortized.
type PairStats struct {
	// Runs counts engine runs served by this context.
	Runs int64
	// AtomHits and AtomMisses are the shared cache's counters: misses are
	// atoms materialized (each distinct atom exactly once across all runs),
	// hits are lookups served from memory.
	AtomHits, AtomMisses uint64
	// Atoms is the number of distinct atom bitmaps currently materialized.
	Atoms int
}

// Stats snapshots the context's amortization counters.
func (pc *PairContext) Stats() PairStats {
	hits, misses := pc.pcache.Stats()
	return PairStats{
		Runs:     pc.runs.Load(),
		AtomHits: hits, AtomMisses: misses,
		Atoms: pc.pcache.Size(),
	}
}

// accelCacheBuilds and accelIndexBuilds count, process-wide, how many atom
// caches and split indexes the engine layer has constructed — one pair each
// per PairContext, one each per context-free engine run. Tests and
// benchmarks use the deltas to assert that pair-level sharing really builds
// the structures once per pair rather than once per target.
var (
	accelCacheBuilds atomic.Uint64
	accelIndexBuilds atomic.Uint64
)

// AccelBuilds reports the process-wide construction counters for the
// engine's acceleration structures (atom caches, split indexes).
func AccelBuilds() (cacheBuilds, indexBuilds uint64) {
	return accelCacheBuilds.Load(), accelIndexBuilds.Load()
}

// enginePartitionFits and engineFitMemoHits count, process-wide, the
// per-partition fits the engine computed and those its per-feature-subset
// memo answered instead (a partition whose changed rows recur under another
// condition or k).
var (
	enginePartitionFits atomic.Uint64
	engineFitMemoHits   atomic.Uint64
)

// Work is a snapshot of the process-wide engine work counters.
type Work struct {
	PartitionFits uint64 // per-partition fits computed
	FitMemoHits   uint64 // per-partition fits answered by the fit memo
}

// EngineWork reports the process-wide engine work counters.
func EngineWork() Work {
	return Work{PartitionFits: enginePartitionFits.Load(), FitMemoHits: engineFitMemoHits.Load()}
}
