package charles

// One benchmark per reproduction experiment E1–E11 (see DESIGN.md's
// experiment index and EXPERIMENTS.md for paper-vs-measured). Each bench
// regenerates the corresponding paper artifact end to end; run with
//
//	go test -bench=. -benchmem
//
// The heavyweight sweeps (E6 full scale, E10) use the quick configuration
// inside the timing loop and report the full-scale numbers via
// cmd/charles-bench.

import (
	"fmt"
	"sync"
	"testing"

	"charles/internal/experiments"
)

func benchExperiment(b *testing.B, id string, quick bool) {
	cfg := experiments.Config{Quick: quick}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rep, err := experiments.Run(id, cfg)
		if err != nil {
			b.Fatalf("%s: %v", id, err)
		}
		if len(rep.Values) == 0 {
			b.Fatalf("%s produced no values", id)
		}
	}
}

// BenchmarkE1ToyRecovery — Fig 1 + Fig 2 + Example 1: recover R1–R3 from
// the toy snapshots and render the linear model tree.
func BenchmarkE1ToyRecovery(b *testing.B) { benchExperiment(b, "E1", true) }

// BenchmarkE2RankedSummaries — demo step 8: the ranked top-10 list.
func BenchmarkE2RankedSummaries(b *testing.B) { benchExperiment(b, "E2", true) }

// BenchmarkE3AttributeSelection — demo steps 4–5: the setup assistant.
func BenchmarkE3AttributeSelection(b *testing.B) { benchExperiment(b, "E3", true) }

// BenchmarkE4Treemap — demo step 10: the partition treemap.
func BenchmarkE4Treemap(b *testing.B) { benchExperiment(b, "E4", true) }

// BenchmarkE5AlphaSweep — §2: the accuracy–interpretability tradeoff.
func BenchmarkE5AlphaSweep(b *testing.B) { benchExperiment(b, "E5", true) }

// BenchmarkE6Montgomery — §3: the Montgomery County payroll scenario.
func BenchmarkE6Montgomery(b *testing.B) { benchExperiment(b, "E6", true) }

// BenchmarkE7SearchSpace — §2: search-space growth in c and t.
func BenchmarkE7SearchSpace(b *testing.B) { benchExperiment(b, "E7", true) }

// BenchmarkE8Baselines — §1: ChARLES vs global regression, cell list,
// no-change, and update distance.
func BenchmarkE8Baselines(b *testing.B) { benchExperiment(b, "E8", true) }

// BenchmarkE9Noise — robustness to noise and unchanged rows.
func BenchmarkE9Noise(b *testing.B) { benchExperiment(b, "E9", true) }

// BenchmarkE10Scalability — runtime growth in rows.
func BenchmarkE10Scalability(b *testing.B) { benchExperiment(b, "E10", true) }

// BenchmarkE11Billionaires — §3: the Forbes-billionaires scenario.
func BenchmarkE11Billionaires(b *testing.B) { benchExperiment(b, "E11", true) }

// BenchmarkE12Ablation — every engine design choice removed in turn.
func BenchmarkE12Ablation(b *testing.B) { benchExperiment(b, "E12", true) }

// BenchmarkE13Nonlinear — the nonlinear feature extension vs linear-only.
func BenchmarkE13Nonlinear(b *testing.B) { benchExperiment(b, "E13", true) }

// ---- micro-benchmarks of the pipeline stages ----

// BenchmarkSummarizeToy times the end-to-end engine on the 9-row toy data
// (the latency a demo user experiences per click).
func BenchmarkSummarizeToy(b *testing.B) {
	src, tgt := ToyDataset()
	opts := DefaultOptions("bonus")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Summarize(src, tgt, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSummarize2k times the engine on a 2 000-row planted dataset with
// fixed attribute pools — the per-candidate cost driver.
func BenchmarkSummarize2k(b *testing.B) {
	d, err := PlantedDataset(PlantedConfig{N: 2000, Seed: 13, Rules: 3, RuleDepth: 2, UnchangedFrac: 0.3})
	if err != nil {
		b.Fatal(err)
	}
	opts := DefaultOptions(d.Target)
	opts.CondAttrs = d.CondAttrs
	opts.TranAttrs = d.TranAttrs
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Summarize(d.Src, d.Tgt, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAlign times snapshot alignment alone (key index + row matching).
func BenchmarkAlign(b *testing.B) {
	d, err := MontgomeryDataset(7, 5000)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Align(d.Src, d.Tgt.Clone()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSuggestAttributes times the setup assistant on realistic data.
func BenchmarkSuggestAttributes(b *testing.B) {
	d, err := MontgomeryDataset(7, 5000)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := SuggestAttributes(d.Src, d.Tgt, d.Target); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTimeline times the batch timeline workload: an 8-step chain with
// four evolving numeric attributes, steps fanned out over the worker pool
// and every pair's atom cache / split index shared across its targets. In CI
// it runs one iteration under -race, giving the worker-pool path race
// coverage on every push.
func BenchmarkTimeline(b *testing.B) {
	snaps, err := ChainDataset(ChainConfig{N: 300, Steps: 8, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	base := DefaultOptions("")
	base.CondAttrs = []string{"dept", "grade"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mt, err := SummarizeTimelineAll(snaps, base)
		if err != nil {
			b.Fatal(err)
		}
		if len(mt.Attrs) != 4 {
			b.Fatalf("attrs = %v", mt.Attrs)
		}
	}
}

// BenchmarkTimelineCold times one timeline-cold operation's engine work:
// the whole-table timeline of a 150-row, 3-step chain (all four targets
// change) at DefaultOptions, with no cache in front of the engine. It is the
// stage-level counterpart of the benchmark's timeline-cold workload.
func BenchmarkTimelineCold(b *testing.B) {
	snaps, err := ChainDataset(ChainConfig{N: 150, Steps: 3, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	base := DefaultOptions("")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mt, err := SummarizeTimelineAll(snaps, base)
		if err != nil {
			b.Fatal(err)
		}
		if len(mt.Attrs) != 4 {
			b.Fatalf("attrs = %v", mt.Attrs)
		}
	}
}

// diffChainStore commits the 50-step chain into a memory store tuned so the
// whole chain stays delta-encoded (one anchor at the root) and warms every
// cache with one pass over the adjacent pairs — the steady state both diff
// benchmarks measure.
func diffChainStore(b *testing.B) (*VersionStore, []string) {
	b.Helper()
	snaps, err := ChainDataset(ChainConfig{N: 120, Steps: 50, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	st, err := OpenStoreWith("", StoreOptions{TableCache: len(snaps), AnchorEvery: len(snaps) + 1})
	if err != nil {
		b.Fatal(err)
	}
	ids := make([]string, 0, len(snaps))
	parent := ""
	for _, snap := range snaps {
		v, err := st.Commit(snap, parent, "step")
		if err != nil {
			b.Fatal(err)
		}
		ids = append(ids, v.ID)
		parent = v.ID
	}
	for i := 0; i+1 < len(ids); i++ {
		if _, native, err := st.DiffResult(ids[i], ids[i+1], 1e-9); err != nil || !native {
			b.Fatalf("pair %d: native=%v err=%v", i, native, err)
		}
		if _, err := st.Checkout(ids[i+1]); err != nil {
			b.Fatal(err)
		}
	}
	return st, ids
}

// BenchmarkDiffChain50 times warm change queries over every adjacent pair of
// a 50-step delta-encoded chain. A cold query is assembled delta-natively —
// decoded ops from the ChangeSet cache plus one shared parent table, no
// target reconstruction, no CSV parse, no full row alignment — and the
// finished answer is memoized (versions are immutable, so it never goes
// stale); the warm steady state this records is the answer-cache path.
// Compare BenchmarkDiffChain50Align, the uncached checkout+align path
// answering the identical queries; the ratio is the speedup recorded in
// BENCH_baseline.json. In CI it runs one iteration under -race.
func BenchmarkDiffChain50(b *testing.B) {
	st, ids := diffChainStore(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j+1 < len(ids); j++ {
			res, native, err := st.DiffResult(ids[j], ids[j+1], 1e-9)
			if err != nil {
				b.Fatal(err)
			}
			if !native || res.UpdateDistance == 0 {
				b.Fatalf("pair %d: native=%v distance=%d", j, native, res.UpdateDistance)
			}
		}
	}
}

// BenchmarkDiffChain50Align answers exactly the queries of
// BenchmarkDiffChain50 through the classic path: check both versions out
// (warm table-LRU clones) and align the full row sets.
func BenchmarkDiffChain50Align(b *testing.B) {
	st, ids := diffChainStore(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j+1 < len(ids); j++ {
			src, err := st.Checkout(ids[j])
			if err != nil {
				b.Fatal(err)
			}
			tgt, err := st.Checkout(ids[j+1])
			if err != nil {
				b.Fatal(err)
			}
			res, err := DiffSnapshots(src, tgt, 1e-9)
			if err != nil {
				b.Fatal(err)
			}
			if res.UpdateDistance == 0 {
				b.Fatalf("pair %d: empty diff", j)
			}
		}
	}
}

// BenchmarkStoreChain50 times a full root→head checkout walk of a 50-step
// version chain stored delta-encoded: the timeline read pattern. The first
// iteration reconstructs and parses every version once; every later walk is
// served from the store's table LRU, so the steady state this records is
// the zero-parse clone path. In CI it runs one iteration under -race.
func BenchmarkStoreChain50(b *testing.B) {
	snaps, err := ChainDataset(ChainConfig{N: 120, Steps: 50, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	st, err := OpenStoreWith("", StoreOptions{TableCache: len(snaps)})
	if err != nil {
		b.Fatal(err)
	}
	parent := ""
	var head string
	for _, snap := range snaps {
		v, err := st.Commit(snap, parent, "step")
		if err != nil {
			b.Fatal(err)
		}
		parent, head = v.ID, v.ID
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		chain, err := st.Chain(head)
		if err != nil {
			b.Fatal(err)
		}
		for _, v := range chain {
			if _, err := st.Checkout(v.ID); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	if stats := st.Stats(); stats.Parses != int64(len(snaps)) {
		b.Fatalf("walks parsed %d times, want exactly %d (first walk only)", stats.Parses, len(snaps))
	}
}

// BenchmarkHubCommit16 drives 16 goroutines, each committing a
// pre-generated 6-step chain into its own fresh dataset of one shared hub:
// per-shard locking keeps the 16 commit pipelines fully concurrent while
// every shard's caches charge the one shared memory budget.
// cmd/charles-bench mirrors it as HubCommit16 in BENCH_baseline.json.
func BenchmarkHubCommit16(b *testing.B) {
	const shards = 16
	chains := make([][]*Table, shards)
	for g := range chains {
		snaps, err := ChainDataset(ChainConfig{N: 60, Steps: 6, Seed: int64(g + 1)})
		if err != nil {
			b.Fatal(err)
		}
		chains[g] = snaps
	}
	h, err := OpenHubWith("", HubOptions{MemoryBudget: 64 << 20})
	if err != nil {
		b.Fatal(err)
	}
	defer h.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		errs := make(chan error, shards)
		for g := 0; g < shards; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				// A fresh dataset per goroutine per iteration: every commit
				// is real pack-building work, never a content-address dedup.
				ds := fmt.Sprintf("d%02d-%d", g, i)
				parent := ""
				for _, snap := range chains[g] {
					v, err := h.Commit("bench", ds, snap, parent, "step")
					if err != nil {
						errs <- err
						return
					}
					parent = v.ID
				}
			}(g)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			b.Fatal(err)
		}
	}
}
