package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"

	"charles"
)

// BenchResult is one measured micro-benchmark.
type BenchResult struct {
	NsPerOp     int64 `json:"ns_per_op"`
	AllocsPerOp int64 `json:"allocs_per_op"`
	BytesPerOp  int64 `json:"bytes_per_op"`
	N           int   `json:"n"` // iterations measured
}

// LayerResult is one stage benchmark at one GOMAXPROCS, measured on one
// machine at a parent commit and with the change that moved it.
type LayerResult struct {
	Gomaxprocs int         `json:"gomaxprocs"`
	CPU        string      `json:"cpu"`
	Parent     BenchResult `json:"parent"`
	Change     BenchResult `json:"change"`
}

// BaselineFile is the schema of BENCH_baseline.json: the pre-change numbers
// of the PR that introduced the vectorized evaluation layer (kept for the
// record), the most recent measurement, the loadtests, and the stage
// benchmarks' before/after records (recorded by hand from go test -bench).
type BaselineFile struct {
	Recorded  string                    `json:"recorded"`
	Go        string                    `json:"go"`
	Note      string                    `json:"note,omitempty"`
	PreChange map[string]BenchResult    `json:"pre_change,omitempty"`
	Current   map[string]BenchResult    `json:"current"`
	Loadtest  map[string]LoadtestResult `json:"loadtest,omitempty"`
	Layers    map[string][]LayerResult  `json:"layers,omitempty"`
}

// writeBaseline measures the engine micro-benchmarks and writes (or
// updates) the baseline file, preserving its pre_change, loadtest and
// layers sections.
func writeBaseline(path string) error {
	// Fail on an unwritable destination before spending ~30s measuring.
	probe, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE, 0o644)
	if err != nil {
		return err
	}
	probe.Close()
	out := BaselineFile{
		Recorded: time.Now().UTC().Format("2006-01-02"),
		Go:       runtime.Version(),
		Current:  map[string]BenchResult{},
	}
	if prev, err := os.ReadFile(path); err == nil {
		var old BaselineFile
		if err := json.Unmarshal(prev, &old); err == nil {
			out.PreChange = old.PreChange
			out.Note = old.Note
			out.Loadtest = old.Loadtest
			out.Layers = old.Layers
		}
	}

	benches := []struct {
		name string
		fn   func(b *testing.B)
	}{
		{"Summarize2k", benchSummarize2k},
		{"SummarizeToy", benchSummarizeToy},
		{"Align5k", benchAlign5k},
		{"Timeline8x4", benchTimeline8x4},
		{"LiveExtend10", benchLiveExtend10},
		{"LiveExtend50", benchLiveExtend50},
		{"StoreChain50", benchStoreChain50},
		{"DiffChain50", benchDiffChain50},
		{"DiffChain50Align", benchDiffChain50Align},
		{"HubCommit16", benchHubCommit16},
	}
	for _, bench := range benches {
		fmt.Fprintf(os.Stderr, "measuring %s...\n", bench.name)
		r := testing.Benchmark(bench.fn)
		out.Current[bench.name] = BenchResult{
			NsPerOp:     r.NsPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
			N:           r.N,
		}
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}

// benchSummarize2k mirrors BenchmarkSummarize2k: the 2 000-row planted
// dataset with fixed attribute pools — the per-candidate cost driver.
func benchSummarize2k(b *testing.B) {
	d, err := charles.PlantedDataset(charles.PlantedConfig{N: 2000, Seed: 13, Rules: 3, RuleDepth: 2, UnchangedFrac: 0.3})
	if err != nil {
		b.Fatal(err)
	}
	opts := charles.DefaultOptions(d.Target)
	opts.CondAttrs = d.CondAttrs
	opts.TranAttrs = d.TranAttrs
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := charles.Summarize(d.Src, d.Tgt, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// benchSummarizeToy mirrors BenchmarkSummarizeToy: the 9-row demo latency.
func benchSummarizeToy(b *testing.B) {
	src, tgt := charles.ToyDataset()
	opts := charles.DefaultOptions("bonus")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := charles.Summarize(src, tgt, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// benchTimeline8x4 mirrors BenchmarkTimeline: the batch timeline workload —
// an 8-step chain with four evolving numeric attributes, steps run on the
// worker pool and per-pair acceleration shared across targets.
func benchTimeline8x4(b *testing.B) {
	snaps, err := charles.ChainDataset(charles.ChainConfig{N: 300, Steps: 8, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	base := charles.DefaultOptions("")
	base.CondAttrs = []string{"dept", "grade"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := charles.SummarizeTimelineAll(snaps, base); err != nil {
			b.Fatal(err)
		}
	}
}

// benchLiveExtend seeds an incrementally maintained timeline over a chain
// of the given length and measures advancing it by ONE new commit — the
// per-commit cost of live maintenance. LiveExtend10 vs LiveExtend50 is the
// incremental-maintenance acceptance check: the numbers should be close,
// because one step's cost does not grow with how long the chain already is
// (the from-scratch alternative is Timeline-shaped — linear in steps).
func benchLiveExtend(b *testing.B, steps int) {
	snaps, err := charles.ChainDataset(charles.ChainConfig{N: 300, Steps: steps, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	ids := make([]string, len(snaps))
	for i := range ids {
		ids[i] = fmt.Sprintf("v%03d", i)
	}
	base := charles.DefaultOptions("")
	base.CondAttrs = []string{"dept", "grade"}
	m, err := charles.NewTimelineMaintainer(snaps[:len(snaps)-1], ids[:len(ids)-1], base)
	if err != nil {
		b.Fatal(err)
	}
	last, lastID := snaps[len(snaps)-1], ids[len(ids)-1]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.Fork().Extend(lastID, last); err != nil {
			b.Fatal(err)
		}
	}
}

func benchLiveExtend10(b *testing.B) { benchLiveExtend(b, 10) }

func benchLiveExtend50(b *testing.B) { benchLiveExtend(b, 50) }

// benchStoreChain50 mirrors BenchmarkStoreChain50: a root→head checkout
// walk of a 50-step delta-encoded version chain; after the first walk fills
// the table LRU, each op is the zero-parse cached read path.
func benchStoreChain50(b *testing.B) {
	snaps, err := charles.ChainDataset(charles.ChainConfig{N: 120, Steps: 50, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	st, err := charles.OpenStoreWith("", charles.StoreOptions{TableCache: len(snaps)})
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
}

// diffChainStore commits the 50-step chain into a memory store that keeps
// the whole chain delta-encoded and warms every cache with one pass over the
// adjacent pairs.
func diffChainStore(b *testing.B) (*charles.VersionStore, []string) {
	b.Helper()
	snaps, err := charles.ChainDataset(charles.ChainConfig{N: 120, Steps: 50, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	st, err := charles.OpenStoreWith("", charles.StoreOptions{TableCache: len(snaps), AnchorEvery: len(snaps) + 1})
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

// benchDiffChain50 mirrors BenchmarkDiffChain50: warm change queries over
// every adjacent pair of the 50-step chain — cold queries assembled
// delta-natively from the packs' ops, warm repeats from the answer cache.
func benchDiffChain50(b *testing.B) {
	st, ids := diffChainStore(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j+1 < len(ids); j++ {
			res, _, err := st.DiffResult(ids[j], ids[j+1], 1e-9)
			if err != nil {
				b.Fatal(err)
			}
			if res.UpdateDistance == 0 {
				b.Fatalf("pair %d: empty diff", j)
			}
		}
	}
}

// benchDiffChain50Align mirrors BenchmarkDiffChain50Align: the identical
// queries through the classic checkout+align path.
func benchDiffChain50Align(b *testing.B) {
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
			res, err := charles.DiffSnapshots(src, tgt, 1e-9)
			if err != nil {
				b.Fatal(err)
			}
			if res.UpdateDistance == 0 {
				b.Fatalf("pair %d: empty diff", j)
			}
		}
	}
}

// benchHubCommit16 mirrors BenchmarkHubCommit16: 16 goroutines each
// committing a pre-generated 6-step chain into its own fresh dataset of one
// shared hub. Per-shard locking keeps the 16 commit pipelines fully
// concurrent while every shard's caches charge the one shared budget.
func benchHubCommit16(b *testing.B) {
	const shards = 16
	chains := make([][]*charles.Table, shards)
	for g := range chains {
		snaps, err := charles.ChainDataset(charles.ChainConfig{N: 60, Steps: 6, Seed: int64(g + 1)})
		if err != nil {
			b.Fatal(err)
		}
		chains[g] = snaps
	}
	h, err := charles.OpenHubWith("", charles.HubOptions{MemoryBudget: 64 << 20})
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

// benchAlign5k mirrors BenchmarkAlign: key indexing + row matching alone.
func benchAlign5k(b *testing.B) {
	d, err := charles.MontgomeryDataset(7, 5000)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := charles.Align(d.Src, d.Tgt.Clone()); err != nil {
			b.Fatal(err)
		}
	}
}
