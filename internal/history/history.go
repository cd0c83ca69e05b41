// Package history extends ChARLES from a snapshot *pair* to a snapshot
// *sequence*: given versions D₁ … Dₙ of an evolving table, it summarizes
// each consecutive step and reports how the recovered policy drifts over
// time — the "temporal changes" framing of the paper applied across a whole
// version history (cf. Bleifuß et al., "Exploring Change", PVLDB 2018,
// which the related-work section positions ChARLES against).
package history

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"

	"charles/internal/core"
	"charles/internal/diff"
	"charles/internal/model"
	"charles/internal/table"
)

// Step is the summarization of one consecutive snapshot pair.
type Step struct {
	// From and To index the snapshot sequence (step i: snapshots[i] →
	// snapshots[i+1]).
	From, To int
	// Ranked holds the step's summaries (empty only on no-change steps,
	// which instead set NoChange).
	Ranked []core.Ranked
	// NoChange marks steps where the target attribute did not move.
	NoChange bool
}

// Top returns the step's best summary (nil for no-change steps).
func (s Step) Top() *model.Summary {
	if len(s.Ranked) == 0 {
		return nil
	}
	return s.Ranked[0].Summary
}

// Timeline is the summarized evolution of one target attribute across a
// snapshot sequence.
type Timeline struct {
	Target string
	Steps  []Step
}

// Summarize runs the engine over every consecutive pair of snapshots. All
// snapshots must share the schema and entity set of the first; opts.Target
// selects the attribute. Steps where the target did not change are marked
// rather than summarized.
func Summarize(snapshots []*table.Table, opts core.Options) (*Timeline, error) {
	if len(snapshots) < 2 {
		return nil, fmt.Errorf("history: need at least 2 snapshots, got %d", len(snapshots))
	}
	tl := &Timeline{Target: opts.Target}
	for i := 0; i+1 < len(snapshots); i++ {
		ranked, err := core.Summarize(snapshots[i], snapshots[i+1], opts)
		if err != nil {
			return nil, fmt.Errorf("history: step %d→%d: %w", i, i+1, err)
		}
		step := Step{From: i, To: i + 1, Ranked: ranked}
		// The engine tags its "nothing changed" result explicitly; trust
		// that signal instead of inferring it from summary shape (a real
		// change step can legitimately rank a single summary).
		if len(ranked) > 0 && ranked[0].NoChange {
			step.NoChange = true
		}
		tl.Steps = append(tl.Steps, step)
	}
	return tl, nil
}

// MultiTimeline is the summarized evolution of every changed numeric
// attribute across a snapshot sequence — the batch form of Timeline.
type MultiTimeline struct {
	// Attrs lists the summarized attributes in schema order (the union of
	// per-step changed numeric attributes).
	Attrs []string
	// Timelines maps each summarized attribute to its per-step timeline.
	// Steps where the attribute did not change are marked NoChange.
	Timelines map[string]*Timeline
	// Skipped maps changed non-numeric attributes to the reason they were
	// not summarized (merged across steps).
	Skipped map[string]string
	// Steps is the number of consecutive snapshot pairs (len(snapshots)−1).
	Steps int
}

// Memo caches per-step engine results across timeline walks. A walk calls
// it once for every (step, target) engine run, passing the step's version
// ids and the run's options — together with opts.Fingerprint() they
// identify the result — and uses the ranking it returns; run computes the
// ranking on a miss.
type Memo func(from, to string, opts core.Options, run func() ([]core.Ranked, error)) ([]core.Ranked, error)

// SummarizeAll summarizes an entire version chain: base.Target when it is
// set, otherwise every changed numeric attribute. Each consecutive snapshot
// pair is aligned exactly once, the targets of a pair run through one shared
// core.PairContext (one atom cache and one split index per pair, regardless
// of how many targets it has), and the steps are fanned out over a worker
// pool bounded by base.Workers (0 = GOMAXPROCS). When the step pool is
// parallel, each engine run is single-threaded so total concurrency stays at
// the bound rather than squaring it; a single-step chain gets the full
// budget inside the one engine run. The engine's rankings do not depend on
// its worker count and steps are merged in step order, so the result is the
// same at every bound.
func SummarizeAll(snapshots []*table.Table, base core.Options) (*MultiTimeline, error) {
	return SummarizeAllContext(context.Background(), snapshots, base) //lint:allow ctxflow compatibility shim for pre-context callers; new code calls SummarizeAllContext
}

// SummarizeAllContext is SummarizeAll bounded by ctx: a cancelled or expired
// context stops the step pool from dispatching further steps and further
// engine runs, and returns the context's error. A run already in progress
// finishes (the engine itself is not preemptible) before the pool drains.
func SummarizeAllContext(ctx context.Context, snapshots []*table.Table, base core.Options) (*MultiTimeline, error) {
	results, err := walk(ctx, snapshots, nil, base, nil)
	if err != nil {
		return nil, err
	}
	return mergeSteps(snapshots[0], results, base.Target), nil
}

// CheckoutSource abstracts a version store that can materialize stored
// snapshots — the cache-aware checkout path behind store-backed timeline
// walks. store.Store satisfies it: its Checkout serves warm walks from a
// size-bounded table LRU, so repeating a timeline does no CSV parsing.
type CheckoutSource interface {
	Checkout(id string) (*table.Table, error)
}

// DeltaSource is a CheckoutSource that can additionally serve a version's
// decoded delta ops (store.Store satisfies it). Chain materialization uses
// the ops to derive each snapshot incrementally from its predecessor instead
// of reconstructing and parsing every version from storage.
type DeltaSource interface {
	CheckoutSource
	// DeltaOps returns id's decoded row-level ops against its base version,
	// with Materialized set for versions stored whole. The result is shared:
	// callers must not mutate it.
	DeltaOps(id string) (*diff.ChangeSet, error)
}

// CachedCheckoutSource is a CheckoutSource that can report whether a
// snapshot is already decoded and resident (store.Store satisfies it), so a
// materializer can prefer the cheap warm path over re-applying deltas.
type CachedCheckoutSource interface {
	CheckoutCached(id string) (*table.Table, bool)
}

// SnapshotAdmitter is a source that can verify an externally materialized
// snapshot against its content id and adopt it into its own caches
// (store.Store satisfies it). Chain materialization runs every
// delta-applied table through it, so a decodable-but-tampered delta pack
// cannot slip wrong data into a timeline — a failed check falls back to
// Checkout, which verifies the raw bytes and surfaces real corruption as an
// error — and a verified walk warms the same table cache a parsing walk
// would, keeping repeat walks on the cheap CheckoutCached clone path.
type SnapshotAdmitter interface {
	AdmitSnapshot(id string, t *table.Table) error
}

// MaterializeChain materializes the version ids in order, delta-natively
// where possible: the first id (and every id whose table is already cached)
// is checked out, and each subsequent id is derived by applying its delta
// ops to the previous snapshot — so a cold walk of an n-version chain does
// one CSV parse at the root instead of n. Anchors, versions whose ops do not
// apply cleanly (diff.ApplyChangeSet's canonical-encoding requirements), and
// plain CheckoutSources fall back to a regular checkout per id. The returned
// tables are identical to per-id checkouts, row order included.
func MaterializeChain(src CheckoutSource, ids []string) ([]*table.Table, error) {
	return MaterializeChainContext(context.Background(), src, ids) //lint:allow ctxflow compatibility shim for pre-context callers; new code calls MaterializeChainContext
}

// MaterializeChainContext is MaterializeChain bounded by ctx: the walk
// checks for cancellation before each version, so a caller abandoning a
// long chain stops paying for checkouts it will never read.
func MaterializeChainContext(ctx context.Context, src CheckoutSource, ids []string) ([]*table.Table, error) {
	out := make([]*table.Table, len(ids))
	for i, id := range ids {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		var prevID string
		var prev *table.Table
		if i > 0 {
			prevID, prev = ids[i-1], out[i-1]
		}
		t, err := MaterializeStep(src, prevID, prev, id)
		if err != nil {
			return nil, err
		}
		out[i] = t
	}
	return out, nil
}

// MaterializeStep materializes one version delta-natively when possible:
// the cached-table path first, then applying id's ChangeSet to prev (the
// already materialized snapshot of prevID, id's parent; nil at a chain
// root), then a plain checkout.
func MaterializeStep(src CheckoutSource, prevID string, prev *table.Table, id string) (*table.Table, error) {
	if cc, ok := src.(CachedCheckoutSource); ok {
		if t, ok := cc.CheckoutCached(id); ok {
			return t, nil
		}
	}
	if ds, ok := src.(DeltaSource); ok && prev != nil {
		if cs, err := ds.DeltaOps(id); err == nil && !cs.Materialized && cs.Base == prevID {
			if t, err := diff.ApplyChangeSet(prev, cs); err == nil {
				// Applied tables carry the same tamper-evidence as
				// checkouts: verify against the content id before trusting
				// them (a failure falls through to Checkout, which verifies
				// the raw bytes itself), and admit the verified table into
				// the source's cache so the next walk takes the warm clone
				// path.
				sa, _ := src.(SnapshotAdmitter)
				if sa == nil || sa.AdmitSnapshot(id, t) == nil {
					return t, nil
				}
			}
		}
	}
	t, err := src.Checkout(id)
	if err != nil {
		return nil, fmt.Errorf("history: version %s: %w", id, err)
	}
	return t, nil
}

// SummarizeChain materializes the given version ids in order through src —
// delta-natively when src is a DeltaSource: one checkout at the chain root,
// then step-by-step application of each version's ChangeSet — and
// summarizes the chain exactly as SummarizeAll does. It is the store-backed
// batch timeline: ids usually come from Store.Chain(head).
func SummarizeChain(src CheckoutSource, ids []string, base core.Options) (*MultiTimeline, error) {
	return SummarizeChainContext(context.Background(), src, ids, base, nil) //lint:allow ctxflow compatibility shim for pre-context callers; new code calls SummarizeChainContext
}

// SummarizeChainContext is SummarizeChain bounded by ctx (both the chain
// materialization and the step pool observe cancellation), with every
// engine run going through memo under its step's version ids; a nil memo
// runs the engine directly.
func SummarizeChainContext(ctx context.Context, src CheckoutSource, ids []string, base core.Options, memo Memo) (*MultiTimeline, error) {
	if len(ids) < 2 {
		return nil, fmt.Errorf("history: need at least 2 versions, got %d", len(ids))
	}
	snapshots, err := MaterializeChainContext(ctx, src, ids)
	if err != nil {
		return nil, err
	}
	results, err := walk(ctx, snapshots, ids, base, memo)
	if err != nil {
		return nil, err
	}
	return mergeSteps(snapshots[0], results, base.Target), nil
}

// walk runs summarizeStep over every consecutive pair of snapshots on the
// bounded step pool and returns the per-step results in step order. ids,
// when non-nil, are the snapshots' version ids, handed to memo with each
// run. An explicit base.Target is validated against the root snapshot
// first, so a misspelled or categorical target reads as an error rather
// than as a plausible all-no-change timeline. ctx is observed at the pool
// gate and again before each engine run.
func walk(ctx context.Context, snapshots []*table.Table, ids []string, base core.Options, memo Memo) ([]*core.MultiResult, error) {
	if len(snapshots) < 2 {
		return nil, fmt.Errorf("history: need at least 2 snapshots, got %d", len(snapshots))
	}
	if base.Target != "" {
		if err := checkTarget(snapshots[0], base.Target); err != nil {
			return nil, err
		}
	}
	guarded := func(from, to string, opts core.Options, run func() ([]core.Ranked, error)) ([]core.Ranked, error) {
		checked := func() ([]core.Ranked, error) {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			return run()
		}
		if memo == nil {
			return checked()
		}
		return memo(from, to, opts, checked)
	}
	results := make([]*core.MultiResult, len(snapshots)-1)
	err := forEachStep(ctx, len(results), base, func(i int, engineBase core.Options) error {
		var from, to string
		if ids != nil {
			from, to = ids[i], ids[i+1]
		}
		var err error
		results[i], err = summarizeStep(snapshots[i], snapshots[i+1], from, to, engineBase, guarded)
		return err
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}

// checkTarget validates an explicit walk target against the root snapshot:
// it must name a numeric attribute that is not part of the key.
func checkTarget(root *table.Table, target string) error {
	col, err := root.Column(target)
	if err != nil || slices.Contains(root.Key(), target) {
		return fmt.Errorf("unknown target attribute %q", target)
	}
	if !col.Type.Numeric() {
		return fmt.Errorf("target attribute %q is not numeric (categorical changes cannot be summarized)", target)
	}
	return nil
}

// forEachStep runs fn for every step index on a pool bounded by
// base.Workers (≤0 means GOMAXPROCS, clamped to the step count) and returns
// the earliest failed step's error — deterministic regardless of
// scheduling. The engine options handed to fn are base with the
// candidate-worker count collapsed to 1 whenever the step pool itself is
// parallel, so total concurrency stays at the configured bound instead of
// squaring it. This only bounds concurrency: the engine's rankings are the
// same at every worker count.
//
// Cancellation is observed at the pool gate: a step that has not yet
// acquired a worker slot when ctx ends records the context's error instead
// of running. A context error outranks step errors in the return value —
// once the caller has given up, per-step failures are noise.
func forEachStep(ctx context.Context, steps int, base core.Options, fn func(i int, engineBase core.Options) error) error {
	workers := base.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > steps {
		workers = steps
	}
	engineBase := base
	if workers > 1 {
		engineBase.Workers = 1
	}
	errs := make([]error, steps)
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for i := 0; i < steps; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			select {
			case sem <- struct{}{}:
			case <-ctx.Done():
				errs[i] = ctx.Err()
				return
			}
			defer func() { <-sem }()
			if err := ctx.Err(); err != nil {
				errs[i] = err
				return
			}
			errs[i] = fn(i, engineBase)
		}(i)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return err
	}
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("history: step %d→%d: %w", i, i+1, err)
		}
	}
	return nil
}

// SummarizeTarget summarizes one attribute across the chain: SummarizeAll
// with base.Target set, so the target is validated up front and steps where
// it did not move run no engine (they read NoChange with no Ranked entry,
// rather than the engine's explicit no-change result).
func SummarizeTarget(snapshots []*table.Table, target string, base core.Options) (*Timeline, error) {
	base.Target = target
	mt, err := SummarizeAll(snapshots, base)
	if err != nil {
		return nil, err
	}
	return mt.Timelines[target], nil
}

// summarizeStep is the one per-step function behind every timeline walk and
// maintainer: it aligns the pair, picks its targets (base.Target when set,
// otherwise every changed numeric attribute, with the skip reasons of the
// categorical ones; see core.SummarizeAllWith) and runs each target's
// engine through memo under the pair's version ids (a nil memo runs it
// directly). The pair's PairContext — narrowed to an explicit condition
// pool — is built on the step's first engine run, so a step whose every
// target the memo answers builds none.
func summarizeStep(src, tgt *table.Table, from, to string, base core.Options, memo Memo) (*core.MultiResult, error) {
	a, err := diff.Align(src, tgt)
	if err != nil {
		return nil, err
	}
	var pc *core.PairContext
	return core.SummarizeAllWith(a, base, func(opts core.Options) ([]core.Ranked, error) {
		run := func() ([]core.Ranked, error) {
			if pc == nil {
				var err error
				if pc, err = core.NewPairContext(a, base.CondAttrs...); err != nil {
					return nil, err
				}
			}
			return pc.Summarize(opts)
		}
		if memo == nil {
			return run()
		}
		return memo(from, to, opts, run)
	})
}

// mergeSteps assembles per-attribute timelines from the per-step results.
// Attributes follow schema order; an attribute absent from a step's result
// (it did not change there) becomes a NoChange step. An explicit target has
// a timeline even when it never changed.
func mergeSteps(first *table.Table, results []*core.MultiResult, target string) *MultiTimeline {
	mt := &MultiTimeline{
		Timelines: map[string]*Timeline{},
		Skipped:   map[string]string{},
		Steps:     len(results),
	}
	for _, f := range first.Schema() {
		attr := f.Name
		active := attr == target
		for _, res := range results {
			if _, ok := res.ByAttr[attr]; ok {
				active = true
				break
			}
		}
		if !active {
			continue
		}
		tl := &Timeline{Target: attr}
		for i, res := range results {
			step := Step{From: i, To: i + 1}
			if ranked, ok := res.ByAttr[attr]; ok {
				step.Ranked = ranked
				if len(ranked) > 0 && ranked[0].NoChange {
					step.NoChange = true
				}
			} else {
				step.NoChange = true
			}
			tl.Steps = append(tl.Steps, step)
		}
		mt.Attrs = append(mt.Attrs, attr)
		mt.Timelines[attr] = tl
	}
	for _, res := range results {
		for attr, why := range res.Skipped {
			mt.Skipped[attr] = why
		}
	}
	return mt
}

// Render prints every attribute's timeline, in schema order, followed by the
// skipped attributes.
func (mt *MultiTimeline) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "evolution of %d attribute(s) across %d steps\n", len(mt.Attrs), mt.Steps)
	for _, attr := range mt.Attrs {
		fmt.Fprintf(&b, "\n=== %s ===\n", attr)
		b.WriteString(mt.Timelines[attr].Render())
	}
	if len(mt.Skipped) > 0 {
		b.WriteString("\nskipped:\n")
		for _, attr := range sortedKeys(mt.Skipped) {
			fmt.Fprintf(&b, "  %s: %s\n", attr, mt.Skipped[attr])
		}
	}
	return b.String()
}

// sortedKeys returns the map's keys in lexicographic order (deterministic
// rendering of the skipped set).
func sortedKeys(m map[string]string) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Drift describes how a policy changed between two consecutive steps.
type Drift struct {
	StepA, StepB int
	// SamePartitioning reports whether both steps' top summaries induce the
	// same partition structure (condition fingerprints match pairwise).
	SamePartitioning bool
	// Note summarizes the relationship in one line.
	Note string
}

// Drifts compares the top summary of each step against the next step's:
// stable policies (same conditions, same constants) read as "policy held",
// same conditions with new constants read as "rates changed", and different
// conditions read as "policy restructured".
func (tl *Timeline) Drifts() []Drift {
	var out []Drift
	for i := 0; i+1 < len(tl.Steps); i++ {
		a, b := tl.Steps[i], tl.Steps[i+1]
		d := Drift{StepA: i, StepB: i + 1}
		switch {
		case a.NoChange && b.NoChange:
			d.SamePartitioning = true
			d.Note = "no change in either step"
		case a.NoChange != b.NoChange:
			d.Note = "change activity toggled"
		default:
			sa, sb := a.Top(), b.Top()
			// A change step can come back with nothing ranked (an engine run
			// whose every candidate was filtered); without a summary there is
			// no policy to compare, so say so instead of dereferencing nil.
			if sa == nil || sb == nil {
				d.Note = "no summary recovered"
				break
			}
			d.SamePartitioning = samePartitioning(sa, sb)
			switch {
			case sa.Fingerprint() == sb.Fingerprint():
				d.Note = "policy held exactly"
			case d.SamePartitioning:
				d.Note = "same partitions, constants changed"
			default:
				d.Note = "policy restructured"
			}
		}
		out = append(out, d)
	}
	return out
}

// samePartitioning compares condition fingerprints pairwise (order-free).
func samePartitioning(a, b *model.Summary) bool {
	if a.Size() != b.Size() {
		return false
	}
	seen := map[string]int{}
	for _, ct := range a.CTs {
		seen[ct.Cond.Fingerprint()]++
	}
	for _, ct := range b.CTs {
		seen[ct.Cond.Fingerprint()]--
	}
	for _, v := range seen {
		if v != 0 {
			return false
		}
	}
	return true
}

// Render prints the timeline: one block per step with its top summary.
func (tl *Timeline) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "evolution of %s across %d steps\n", tl.Target, len(tl.Steps))
	for _, s := range tl.Steps {
		fmt.Fprintf(&b, "\nstep %d → %d:\n", s.From, s.To)
		if s.NoChange {
			b.WriteString("  (no change)\n")
			continue
		}
		if len(s.Ranked) == 0 {
			b.WriteString("  (no summary recovered)\n")
			continue
		}
		top := s.Ranked[0]
		fmt.Fprintf(&b, "  score %.1f%%\n", top.Breakdown.Score*100)
		for _, ct := range top.Summary.CTs {
			fmt.Fprintf(&b, "  %s\n", ct)
		}
	}
	drifts := tl.Drifts()
	if len(drifts) > 0 {
		b.WriteString("\ndrift:\n")
		for _, d := range drifts {
			fmt.Fprintf(&b, "  step %d→%d vs %d→%d: %s\n", d.StepA, d.StepA+1, d.StepB, d.StepB+1, d.Note)
		}
	}
	return b.String()
}
