package history

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"charles/internal/core"
	"charles/internal/diff"
	"charles/internal/gen"
	"charles/internal/store"
	"charles/internal/table"
)

// threeSnapshots builds D1→D2→D3: step 1 applies the toy policy (R1–R3),
// step 2 leaves everything unchanged.
func threeSnapshots(t *testing.T) []*table.Table {
	t.Helper()
	d1, d2 := gen.Toy()
	d3 := d2.Clone()
	return []*table.Table{d1, d2, d3}
}

// targetTimeline walks snaps with SummarizeAll narrowed to opts.Target and
// returns that attribute's timeline.
func targetTimeline(t *testing.T, snaps []*table.Table, opts core.Options) *Timeline {
	t.Helper()
	mt, err := SummarizeAll(snaps, opts)
	if err != nil {
		t.Fatal(err)
	}
	tl, ok := mt.Timelines[opts.Target]
	if !ok {
		t.Fatalf("no timeline for target %q (attrs %v)", opts.Target, mt.Attrs)
	}
	return tl
}

func TestTimelineSummarizesEachStep(t *testing.T) {
	snaps := threeSnapshots(t)
	tl := targetTimeline(t, snaps, core.DefaultOptions("bonus"))
	if len(tl.Steps) != 2 {
		t.Fatalf("steps = %d", len(tl.Steps))
	}
	if tl.Steps[0].NoChange {
		t.Error("step 0 should carry the policy change")
	}
	if top := tl.Steps[0].Top(); top == nil || top.Size() != 3 {
		t.Errorf("step 0 top summary = %v", tl.Steps[0].Top())
	}
	if !tl.Steps[1].NoChange {
		t.Error("step 1 should be a no-change step")
	}
	if tl.Steps[1].Top() != nil && tl.Steps[1].Top().Size() != 0 {
		t.Error("no-change step should have an empty top summary")
	}
}

func TestTimelineValidation(t *testing.T) {
	d1, _ := gen.Toy()
	if _, err := SummarizeAll([]*table.Table{d1}, core.DefaultOptions("bonus")); err == nil {
		t.Error("single snapshot accepted")
	}
	other := table.MustNew(table.Schema{{Name: "x", Type: table.Int}})
	if _, err := SummarizeAll([]*table.Table{d1, other}, core.DefaultOptions("bonus")); err == nil {
		t.Error("schema drift accepted")
	}
}

func TestDriftDetection(t *testing.T) {
	// D1→D2 applies the policy, D2→D3 applies nothing: activity toggles.
	snaps := threeSnapshots(t)
	tl := targetTimeline(t, snaps, core.DefaultOptions("bonus"))
	drifts := tl.Drifts()
	if len(drifts) != 1 {
		t.Fatalf("drifts = %d", len(drifts))
	}
	if drifts[0].Note != "change activity toggled" {
		t.Errorf("drift note = %q", drifts[0].Note)
	}
}

func TestDriftPolicyHeld(t *testing.T) {
	// Apply the same planted policy twice: D1→D2 and D2→D3 should match.
	d, err := gen.Planted(gen.PlantedConfig{N: 500, Seed: 8, Rules: 2, UnchangedFrac: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	// D3: re-apply the truth policy to D2.
	d3 := d.Tgt.Clone()
	preds, _, err := d.Truth.Apply(d.Tgt)
	if err != nil {
		t.Fatal(err)
	}
	col := d3.MustColumn("pay")
	for r := 0; r < d3.NumRows(); r++ {
		if err := col.Set(r, table.F(preds[r])); err != nil {
			t.Fatal(err)
		}
	}
	opts := core.DefaultOptions("pay")
	opts.CondAttrs = d.CondAttrs
	opts.TranAttrs = d.TranAttrs
	tl := targetTimeline(t, []*table.Table{d.Src, d.Tgt, d3}, opts)
	drifts := tl.Drifts()
	if len(drifts) != 1 {
		t.Fatalf("drifts = %d", len(drifts))
	}
	if !drifts[0].SamePartitioning {
		t.Errorf("partitioning should be stable across identical policy steps: %+v", drifts[0])
	}
}

func TestRender(t *testing.T) {
	snaps := threeSnapshots(t)
	tl := targetTimeline(t, snaps, core.DefaultOptions("bonus"))
	out := tl.Render()
	for _, want := range []string{"evolution of bonus", "step 0 → 1", "step 1 → 2", "(no change)", "drift:"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

// TestOneSummaryChangeStepNotMarkedNoChange is a regression test for the old
// no-change heuristic (`len(ranked) == 1 && Size() == 0`): a genuine change
// step that happens to rank exactly one summary must not read as no-change.
// A step is NoChange only when the target did not move; the engine's own
// explicit no-change result is pinned in core (TestNaNOnlyChangesNotReportedNoChange).
func TestOneSummaryChangeStepNotMarkedNoChange(t *testing.T) {
	d1, d2 := gen.Toy()
	opts := core.DefaultOptions("bonus")
	opts.TopK = 1 // force a one-summary result on a real change step
	tl := targetTimeline(t, []*table.Table{d1, d2, d2.Clone()}, opts)
	step := tl.Steps[0]
	if len(step.Ranked) != 1 {
		t.Fatalf("want exactly one ranked summary, got %d", len(step.Ranked))
	}
	if step.Ranked[0].Summary.Size() == 0 {
		t.Fatal("change step produced an empty summary")
	}
	if step.NoChange {
		t.Error("one-summary change step marked NoChange")
	}
	if step.Ranked[0].NoChange {
		t.Error("engine tagged a change result as NoChange")
	}
	// And the genuine no-change step is marked without an engine run.
	quiet := tl.Steps[1]
	if !quiet.NoChange || len(quiet.Ranked) != 0 {
		t.Errorf("no-change step signal: step=%+v", quiet)
	}
}

// TestEmptyRankedStepGuards pins the crash fix: a change step whose engine
// output is empty (no ranked summaries, not NoChange) must render and drift
// without panicking, and the drift carries an explicit note.
func TestEmptyRankedStepGuards(t *testing.T) {
	tl := &Timeline{
		Target: "bonus",
		Steps: []Step{
			{From: 0, To: 1}, // empty Ranked, not NoChange
			{From: 1, To: 2}, // same
		},
	}
	out := tl.Render()
	if !strings.Contains(out, "(no summary recovered)") {
		t.Errorf("render missing empty-step note:\n%s", out)
	}
	drifts := tl.Drifts()
	if len(drifts) != 1 {
		t.Fatalf("drifts = %d", len(drifts))
	}
	if drifts[0].Note != "no summary recovered" {
		t.Errorf("drift note = %q", drifts[0].Note)
	}
	if drifts[0].SamePartitioning {
		t.Error("empty steps cannot claim same partitioning")
	}
	// Mixed: one real step, one empty — also must not panic.
	real := targetTimeline(t, threeSnapshots(t), core.DefaultOptions("bonus"))
	mixed := &Timeline{Target: "bonus", Steps: []Step{real.Steps[0], {From: 1, To: 2}}}
	if out := mixed.Render(); !strings.Contains(out, "(no summary recovered)") {
		t.Errorf("mixed render missing empty-step note:\n%s", out)
	}
	if d := mixed.Drifts(); d[0].Note != "no summary recovered" {
		t.Errorf("mixed drift note = %q", d[0].Note)
	}
}

// chainOpts is the shared base configuration of the chain tests: explicit
// condition pool (dept, grade are the planted policy dimensions) keeps the
// runs fast; everything else stays at the engine defaults.
func chainOpts() core.Options {
	base := core.DefaultOptions("")
	base.CondAttrs = []string{"dept", "grade"}
	return base
}

// equalRanked reports bit-identical rankings: same order, same summaries,
// same breakdowns to the last float.
func equalRanked(a, b []core.Ranked) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].NoChange != b[i].NoChange {
			return false
		}
		if a[i].Summary.Fingerprint() != b[i].Summary.Fingerprint() {
			return false
		}
		if *a[i].Breakdown != *b[i].Breakdown {
			return false
		}
	}
	return true
}

// TestSummarizeAllDifferential pins the parallel multi-target timeline to
// the sequential per-pair, per-target reference loop, bit-identically: same
// attributes, same steps, same rankings, same scores.
func TestSummarizeAllDifferential(t *testing.T) {
	snaps, err := gen.Chain(gen.ChainConfig{N: 80, Steps: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	base := chainOpts()
	base.Workers = 4
	mt, err := SummarizeAll(snaps, base)
	if err != nil {
		t.Fatal(err)
	}

	// Sequential reference: fresh alignment and fresh engine state per
	// (pair, target) — no context sharing, no step parallelism.
	type ref struct {
		ranked map[string][]core.Ranked
	}
	refs := make([]ref, len(snaps)-1)
	for i := 0; i+1 < len(snaps); i++ {
		a, err := diff.Align(snaps[i], snaps[i+1])
		if err != nil {
			t.Fatal(err)
		}
		changed, err := a.ChangedAttrs(base.ChangeTol)
		if err != nil {
			t.Fatal(err)
		}
		refs[i].ranked = map[string][]core.Ranked{}
		for _, attr := range changed {
			col, err := snaps[i].Column(attr)
			if err != nil {
				t.Fatal(err)
			}
			if !col.Type.Numeric() {
				continue
			}
			opts := base
			opts.Target = attr
			opts.Workers = 1
			ranked, err := core.Summarize(snaps[i], snaps[i+1], opts)
			if err != nil {
				t.Fatal(err)
			}
			refs[i].ranked[attr] = ranked
		}
	}

	wantAttrs := map[string]bool{}
	for _, r := range refs {
		for attr := range r.ranked {
			wantAttrs[attr] = true
		}
	}
	if len(mt.Attrs) != len(wantAttrs) {
		t.Fatalf("parallel attrs = %v, reference saw %v", mt.Attrs, wantAttrs)
	}
	for _, attr := range mt.Attrs {
		tl := mt.Timelines[attr]
		if len(tl.Steps) != len(refs) {
			t.Fatalf("%s: %d steps, want %d", attr, len(tl.Steps), len(refs))
		}
		for i, step := range tl.Steps {
			want, changed := refs[i].ranked[attr]
			if !changed {
				if !step.NoChange {
					t.Errorf("%s step %d: reference saw no change, parallel ran the engine", attr, i)
				}
				continue
			}
			if !equalRanked(step.Ranked, want) {
				t.Errorf("%s step %d: parallel ranking differs from sequential reference", attr, i)
			}
		}
	}
}

// TestSummarizeAllEightStepChain is the acceptance-criteria test: an 8-step
// chain with 4 evolving numeric attributes, run concurrently, must build
// each pair's atom cache and split index exactly once across all targets
// (asserted via the engine's process-wide build counters) and match the
// sequential path (Workers=1) bit-identically.
func TestSummarizeAllEightStepChain(t *testing.T) {
	snaps, err := gen.Chain(gen.ChainConfig{N: 100, Steps: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	steps := len(snaps) - 1

	base := chainOpts()
	base.Workers = 4
	c0, i0 := core.AccelBuilds()
	mt, err := SummarizeAll(snaps, base)
	if err != nil {
		t.Fatal(err)
	}
	c1, i1 := core.AccelBuilds()
	if got := c1 - c0; got != uint64(steps) {
		t.Errorf("atom caches built = %d, want exactly one per pair (%d)", got, steps)
	}
	if got := i1 - i0; got != uint64(steps) {
		t.Errorf("split indexes built = %d, want exactly one per pair (%d)", got, steps)
	}
	if len(mt.Attrs) != 4 {
		t.Fatalf("changed numeric attributes = %v, want the 4 planted targets", mt.Attrs)
	}
	engineRuns := 0
	for _, attr := range mt.Attrs {
		for _, step := range mt.Timelines[attr].Steps {
			if len(step.Ranked) > 0 {
				engineRuns++
			}
		}
	}
	if engineRuns <= steps {
		t.Fatalf("expected more engine runs (%d) than pairs (%d) for the amortization claim to be non-trivial", engineRuns, steps)
	}

	seq := chainOpts()
	seq.Workers = 1
	mtSeq, err := SummarizeAll(snaps, seq)
	if err != nil {
		t.Fatal(err)
	}
	if len(mtSeq.Attrs) != len(mt.Attrs) {
		t.Fatalf("sequential attrs %v vs parallel %v", mtSeq.Attrs, mt.Attrs)
	}
	for _, attr := range mt.Attrs {
		p, s := mt.Timelines[attr], mtSeq.Timelines[attr]
		for i := range p.Steps {
			if p.Steps[i].NoChange != s.Steps[i].NoChange || !equalRanked(p.Steps[i].Ranked, s.Steps[i].Ranked) {
				t.Errorf("%s step %d: parallel and sequential outputs differ", attr, i)
			}
		}
	}
	// overtime and longevity skip steps by construction: their timelines
	// must contain genuine NoChange steps.
	for _, attr := range []string{"overtime", "longevity"} {
		tl, ok := mt.Timelines[attr]
		if !ok {
			t.Fatalf("%s missing from timelines (%v)", attr, mt.Attrs)
		}
		quiet := 0
		for _, step := range tl.Steps {
			if step.NoChange {
				quiet++
			}
		}
		if quiet == 0 {
			t.Errorf("%s: expected no-change steps in its timeline", attr)
		}
	}
	// Render must cover every attribute without panicking.
	out := mt.Render()
	for _, attr := range mt.Attrs {
		if !strings.Contains(out, "=== "+attr+" ===") {
			t.Errorf("render missing block for %s", attr)
		}
	}
}

// TestSummarizeAllValidation mirrors the single-target validation contract.
func TestSummarizeAllValidation(t *testing.T) {
	d1, _ := gen.Toy()
	if _, err := SummarizeAll([]*table.Table{d1}, core.DefaultOptions("")); err == nil {
		t.Error("single snapshot accepted")
	}
	other := table.MustNew(table.Schema{{Name: "x", Type: table.Int}})
	if _, err := SummarizeAll([]*table.Table{d1, other}, core.DefaultOptions("")); err == nil {
		t.Error("schema drift accepted")
	}
}

// TestSummarizeAllTargetMatchesSequential pins the parallel single-target path
// (SummarizeAll with base.Target set) to the sequential reference: engine
// steps bit-identical, unchanged steps short-circuited to NoChange without
// an engine run.
func TestSummarizeAllTargetMatchesSequential(t *testing.T) {
	snaps, err := gen.Chain(gen.ChainConfig{N: 60, Steps: 4, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	base := chainOpts()
	base.Workers = 4
	for _, target := range []string{"salary", "overtime"} {
		opts := base
		opts.Target = target
		tl := targetTimeline(t, snaps, opts)
		if len(tl.Steps) != len(snaps)-1 {
			t.Fatalf("%s: steps = %d", target, len(tl.Steps))
		}
		for i := 0; i+1 < len(snaps); i++ {
			a, err := diff.Align(snaps[i], snaps[i+1])
			if err != nil {
				t.Fatal(err)
			}
			mask, err := a.ChangedMask(target, base.ChangeTol)
			if err != nil {
				t.Fatal(err)
			}
			moved := false
			for _, ch := range mask {
				moved = moved || ch
			}
			step := tl.Steps[i]
			if !moved {
				if !step.NoChange || len(step.Ranked) != 0 {
					t.Errorf("%s step %d: want engine-free NoChange, got %+v", target, i, step)
				}
				continue
			}
			opts := base
			opts.Target = target
			opts.Workers = 1
			want, err := core.SummarizeAligned(a, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !equalRanked(step.Ranked, want) {
				t.Errorf("%s step %d: parallel single-target differs from sequential reference", target, i)
			}
		}
	}
	// overtime changes only on even steps: the timeline must show that.
	base.Target = "overtime"
	for i, step := range targetTimeline(t, snaps, base).Steps {
		if want := (i+1)%2 == 0; step.NoChange == want {
			t.Errorf("overtime step %d: NoChange = %v", i, step.NoChange)
		}
	}
	// Validation mirrors the batch path.
	base.Target = "salary"
	if _, err := SummarizeAll(snaps[:1], base); err == nil {
		t.Error("single snapshot accepted")
	}
	base.Target = "ghost"
	if _, err := SummarizeAll(snaps, base); err == nil {
		t.Error("unknown target accepted")
	}
	// A categorical target errors up front instead of yielding a plausible
	// all-no-change timeline (the serve layer 400s the same request).
	base.Target = "dept"
	if _, err := SummarizeAll(snaps, base); err == nil {
		t.Error("categorical target accepted")
	}
}

// TestSummarizeChainMatchesSummarizeAll pins the store-backed timeline
// entry point: walking version ids through a CheckoutSource must yield a
// MultiTimeline bit-identical to checking the snapshots out by hand and
// running SummarizeAll — and the second walk must be parse-free (served
// from the store's table cache).
func TestSummarizeChainMatchesSummarizeAll(t *testing.T) {
	snaps, err := gen.Chain(gen.ChainConfig{N: 40, Steps: 3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.Open("")
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	parent := ""
	for _, snap := range snaps {
		v, err := st.Commit(snap, parent, "step")
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, v.ID)
		parent = v.ID
	}
	base := core.DefaultOptions("")
	base.CondAttrs = []string{"dept", "grade"}
	got, err := SummarizeChain(context.Background(), st, ids, base, nil)
	if err != nil {
		t.Fatal(err)
	}
	ref := make([]*table.Table, len(ids))
	for i, id := range ids {
		if ref[i], err = st.Checkout(id); err != nil {
			t.Fatal(err)
		}
	}
	want, err := SummarizeAll(ref, base)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("SummarizeChain differs from SummarizeAll over the checked-out snapshots")
	}
	parses := st.Stats().Parses
	if _, err := SummarizeChain(context.Background(), st, ids, base, nil); err != nil {
		t.Fatal(err)
	}
	if again := st.Stats().Parses; again != parses {
		t.Errorf("second chain walk parsed %d more snapshots, want 0 (cache-served)", again-parses)
	}

	if _, err := SummarizeChain(context.Background(), st, ids[:1], base, nil); err == nil {
		t.Error("single-version chain accepted")
	}
	if _, err := SummarizeChain(context.Background(), st, []string{"nope", "nope2"}, base, nil); err == nil || !strings.Contains(err.Error(), "nope") {
		t.Errorf("unknown id err = %v, want the id named", err)
	}
}

// TestMaterializeChainMatchesCheckout is the delta-materialization
// differential: on random mutation chains (cell edits, inserts, deletes,
// adversarial string cells, anchors mid-chain), MaterializeChain must
// return exactly the tables per-id checkouts return — schema types, values,
// and row order — whichever mix of delta application, verification
// fallback, and anchor checkout each version takes. The raw
// diff.ApplyChangeSet path is additionally differenced directly against
// checkouts (bypassing the verification policy), so the adversarial cells
// exercise the apply codec itself.
func TestMaterializeChainMatchesCheckout(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		st, err := store.OpenWith("", store.Options{AnchorEvery: 4, TableCache: 64})
		if err != nil {
			t.Fatal(err)
		}
		snaps, err := gen.MutateChain(gen.FuzzConfig{N: 25, Steps: 7, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		var ids []string
		parent := ""
		for _, snap := range snaps {
			v, err := st.Commit(snap, parent, "step")
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, v.ID)
			parent = v.ID
		}
		// The table cache is cold right after committing (commits warm only
		// the blob cache), so this walk exercises delta application.
		got, err := MaterializeChain(st, ids)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for i, id := range ids {
			want, err := st.Checkout(id)
			if err != nil {
				t.Fatal(err)
			}
			if !got[i].Equal(want) {
				t.Fatalf("seed %d: materialized version %d (%s) differs from its checkout", seed, i, id)
			}
			if !got[i].Schema().Equal(want.Schema()) {
				t.Fatalf("seed %d: version %d schema types diverged", seed, i)
			}
		}
		// Direct apply differential over every delta version.
		applied := 0
		for i := 1; i < len(ids); i++ {
			cs, err := st.DeltaOps(ids[i])
			if err != nil {
				t.Fatal(err)
			}
			if cs.Materialized || cs.Base != ids[i-1] {
				continue
			}
			base, err := st.Checkout(ids[i-1])
			if err != nil {
				t.Fatal(err)
			}
			next, err := diff.ApplyChangeSet(base, cs)
			if err != nil {
				continue // non-canonical key texts: fallback contract, not a bug
			}
			want, err := st.Checkout(ids[i])
			if err != nil {
				t.Fatal(err)
			}
			if !next.Equal(want) {
				t.Fatalf("seed %d: ApplyChangeSet of version %d differs from its checkout", seed, i)
			}
			applied++
		}
		if applied == 0 {
			t.Fatalf("seed %d: no delta version applied; apply codec untested", seed)
		}
	}
}

// TestMaterializeChainIsParseFreeOnCanonicalChains pins the cold-walk win on
// canonical-text data (everything the serve path commits): one CSV parse at
// the chain root, every later version derived by verified delta application.
func TestMaterializeChainIsParseFreeOnCanonicalChains(t *testing.T) {
	st, err := store.OpenWith("", store.Options{AnchorEvery: 16, TableCache: 16})
	if err != nil {
		t.Fatal(err)
	}
	snaps, err := gen.Chain(gen.ChainConfig{N: 40, Steps: 5, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	parent := ""
	for _, snap := range snaps {
		v, err := st.Commit(snap, parent, "step")
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, v.ID)
		parent = v.ID
	}
	got, err := MaterializeChain(st, ids)
	if err != nil {
		t.Fatal(err)
	}
	if parses := st.Stats().Parses; parses != 1 {
		t.Errorf("cold canonical walk parsed %d versions, want 1 (root only)", parses)
	}
	// Verified applied tables were admitted into the table LRU, so a repeat
	// walk is all warm clone hits: no parsing, no re-application.
	hitsBefore := st.Stats().CacheHits
	again, err := MaterializeChain(st, ids)
	if err != nil {
		t.Fatal(err)
	}
	if parses := st.Stats().Parses; parses != 1 {
		t.Errorf("warm walk parsed %d more versions, want 0", parses-1)
	}
	if hits := st.Stats().CacheHits; hits < hitsBefore+int64(len(ids)) {
		t.Errorf("warm walk hit the table cache %d times, want ≥ %d (one per version)", hits-hitsBefore, len(ids))
	}
	for i, id := range ids {
		want, err := st.Checkout(id)
		if err != nil {
			t.Fatal(err)
		}
		if !got[i].Equal(want) {
			t.Fatalf("materialized version %d (%s) differs from its checkout", i, id)
		}
		if !again[i].Equal(want) {
			t.Fatalf("warm-walk version %d (%s) differs from its checkout", i, id)
		}
	}
}
