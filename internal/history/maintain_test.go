package history

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"charles/internal/core"
	"charles/internal/gen"
	"charles/internal/store"
	"charles/internal/table"
)

// maintainBase is the option set every maintainer test runs under: the
// engine defaults, with Workers left to the caller. The engine's rankings
// do not depend on its worker count, so maintained and rebuilt timelines
// compare bit-for-bit whatever each side ran at.
func maintainBase() core.Options {
	return core.DefaultOptions("")
}

// renderFull serializes every bit of a MultiTimeline the engine produces —
// per-attribute step sequences, full rankings with breakdowns, CT order,
// provenance, and the skipped set — into one deterministic string. Timeline
// equality is compared on these renderings rather than reflect.DeepEqual
// because summaries can legitimately contain NaN constants (a condition
// group empty on one side), and DeepEqual's NaN != NaN would report two
// bit-identical timelines as different.
func renderFull(mt *MultiTimeline) string {
	var b strings.Builder
	fmt.Fprintf(&b, "attrs=%v steps=%d\n", mt.Attrs, mt.Steps)
	for _, k := range sortedKeys(mt.Skipped) {
		fmt.Fprintf(&b, "skip %s=%s\n", k, mt.Skipped[k])
	}
	for _, attr := range mt.Attrs {
		tl := mt.Timelines[attr]
		fmt.Fprintf(&b, "== %s (%s)\n", attr, tl.Target)
		for _, s := range tl.Steps {
			fmt.Fprintf(&b, "step %d->%d nochange=%v\n", s.From, s.To, s.NoChange)
			for _, r := range s.Ranked {
				fmt.Fprintf(&b, " r nochange=%v breakdown=%+v target=%s cond=%v tran=%v cts=",
					r.NoChange, *r.Breakdown, r.Summary.Target, r.Summary.CondAttrs, r.Summary.TranAttrs)
				for _, ct := range r.Summary.CTs {
					fmt.Fprintf(&b, "[%v]", ct)
				}
				b.WriteByte('\n')
			}
		}
	}
	return b.String()
}

// equalTimelines reports bit-identical timelines (NaN-tolerant; see
// renderFull).
func equalTimelines(a, b *MultiTimeline) bool {
	return renderFull(a) == renderFull(b)
}

// commitMutateChain commits a MutateChain-derived lineage into a fresh
// memory store and returns the store, the ids (root → head), and the
// canonical (store-materialized) snapshots. The engine's Align requires a
// fixed entity set, so each fuzz snapshot is projected onto the chain-wide
// common key set — MutateChain's adversarial cell edits survive; its row
// churn (which the engine rejects by contract) does not. A projected
// snapshot that dedups to an earlier version is skipped rather than
// committed (content addressing would report a lineage conflict).
func commitMutateChain(t *testing.T, cfg gen.FuzzConfig) (*store.Store, []string, []*table.Table) {
	t.Helper()
	snaps, err := gen.MutateChain(cfg)
	if err != nil {
		t.Fatal(err)
	}
	common := map[string]int{}
	for _, snap := range snaps {
		for r := 0; r < snap.NumRows(); r++ {
			k, err := snap.KeyOf(r)
			if err != nil {
				t.Fatal(err)
			}
			common[k]++
		}
	}
	st, err := store.OpenWith("", store.Options{AnchorEvery: 4, TableCache: 64})
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	parent := ""
	for _, snap := range snaps {
		keep := make([]bool, snap.NumRows())
		for r := range keep {
			k, err := snap.KeyOf(r)
			if err != nil {
				t.Fatal(err)
			}
			keep[r] = common[k] == len(snaps)
		}
		proj, err := snap.Filter(keep)
		if err != nil {
			t.Fatal(err)
		}
		if err := proj.SetKey("id"); err != nil {
			t.Fatal(err)
		}
		v, err := st.Commit(proj, parent, "step")
		if errors.Is(err, store.ErrLineageConflict) {
			continue // projection erased this step's visible change
		}
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, v.ID)
		parent = v.ID
	}
	if len(ids) < 3 {
		t.Fatalf("projected chain too short: %d versions", len(ids))
	}
	mats, err := MaterializeChain(st, ids)
	if err != nil {
		t.Fatal(err)
	}
	return st, ids, mats
}

// TestTimelineMaintainerDifferential is the incremental-vs-rebuild
// acceptance differential: across 5 MutateChain seeds, a maintainer seeded
// on the 2-version prefix and extended one commit at a time must produce,
// at every prefix length, a MultiTimeline bit-identical to a from-scratch
// SummarizeAll over the same snapshots.
func TestTimelineMaintainerDifferential(t *testing.T) {
	for _, workers := range []int{0, 1} {
		base := maintainBase()
		base.Workers = workers
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			maintainerDifferential(t, base)
		})
	}
}

func maintainerDifferential(t *testing.T, base core.Options) {
	for seed := int64(1); seed <= 5; seed++ {
		st, ids, mats := commitMutateChain(t, gen.FuzzConfig{N: 20, Steps: 5, Seed: seed})
		m, err := NewTimelineMaintainer(mats[:2], ids[:2], base, nil)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for k := 2; k <= len(ids); k++ {
			if k > 2 {
				if err := m.ExtendFromSource(st, ids[k-1]); err != nil {
					t.Fatalf("seed %d: extend to %s: %v", seed, ids[k-1], err)
				}
			}
			want, err := SummarizeAll(mats[:k], base)
			if err != nil {
				t.Fatalf("seed %d: rebuild at %d: %v", seed, k, err)
			}
			if got := m.Timeline(); !equalTimelines(got, want) {
				t.Fatalf("seed %d: maintained timeline at %d versions differs from SummarizeAll rebuild", seed, k)
			}
			if m.Head() != ids[k-1] || m.Steps() != k-1 {
				t.Fatalf("seed %d: head=%s steps=%d, want %s/%d", seed, m.Head(), m.Steps(), ids[k-1], k-1)
			}
		}
	}
}

// TestTimelineMaintainerOneStep pins the maintainer against rebuilds that
// run the engine at other worker counts: a 1-step SummarizeAll with Workers
// unset gives its one engine pass every core, and the maintainer's seed
// must match it bit for bit — as must an extension, whose one new pair also
// runs at full width, against the 2-step rebuild (single-threaded engine
// runs on the step pool).
// gen.Chain has no NaN constants, so whole structures compare with
// reflect.DeepEqual: a differing zero-coefficient feature or provenance
// shows even where the rendering would not.
func TestTimelineMaintainerOneStep(t *testing.T) {
	base := maintainBase()
	for _, n := range []int{60, 100} {
		for seed := int64(1); seed <= 4; seed++ {
			snaps, err := gen.Chain(gen.ChainConfig{N: n, Steps: 2, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			ids := []string{"v0", "v1", "v2"}
			m, err := NewTimelineMaintainer(snaps[:2], ids[:2], base, nil)
			if err != nil {
				t.Fatal(err)
			}
			want, err := SummarizeAll(snaps[:2], base)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(m.Timeline(), want) {
				t.Fatalf("n=%d seed=%d: 1-step maintainer differs from SummarizeAll", n, seed)
			}
			if err := m.Extend(ids[2], snaps[2]); err != nil {
				t.Fatal(err)
			}
			if want, err = SummarizeAll(snaps, base); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(m.Timeline(), want) {
				t.Fatalf("n=%d seed=%d: extended maintainer differs from SummarizeAll", n, seed)
			}
		}
	}
}

// TestTimelineMaintainerPrefixAnswers pins TimelineAt: a prefix answer must
// equal the rebuild of that prefix, the root has no timeline, and unknown
// ids report !ok.
func TestTimelineMaintainerPrefixAnswers(t *testing.T) {
	for _, workers := range []int{0, 1} {
		base := maintainBase()
		base.Workers = workers
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			maintainerPrefixAnswers(t, base)
		})
	}
}

func maintainerPrefixAnswers(t *testing.T, base core.Options) {
	_, ids, mats := commitMutateChain(t, gen.FuzzConfig{N: 15, Steps: 4, Seed: 7})
	m, err := NewTimelineMaintainer(mats, ids, base, nil)
	if err != nil {
		t.Fatal(err)
	}
	for k := 2; k <= len(ids); k++ {
		got, gotIDs, ok := m.TimelineAt(ids[k-1])
		if !ok {
			t.Fatalf("TimelineAt(%s) not ok", ids[k-1])
		}
		if !reflect.DeepEqual(gotIDs, ids[:k]) {
			t.Fatalf("TimelineAt(%s) ids = %v, want %v", ids[k-1], gotIDs, ids[:k])
		}
		want, err := SummarizeAll(mats[:k], base)
		if err != nil {
			t.Fatal(err)
		}
		if !equalTimelines(got, want) {
			t.Fatalf("TimelineAt(%s) differs from rebuild of the %d-version prefix", ids[k-1], k)
		}
	}
	if _, _, ok := m.TimelineAt(ids[0]); ok {
		t.Error("root version reported a timeline")
	}
	if _, _, ok := m.TimelineAt("nope"); ok {
		t.Error("unknown id reported a timeline")
	}
}

// TestTimelineMaintainerSchemaChangeFallback pins the rebuild-fallback
// contract: extending across a schema change fails, leaves the maintainer
// unchanged, and a fresh maintainer over the new-schema suffix matches the
// from-scratch rebuild of that suffix.
func TestTimelineMaintainerSchemaChangeFallback(t *testing.T) {
	base := maintainBase()
	st, ids, mats := commitMutateChain(t, gen.FuzzConfig{N: 15, Steps: 3, Seed: 9})
	m, err := NewTimelineMaintainer(mats, ids, base, nil)
	if err != nil {
		t.Fatal(err)
	}
	before := m.Timeline()

	// Commit a snapshot with a different schema (the toy dataset) as a
	// child of the current head — the store accepts it (full pack), but
	// Align cannot pair the schemas, so the incremental extend must fail.
	d1, d2 := gen.Toy()
	v1, err := st.Commit(d1, ids[len(ids)-1], "schema change")
	if err != nil {
		t.Fatal(err)
	}
	if err := m.ExtendFromSource(st, v1.ID); err == nil {
		t.Fatal("extend across a schema change succeeded, want error")
	} else if !strings.Contains(err.Error(), "extend") {
		t.Fatalf("extend error = %v, want the extend step named", err)
	}
	if m.Head() != ids[len(ids)-1] || m.Steps() != len(ids)-1 {
		t.Fatalf("failed extend mutated the maintainer: head=%s steps=%d", m.Head(), m.Steps())
	}
	if !equalTimelines(m.Timeline(), before) {
		t.Fatal("failed extend changed the maintained timeline")
	}

	// The fallback path: rebuild over the consistent new-schema suffix.
	v2, err := st.Commit(d2, v1.ID, "toy policy applied")
	if err != nil {
		t.Fatal(err)
	}
	sufIDs := []string{v1.ID, v2.ID}
	suf, err := MaterializeChain(st, sufIDs)
	if err != nil {
		t.Fatal(err)
	}
	rebuilt, err := NewTimelineMaintainer(suf, sufIDs, base, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := SummarizeAll(suf, base)
	if err != nil {
		t.Fatal(err)
	}
	if !equalTimelines(rebuilt.Timeline(), want) {
		t.Fatal("rebuilt maintainer differs from SummarizeAll over the new-schema suffix")
	}
	if rebuilt.Head() != v2.ID {
		t.Fatalf("rebuilt head = %s, want %s", rebuilt.Head(), v2.ID)
	}
}

// TestTimelineMaintainerForkIsolation pins Fork: extending a fork leaves
// the original untouched.
func TestTimelineMaintainerForkIsolation(t *testing.T) {
	base := maintainBase()
	st, ids, mats := commitMutateChain(t, gen.FuzzConfig{N: 15, Steps: 4, Seed: 11})
	m, err := NewTimelineMaintainer(mats[:len(mats)-1], ids[:len(ids)-1], base, nil)
	if err != nil {
		t.Fatal(err)
	}
	before := m.Timeline()
	f := m.Fork()
	if err := f.ExtendFromSource(st, ids[len(ids)-1]); err != nil {
		t.Fatal(err)
	}
	if f.Head() != ids[len(ids)-1] || m.Head() == f.Head() {
		t.Fatalf("fork head = %s, original head = %s", f.Head(), m.Head())
	}
	if !equalTimelines(m.Timeline(), before) {
		t.Fatal("extending the fork mutated the original maintainer")
	}
}

// TestTimelineMaintainerValidation pins the constructor's input contract.
func TestTimelineMaintainerValidation(t *testing.T) {
	base := maintainBase()
	d1, d2 := gen.Toy()
	if _, err := NewTimelineMaintainer([]*table.Table{d1, d2}, []string{"only-one"}, base, nil); err == nil {
		t.Error("mismatched snapshots/ids accepted")
	}
	if _, err := NewTimelineMaintainer([]*table.Table{d1}, []string{"a"}, base, nil); err == nil {
		t.Error("single-snapshot seed accepted")
	}
}
