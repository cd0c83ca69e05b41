// Incremental timeline maintenance: instead of re-walking a version chain
// on every question, a TimelineMaintainer keeps the per-step engine results
// alive and extends them by exactly one step per commit — the "query
// answering under updates" idea (Berkholz/Keppeler/Schweikardt,
// arXiv:1702.08764) applied to change summarization. Extension work is
// O(one step) regardless of chain length, and the maintained MultiTimeline
// is bit-identical to a from-scratch SummarizeAll rebuild of the same
// chain: both paths run the same per-step function on the same pairs and
// merge with the same mergeSteps, and the engine's rankings do not depend
// on how many workers computed them.

package history

import (
	"context"
	"fmt"

	"charles/internal/core"
	"charles/internal/table"
)

// TimelineMaintainer incrementally maintains a MultiTimeline over a growing
// version chain. It is NOT safe for concurrent use; callers serialize
// access (the serve layer holds one per shard behind a mutex).
type TimelineMaintainer struct {
	base    core.Options
	memo    Memo
	ids     []string // version ids, root → head (len == len(results)+1)
	first   *table.Table
	last    *table.Table
	results []*core.MultiResult // one per consecutive pair
}

// NewTimelineMaintainer materializes the version ids through src (root →
// head, at least 2; delta-natively, as SummarizeChain does), summarizes the
// seed chain and returns a maintainer positioned at its head. Both the
// materialization and the seed's step pool observe ctx. Every engine run of
// the seed and of later extensions goes through memo (nil runs the engine
// directly). The snapshots are retained only at the endpoints: first (for
// schema-ordered merging) and last (the pair source for the next Extend).
func NewTimelineMaintainer(ctx context.Context, src CheckoutSource, ids []string, base core.Options, memo Memo) (*TimelineMaintainer, error) {
	if len(ids) < 2 {
		return nil, fmt.Errorf("history: need at least 2 versions, got %d", len(ids))
	}
	snapshots, err := materialize(ctx, src, ids)
	if err != nil {
		return nil, err
	}
	results, err := walk(ctx, snapshots, ids, base, memo)
	if err != nil {
		return nil, err
	}
	return &TimelineMaintainer{
		base:    base,
		memo:    memo,
		ids:     append([]string(nil), ids...),
		first:   snapshots[0],
		last:    snapshots[len(snapshots)-1],
		results: results,
	}, nil
}

// Head returns the version id the maintainer is currently positioned at.
func (m *TimelineMaintainer) Head() string { return m.ids[len(m.ids)-1] }

// Steps returns the number of maintained consecutive pairs.
func (m *TimelineMaintainer) Steps() int { return len(m.results) }

// Versions returns a copy of the maintained chain's ids, root → head.
func (m *TimelineMaintainer) Versions() []string {
	return append([]string(nil), m.ids...)
}

// Extend advances the maintainer by one commit: next is the new head
// snapshot (id its version id), and exactly one engine step — last pair
// only — runs. On error (most commonly a schema change, which diff.Align
// rejects) the maintainer is left unchanged so the caller can fall back to
// a full rebuild over the new chain.
func (m *TimelineMaintainer) Extend(id string, next *table.Table) error {
	res, err := summarizeStep(m.last, next, m.Head(), id, m.base, m.memo)
	if err != nil {
		return fmt.Errorf("history: extend %s→%s: %w", m.Head(), id, err)
	}
	m.ids = append(m.ids, id)
	m.results = append(m.results, res)
	m.last = next
	return nil
}

// ExtendFromSource is Extend with the new head materialized through src:
// delta-natively against the maintainer's retained head snapshot when src
// serves delta ops, falling back to a checkout. The maintainer must
// currently be positioned at the new version's parent.
func (m *TimelineMaintainer) ExtendFromSource(src CheckoutSource, id string) error {
	next, err := materializeStep(src, m.Head(), m.last, id)
	if err != nil {
		return err
	}
	return m.Extend(id, next)
}

// Timeline assembles the maintained MultiTimeline. The assembly is the same
// mergeSteps that SummarizeAll uses, over the same per-step results, so the
// output is bit-identical to a from-scratch rebuild of the same chain.
func (m *TimelineMaintainer) Timeline() *MultiTimeline {
	return mergeSteps(m.first, m.results, m.base.Target)
}

// TimelineAt assembles the MultiTimeline for a prefix of the maintained
// chain ending at id, along with that prefix's version ids. It lets a
// reader race a concurrent commit and still get a consistent answer for the
// head it resolved. ok is false when id is not in the chain or is the root
// (a single version has no timeline).
func (m *TimelineMaintainer) TimelineAt(id string) (*MultiTimeline, []string, bool) {
	for i, cur := range m.ids {
		if cur == id {
			if i == 0 {
				return nil, nil, false
			}
			return mergeSteps(m.first, m.results[:i], m.base.Target), append([]string(nil), m.ids[:i+1]...), true
		}
	}
	return nil, nil, false
}

// Fork returns an independent maintainer sharing the immutable per-step
// results but with private id/result slices, so benchmarks (and speculative
// extensions) can Extend without mutating the original.
func (m *TimelineMaintainer) Fork() *TimelineMaintainer {
	return &TimelineMaintainer{
		base:    m.base,
		memo:    m.memo,
		ids:     append([]string(nil), m.ids...),
		first:   m.first,
		last:    m.last,
		results: append([]*core.MultiResult(nil), m.results...),
	}
}
