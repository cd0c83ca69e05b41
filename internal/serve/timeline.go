package serve

import (
	"errors"
	"io"
	"net/http"
	"sync"

	"charles/internal/core"
	"charles/internal/history"
	"charles/internal/store"
)

// timelineRequest is the POST /timeline body. Head defaults to the most
// recently committed version; with no Target every changed numeric attribute
// of every step is summarized. Tuning fields mirror POST /summarize.
type timelineRequest struct {
	Head   string   `json:"head,omitempty"`
	Target string   `json:"target,omitempty"`
	Alpha  *float64 `json:"alpha,omitempty"`
	C      *int     `json:"c,omitempty"`
	T      *int     `json:"t,omitempty"`
	TopK   *int     `json:"topk,omitempty"`
}

// handleTimeline summarizes the store lineage root → head. The
// head-relative all-defaults question is answered from the live maintained
// timeline (see live.go); an explicit head, target or tuning field walks
// the chain through history.SummarizeChain with every engine run
// memoized in the result LRU under the same (from, to,
// options-fingerprint) key POST /summarize uses, so a walk warms the pair
// cache and vice versa, and identical in-flight work collapses to one
// execution. A step's cached flag reports that the LRU answered it.
func (s *Server) handleTimeline(sh *shardRef, w http.ResponseWriter, r *http.Request) {
	var req timelineRequest
	// Every field is optional, so an absent body is the all-defaults
	// request, not an error.
	if err := decodeJSON(r, &req); err != nil && !errors.Is(err, io.EOF) {
		writeError(w, err)
		return
	}
	if req.Head == "" && req.Target == "" &&
		req.Alpha == nil && req.C == nil && req.T == nil && req.TopK == nil {
		s.handleLiveTimeline(sh, w, r)
		return
	}
	head := req.Head
	if head == "" {
		hv, err := sh.st.Head()
		if err != nil {
			writeError(w, err)
			return
		}
		head = hv.ID
	}
	ids, err := chainIDs(sh.st, head)
	if err != nil {
		writeError(w, err)
		return
	}
	base := core.DefaultOptions(req.Target)
	if req.Alpha != nil {
		base.Alpha = *req.Alpha
	}
	if req.C != nil {
		base.C = *req.C
	}
	if req.T != nil {
		base.T = *req.T
	}
	if req.TopK != nil {
		base.TopK = *req.TopK
	}
	idx := new(stepIndex)
	mt, err := history.SummarizeChain(r.Context(), sh.st, ids, base, s.stepMemo(sh.cacheKeyPrefix(), idx))
	if err != nil {
		writeError(w, err)
		return
	}
	tb := newTimelineBody(ids, mt, idx, true)
	writeTimeline(w, &tb)
}

// chainIDs resolves head's lineage to its version ids, root → head; a
// lineage too short to have a step is an error.
func chainIDs(st *store.Store, head string) ([]string, error) {
	chain, err := st.Chain(head)
	if err != nil {
		return nil, err
	}
	if len(chain) < 2 {
		return nil, errTimelineTooShort
	}
	ids := make([]string, len(chain))
	for i, v := range chain {
		ids[i] = v.ID
	}
	return ids, nil
}

// stepMemo backs timeline walks and live maintainers with the result LRU:
// each (from, to, options) engine run is cached under prefix plus the key
// POST /summarize uses, so walks, maintainers and pair questions share
// results, and stepHook runs on every miss. Every result the memo returns
// is recorded in idx, with whether the LRU answered it.
func (s *Server) stepMemo(prefix string, idx *stepIndex) history.Memo {
	return func(from, to string, opts core.Options, run func() ([]core.Ranked, error)) ([]core.Ranked, error) {
		val, hit, err := s.cache.Do(prefix+from+"|"+to+"|"+opts.Fingerprint(), func() (any, error) {
			if s.stepHook != nil {
				s.stepHook()
			}
			ranked, err := run()
			if err != nil {
				return nil, err
			}
			return &stepResult{ranked: ranked}, nil
		})
		if err != nil {
			return nil, err
		}
		res := val.(*stepResult)
		idx.store(from, to, opts.Target, stepRef{res: res, hit: hit})
		return res.ranked, nil
	}
}

// stepIndex records the step results one walk or one live maintainer got
// from its memo, so the timeline writer can find each step's wire bytes.
// Step runs record concurrently.
type stepIndex struct{ m sync.Map } // from|to|target → stepRef

func (x *stepIndex) store(from, to, target string, ref stepRef) {
	x.m.Store(from+"|"+to+"|"+target, ref)
}

func (x *stepIndex) load(from, to, target string) (stepRef, bool) {
	v, ok := x.m.Load(from + "|" + to + "|" + target)
	if !ok {
		return stepRef{}, false
	}
	return v.(stepRef), true
}

// stepRef is one recorded step result; hit reports that the LRU answered
// it.
type stepRef struct {
	res *stepResult
	hit bool
}

// timelineBody is a POST /timeline answer ready to write: the small glue
// fields, and for every step the wire bytes of its "ranked" array, shared
// with every other answer that includes the step.
type timelineBody struct {
	head     string
	versions []string // root → head
	steps    int
	// live reports the answer was assembled from the commit-maintained
	// timeline (head-relative all-default requests; see live.go) rather
	// than a request-time chain walk; cached reports a live answer served
	// from the memo for the same head.
	live, cached bool
	targets      []timelineTarget
	skipped      map[string]string
	err          error // a step's ranking could not be encoded
}

// timelineTarget is one attribute's summarized evolution.
type timelineTarget struct {
	name   string
	steps  []timelineStep
	drifts []history.Drift
}

// timelineStep is one consecutive version pair of one target's timeline.
// ranked is the step's encoded "ranked" array, nil when it has none.
type timelineStep struct {
	from, to         string
	noChange, cached bool
	ranked           []byte
}

// newTimelineBody assembles the answer for mt over the version ids, one
// target per summarized attribute with its steps and drift notes. Each
// step's ranking is written from the stepResult idx recorded for it, so it
// is encoded at most once however many answers include it. stepCached sets
// each step's cached flag from whether the LRU answered its run.
func newTimelineBody(ids []string, mt *history.MultiTimeline, idx *stepIndex, stepCached bool) timelineBody {
	tb := timelineBody{head: ids[len(ids)-1], versions: ids, steps: mt.Steps, skipped: mt.Skipped}
	for _, attr := range mt.Attrs {
		tl := mt.Timelines[attr]
		tt := timelineTarget{name: attr, steps: make([]timelineStep, len(tl.Steps)), drifts: tl.Drifts()}
		for i, hs := range tl.Steps {
			st := timelineStep{from: ids[hs.From], to: ids[hs.To], noChange: hs.NoChange}
			if ref, ok := idx.load(st.from, st.to, attr); ok {
				st.cached = stepCached && ref.hit
				if len(hs.Ranked) > 0 {
					var err error
					if st.ranked, err = ref.res.wireRanked(); err != nil {
						tb.err = err
					}
				}
			}
			tt.steps[i] = st
		}
		tb.targets = append(tb.targets, tt)
	}
	return tb
}
