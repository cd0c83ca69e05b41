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

// timelineStepJSON is one consecutive version pair of one target's timeline.
type timelineStepJSON struct {
	From     string       `json:"from"`
	To       string       `json:"to"`
	NoChange bool         `json:"noChange,omitempty"`
	Cached   bool         `json:"cached,omitempty"`
	Ranked   []RankedJSON `json:"ranked,omitempty"`
}

// driftJSON mirrors history.Drift.
type driftJSON struct {
	StepA            int    `json:"stepA"`
	StepB            int    `json:"stepB"`
	SamePartitioning bool   `json:"samePartitioning"`
	Note             string `json:"note"`
}

// timelineTargetJSON is one attribute's summarized evolution.
type timelineTargetJSON struct {
	Target string             `json:"target"`
	Steps  []timelineStepJSON `json:"steps"`
	Drifts []driftJSON        `json:"drifts,omitempty"`
}

// timelineResponse is the POST /timeline body. Live reports the answer was
// assembled from the commit-maintained timeline (head-relative all-default
// requests; see live.go) rather than a request-time chain walk; Cached
// reports a live answer served whole from the memo for the same head.
type timelineResponse struct {
	Head     string               `json:"head"`
	Versions []string             `json:"versions"` // root → head
	Steps    int                  `json:"steps"`
	Live     bool                 `json:"live,omitempty"`
	Cached   bool                 `json:"cached,omitempty"`
	Targets  []timelineTargetJSON `json:"targets"`
	Skipped  map[string]string    `json:"skipped,omitempty"`
}

// handleTimeline summarizes the store lineage root → head. The
// head-relative all-defaults question is answered from the live maintained
// timeline (see live.go); an explicit head, target or tuning field walks
// the chain through history.SummarizeChainContext with every engine run
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
	var hits sync.Map // from|to|target of every run the LRU answered
	mt, err := history.SummarizeChainContext(r.Context(), sh.st, ids, base, s.stepMemo(sh.cacheKeyPrefix(), &hits))
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, encodeTimeline(ids, mt, func(from, to, target string) bool {
		_, ok := hits.Load(from + "|" + to + "|" + target)
		return ok
	}))
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
// results, and stepHook runs on every miss. hits, when non-nil, records
// from|to|target for each run the LRU answered.
func (s *Server) stepMemo(prefix string, hits *sync.Map) history.Memo {
	return func(from, to string, opts core.Options, run func() ([]core.Ranked, error)) ([]core.Ranked, error) {
		val, hit, err := s.cache.Do(prefix+from+"|"+to+"|"+opts.Fingerprint(), func() (any, error) {
			if s.stepHook != nil {
				s.stepHook()
			}
			return run()
		})
		if err != nil {
			return nil, err
		}
		if hit && hits != nil {
			hits.Store(from+"|"+to+"|"+opts.Target, true)
		}
		return val.([]core.Ranked), nil
	}
}

// encodeTimeline renders a MultiTimeline over the version ids as the wire
// timelineResponse, one target per summarized attribute with its per-step
// rankings and drift notes. cached, when non-nil, sets each step's cached
// flag.
func encodeTimeline(ids []string, mt *history.MultiTimeline, cached func(from, to, target string) bool) timelineResponse {
	resp := timelineResponse{
		Head: ids[len(ids)-1], Versions: ids, Steps: mt.Steps, Skipped: mt.Skipped,
	}
	for _, attr := range mt.Attrs {
		tl := mt.Timelines[attr]
		tj := timelineTargetJSON{Target: attr}
		for _, hs := range tl.Steps {
			sj := timelineStepJSON{
				From: ids[hs.From], To: ids[hs.To],
				NoChange: hs.NoChange, Ranked: EncodeRanked(hs.Ranked),
			}
			if cached != nil {
				sj.Cached = cached(sj.From, sj.To, attr)
			}
			tj.Steps = append(tj.Steps, sj)
		}
		for _, d := range tl.Drifts() {
			tj.Drifts = append(tj.Drifts, driftJSON{
				StepA: d.StepA, StepB: d.StepB,
				SamePartitioning: d.SamePartitioning,
				Note:             d.Note,
			})
		}
		resp.Targets = append(resp.Targets, tj)
	}
	return resp
}
