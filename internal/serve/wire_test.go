package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"charles/internal/core"
	"charles/internal/gen"
	"charles/internal/history"
	"charles/internal/store"
	"charles/internal/table"
)

// The POST /timeline wire struct as the server built it before answers were
// assembled from per-step bytes. Tests decode bodies into it, and
// referenceBody encodes it the way writeJSON does, as the reference the
// hand-assembled body must equal byte for byte.

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

// timelineResponse is the POST /timeline body.
type timelineResponse struct {
	Head     string               `json:"head"`
	Versions []string             `json:"versions"` // root → head
	Steps    int                  `json:"steps"`
	Live     bool                 `json:"live,omitempty"`
	Cached   bool                 `json:"cached,omitempty"`
	Targets  []timelineTargetJSON `json:"targets"`
	Skipped  map[string]string    `json:"skipped,omitempty"`
}

// referenceBody encodes v as writeJSON does: json.Encoder with two-space
// indentation.
func referenceBody(t testing.TB, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// referenceTimeline builds the wire struct for mt over ids the way the
// server did before per-step bytes: every step through EncodeRanked, and
// cached (when non-nil) giving each step's cached flag.
func referenceTimeline(ids []string, mt *history.MultiTimeline, cached func(from, to, target string) bool) timelineResponse {
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

// memSource serves in-memory snapshots by version id, so reference
// timelines are computed from the generated tables, not the server's store.
type memSource map[string]*table.Table

// snapSource maps ids[i] to snaps[i].
func snapSource(ids []string, snaps []*table.Table) memSource {
	src := memSource{}
	for i, id := range ids {
		src[id] = snaps[i]
	}
	return src
}

func (m memSource) Checkout(id string) (*table.Table, error) {
	if t, ok := m[id]; ok {
		return t, nil
	}
	return nil, fmt.Errorf("unknown version %s", id)
}

// ranEngine reports whether a walk ran (or looked up) the engine for an
// attribute's step: a step the attribute did not change in has neither a
// ranking nor a memo entry.
func ranEngine(s history.Step) bool { return len(s.Ranked) > 0 || !s.NoChange }

// TestTimelineWireMatchesReference is the byte-identity differential test
// of the timeline writer: over a 12-step chain, every live answer (each
// head, asked twice) and a sequence of explicit-head walks with head,
// target and tuning fields — some of whose steps are already in the LRU and
// some not — must equal the reference encoder's output of a timeline
// computed without the server, cached flags included, and /summarize must
// answer the keys the walks share exactly as before.
func TestTimelineWireMatchesReference(t *testing.T) {
	snaps, err := gen.Chain(gen.ChainConfig{N: 60, Steps: 12, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.Open("")
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewServer(st, 4096))
	t.Cleanup(ts.Close)

	type walkKey struct {
		from, to string
		opts     string // options fingerprint
	}
	warm := map[walkKey]bool{} // every engine run the LRU holds
	// refTimeline computes the reference timeline for head ids[k] with
	// base options, without the server: one maintainer per option set,
	// extended as the chain grows.
	refs := map[string]*history.TimelineMaintainer{}
	var ids []string
	refTimeline := func(k int, base core.Options) (*history.MultiTimeline, []string) {
		t.Helper()
		fp := base.Fingerprint()
		m, ok := refs[fp]
		if !ok {
			if m, err = history.NewTimelineMaintainer(context.Background(), snapSource(ids, snaps), ids, base, nil); err != nil {
				t.Fatal(err)
			}
			refs[fp] = m
		}
		for j := m.Steps() + 1; j < len(ids); j++ {
			if err := m.Extend(ids[j], snaps[j]); err != nil {
				t.Fatal(err)
			}
		}
		mt, prefix, ok := m.TimelineAt(ids[k])
		if !ok {
			t.Fatalf("no reference timeline at head %d", k)
		}
		return mt, prefix
	}
	bodies := 0
	check := func(what string, got, want []byte) {
		t.Helper()
		bodies++
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: body differs from the reference encoder\n got: %.300s\nwant: %.300s", what, got, want)
		}
	}
	// record marks every engine run of mt (walked with base) as warm and
	// returns the cached predicate the walk's answer must show: warm
	// before the walk.
	record := func(mt *history.MultiTimeline, prefix []string, base core.Options) func(from, to, target string) bool {
		before := map[walkKey]bool{}
		for k, v := range warm {
			before[k] = v
		}
		for _, attr := range mt.Attrs {
			for _, s := range mt.Timelines[attr].Steps {
				if ranEngine(s) {
					o := base
					o.Target = attr
					warm[walkKey{prefix[s.From], prefix[s.To], o.Fingerprint()}] = true
				}
			}
		}
		return func(from, to, target string) bool {
			o := base
			o.Target = target
			return before[walkKey{from, to, o.Fingerprint()}]
		}
	}

	// Live answers at every head, each asked twice: the first assembled,
	// the second served from the head memo.
	parent := ""
	for k := range snaps {
		v := commitOne(t, ts.URL, snaps[k], parent)
		parent = v.ID
		ids = append(ids, v.ID)
		if k == 0 {
			continue
		}
		mt, prefix := refTimeline(k, core.DefaultOptions(""))
		record(mt, prefix, core.DefaultOptions(""))
		for rep := 0; rep < 2; rep++ {
			resp, body := postJSON(t, ts.URL+"/timeline", timelineRequest{})
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("live head %d: status %d: %s", k, resp.StatusCode, body)
			}
			want := referenceTimeline(prefix, mt, nil)
			want.Live, want.Cached = true, rep == 1
			check(fmt.Sprintf("live head %d request %d", k, rep+1), body, referenceBody(t, want))
		}
	}

	// Explicit walks. A tuning field starts a new set of LRU keys, so a walk
	// to a later head finds the earlier walk's steps cached and the rest
	// not; head-only walks find every step warm from the live answers.
	f := func(x float64) *float64 { return &x }
	n := func(x int) *int { return &x }
	walks := []struct {
		k   int // head index; 0 leaves head out (the latest version)
		req timelineRequest
	}{
		{6, timelineRequest{Alpha: f(0.6)}},
		{12, timelineRequest{Alpha: f(0.6)}},
		{9, timelineRequest{}},
		{0, timelineRequest{Target: "salary", C: n(1)}},
		{4, timelineRequest{Target: "bonus", TopK: n(2)}},
		{0, timelineRequest{Target: "bonus", TopK: n(2), T: n(1)}},
		{8, timelineRequest{Target: "bonus", TopK: n(2)}},
		{12, timelineRequest{Alpha: f(0.6)}},
	}
	for _, w := range walks {
		k, req := len(ids)-1, w.req
		if w.k > 0 {
			k, req.Head = w.k, ids[w.k]
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
		mt, prefix := refTimeline(k, base)
		cached := record(mt, prefix, base)
		resp, body := postJSON(t, ts.URL+"/timeline", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("walk %+v: status %d: %s", req, resp.StatusCode, body)
		}
		check(fmt.Sprintf("walk head %d target %q", k, req.Target), body, referenceBody(t, referenceTimeline(prefix, mt, cached)))
	}

	// /summarize shares the walks' keys: an already-walked pair is a hit
	// with the walk's ranking.
	for _, q := range []struct {
		k      int
		target string
		alpha  *float64
	}{{3, "salary", nil}, {10, "bonus", nil}, {7, "bonus", f(0.6)}} {
		opts := core.DefaultOptions(q.target)
		if q.alpha != nil {
			opts.Alpha = *q.alpha
		}
		base := opts
		base.Target = ""
		mt, _ := refTimeline(len(ids)-1, base)
		resp, body := postJSON(t, ts.URL+"/summarize", summarizeRequest{
			From: ids[q.k-1], To: ids[q.k], Target: q.target, Alpha: q.alpha,
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("summarize %d %s: status %d: %s", q.k, q.target, resp.StatusCode, body)
		}
		check(fmt.Sprintf("summarize step %d %s", q.k, q.target), body, referenceBody(t, summarizeResponse{
			From: ids[q.k-1], To: ids[q.k], Target: q.target,
			OptionsFingerprint: opts.Fingerprint(),
			Cached:             true,
			Ranked:             EncodeRanked(mt.Timelines[q.target].Steps[q.k-1].Ranked),
		}))
	}

	// A branch off version 10 rebuilds the live maintainer from the LRU,
	// so its older steps are hits there; a live answer still shows no
	// per-step cached flag.
	branch := snaps[11].Clone()
	if err := branch.MustColumn("salary").Set(0, table.F(branch.MustColumn("salary").Float(0)+1)); err != nil {
		t.Fatal(err)
	}
	v := commitOne(t, ts.URL, branch, ids[10])
	branchIDs := append(append([]string(nil), ids[:11]...), v.ID)
	branchSnaps := append(append([]*table.Table(nil), snaps[:11]...), branch)
	m, err := history.NewTimelineMaintainer(context.Background(), snapSource(branchIDs, branchSnaps), branchIDs, core.DefaultOptions(""), nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, body := postJSON(t, ts.URL+"/timeline", timelineRequest{})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("branch head: status %d: %s", resp.StatusCode, body)
	}
	want := referenceTimeline(branchIDs, m.Timeline(), nil)
	want.Live = true
	check("live branch head", body, referenceBody(t, want))
	t.Logf("%d bodies byte-identical to the reference encoder", bodies)
}

// TestTimelineWireConcurrentAnswers asks for the same steps from several
// goroutines at once — cold live answers for one head and explicit walks
// with fresh options — so first encodings of shared step results race.
// Which request finds a step cached depends on scheduling, so each body is
// checked as bytes against the reference encoding of its own decoded form
// and, cached flags cleared, against the reference timeline.
func TestTimelineWireConcurrentAnswers(t *testing.T) {
	snaps, err := gen.Chain(gen.ChainConfig{N: 40, Steps: 3, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t)
	var ids []string
	parent := ""
	for _, s := range snaps {
		v := commitOne(t, ts.URL, s, parent)
		parent = v.ID
		ids = append(ids, v.ID)
	}
	alpha := 0.7
	reqs := []timelineRequest{{}, {Head: ids[3], Alpha: &alpha}}
	wants := make([][]byte, len(reqs))
	for i, req := range reqs {
		base := core.DefaultOptions("")
		if req.Alpha != nil {
			base.Alpha = *req.Alpha
		}
		mt, err := history.SummarizeAll(snaps, base)
		if err != nil {
			t.Fatal(err)
		}
		want := referenceTimeline(ids, mt, nil)
		want.Live = req.Head == ""
		wants[i] = referenceBody(t, want)
	}
	const workers = 6
	bodies := make([][]byte, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			data, _ := json.Marshal(reqs[w%len(reqs)])
			resp, err := http.Post(ts.URL+"/timeline", "application/json", bytes.NewReader(data))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			if bodies[w], err = io.ReadAll(resp.Body); err != nil {
				t.Error(err)
			}
		}(w)
	}
	wg.Wait()
	for w, body := range bodies {
		var tr timelineResponse
		if err := json.Unmarshal(body, &tr); err != nil {
			t.Fatalf("worker %d: %v: %s", w, err, body)
		}
		if got := referenceBody(t, tr); !bytes.Equal(body, got) {
			t.Fatalf("worker %d: body is not the reference encoding of its content", w)
		}
		tr.Cached = false
		for i := range tr.Targets {
			for j := range tr.Targets[i].Steps {
				tr.Targets[i].Steps[j].Cached = false
			}
		}
		if got := referenceBody(t, tr); !bytes.Equal(got, wants[w%len(reqs)]) {
			t.Fatalf("worker %d: timeline differs from the reference", w)
		}
	}
}

// TestTimelineWireSkipped covers the skipped map: a lineage whose
// categorical column changes answers, live and walked, with the reference
// encoder's bytes.
func TestTimelineWireSkipped(t *testing.T) {
	_, ts := newTestServer(t)
	var ids []string
	parent := ""
	for _, csv := range []string{
		"name,dept,city,salary\na,eng,<oslo>,100\nb,ops,bergen,200\nc,eng,oslo,300\n",
		"name,dept,city,salary\na,eng,\"oslo & co\",110\nb,ops,bergen,200\nc,hr,oslo,330\n",
		"name,dept,city,salary\na,eng,\"oslo & co\",121\nb,ops,bergen,220\nc,hr,tromsø,363\n",
	} {
		v := commit(t, ts.URL, csv, parent, "skip")
		parent = v.ID
		ids = append(ids, v.ID)
	}
	for i, req := range []timelineRequest{{}, {}, {Head: ids[2]}, {Target: "salary"}} {
		resp, body := postJSON(t, ts.URL+"/timeline", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, resp.StatusCode, body)
		}
		var tr timelineResponse
		if err := json.Unmarshal(body, &tr); err != nil {
			t.Fatal(err)
		}
		if req.Target == "" && len(tr.Skipped) == 0 {
			t.Fatalf("request %d: no skipped attributes in %s", i, body)
		}
		if got := referenceBody(t, tr); !bytes.Equal(body, got) {
			t.Fatalf("request %d: body differs from the reference encoder\n got: %s\nwant: %s", i, body, got)
		}
	}
}

// FuzzTimelineWire compares the hand-assembled timeline body with the
// reference encoder over arbitrary strings in every field the writer
// escapes (version ids, target names, skip reasons, drift notes, condition
// and transformation strings) and every combination of the noChange,
// cached and live flags.
func FuzzTimelineWire(f *testing.F) {
	f.Add("v1", "v2", "salary", "dept", "categorical", "policy held", "dept = ENG", "1.03·salary + 500", uint8(0))
	f.Add("<a&b>", "\"q\"", "x y", "z ", "\\", "\x00\x1f\x7f", "a < 3 & b > 4", "é\xff\xfe", uint8(0xff))
	f.Add("", "", "", "", "", "", "", "", uint8(0x15))
	f.Fuzz(func(t *testing.T, from, to, target, skipKey, skipWhy, note, cond, tran string, flags uint8) {
		bit := func(i uint) bool { return flags&(1<<i) != 0 }
		rj := []RankedJSON{{
			Summary: SummaryJSON{
				Target:    target,
				CTs:       []CTJSON{{Condition: cond, Transformation: tran, Inputs: []string{target, cond}, Coef: []float64{1.5}, Rows: 3}},
				CondAttrs: []string{skipKey},
			},
			Breakdown: BreakdownJSON{Score: 0.5},
			NoChange:  bit(0),
		}}
		wire, err := encodeRankedWire(rj)
		if err != nil {
			t.Fatal(err)
		}
		ids := []string{from, to, from + to}
		steps := []timelineStep{
			{from: ids[0], to: ids[1], noChange: bit(1), cached: bit(2), ranked: wire},
			{from: ids[1], to: ids[2], noChange: !bit(1), cached: bit(3)},
		}
		tb := timelineBody{
			head: ids[2], versions: ids, steps: 2, live: bit(4), cached: bit(5),
			targets: []timelineTarget{{name: target, steps: steps}},
		}
		switch {
		case bit(6):
			tb.targets[0].drifts = []history.Drift{{StepA: 0, StepB: 1, SamePartitioning: bit(7), Note: note}}
			tb.targets = append(tb.targets, timelineTarget{name: note, steps: []timelineStep{}})
		case bit(1):
			tb.targets = nil // no numeric attribute changed
		}
		if !bit(7) {
			tb.skipped = map[string]string{skipKey: skipWhy, skipWhy: note, cond: tran}
		}

		want := timelineResponse{
			Head: tb.head, Versions: tb.versions, Steps: tb.steps, Live: tb.live, Cached: tb.cached,
			Skipped: tb.skipped,
		}
		for _, tt := range tb.targets {
			tj := timelineTargetJSON{Target: tt.name, Steps: []timelineStepJSON{}}
			for _, st := range tt.steps {
				sj := timelineStepJSON{From: st.from, To: st.to, NoChange: st.noChange, Cached: st.cached}
				if st.ranked != nil {
					sj.Ranked = rj
				}
				tj.Steps = append(tj.Steps, sj)
			}
			for _, d := range tt.drifts {
				tj.Drifts = append(tj.Drifts, driftJSON{StepA: d.StepA, StepB: d.StepB, SamePartitioning: d.SamePartitioning, Note: d.Note})
			}
			want.Targets = append(want.Targets, tj)
		}
		if got, ref := tb.appendJSON(nil), referenceBody(t, want); !bytes.Equal(got, ref) {
			t.Fatalf("body differs from the reference encoder\n got: %q\nwant: %q", got, ref)
		}
	})
}
