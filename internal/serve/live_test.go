package serve

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"charles/internal/csvio"
	"charles/internal/gen"
	"charles/internal/metrics"
	"charles/internal/store"
	"charles/internal/table"
)

// defShard labels the single-store server's one shard in /metrics.
var defShard = map[string]string{"shard": DefaultDatasetName + "/" + DefaultDatasetName}

// commitOne commits one snapshot over HTTP on the default dataset.
func commitOne(t *testing.T, base string, snap *table.Table, parent string) store.Version {
	t.Helper()
	resp, body := postJSON(t, base+"/versions", commitRequest{
		CSV: csvOf(t, snap), Key: []string{"id"}, Parent: parent, Message: "live",
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("commit status %d: %s", resp.StatusCode, body)
	}
	var v store.Version
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatal(err)
	}
	return v
}

// waitMetric polls /metrics until name+labels reaches exactly want. The
// commit pump is asynchronous; tests use this to establish a happens-before
// with it instead of sleeping.
func waitMetric(t *testing.T, base, name string, labels map[string]string, want float64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, body := get(t, base+"/metrics")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("metrics status %d: %s", resp.StatusCode, body)
		}
		if v, ok := metrics.Value(body, name, labels); ok && v == want {
			return
		}
		if time.Now().After(deadline) {
			v, _ := metrics.Value(body, name, labels)
			t.Fatalf("metric %s%v = %v, want %v (timed out)", name, labels, v, want)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// pollWatch performs one GET /timeline/watch?since= long-poll cycle.
func pollWatch(t *testing.T, url string) watchPollResponse {
	t.Helper()
	resp, body := get(t, url)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("watch poll status %d: %s", resp.StatusCode, body)
	}
	var pr watchPollResponse
	if err := json.Unmarshal(body, &pr); err != nil {
		t.Fatalf("watch poll body: %v: %s", err, body)
	}
	return pr
}

type sseEvent struct {
	name string
	data string
}

// sseStream opens a /timeline/watch SSE stream and feeds its events into a
// channel; the returned func closes the stream (the channel closes after).
func sseStream(t *testing.T, url string) (<-chan sseEvent, func()) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		t.Fatalf("watch stream status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		resp.Body.Close()
		t.Fatalf("watch stream content type %q", ct)
	}
	ch := make(chan sseEvent, 32)
	go func() {
		defer close(ch)
		sc := bufio.NewScanner(resp.Body)
		var ev sseEvent
		for sc.Scan() {
			line := sc.Text()
			switch {
			case strings.HasPrefix(line, "event: "):
				ev.name = strings.TrimPrefix(line, "event: ")
			case strings.HasPrefix(line, "data: "):
				ev.data = strings.TrimPrefix(line, "data: ")
			case line == "" && ev.name != "":
				ch <- ev
				ev = sseEvent{}
			}
		}
	}()
	return ch, func() { resp.Body.Close() }
}

// nextEvent waits for the next SSE event and requires its name.
func nextEvent(t *testing.T, ch <-chan sseEvent, want string) sseEvent {
	t.Helper()
	select {
	case ev, ok := <-ch:
		if !ok {
			t.Fatalf("SSE stream closed waiting for %q event", want)
		}
		if ev.name != want {
			t.Fatalf("SSE event %q (data %s), want %q", ev.name, ev.data, want)
		}
		return ev
	case <-time.After(10 * time.Second):
		t.Fatalf("timed out waiting for SSE %q event", want)
	}
	return sseEvent{}
}

// TestWatchSSEStreamsCommits subscribes an SSE stream and drives commits
// through it: the initial "head" event positions the subscriber, the first
// post-subscription commit rebuilds the maintained timeline, and each later
// commit extends it by exactly one step.
func TestWatchSSEStreamsCommits(t *testing.T) {
	_, ts := newTestServer(t)
	snaps, err := gen.Chain(gen.ChainConfig{N: 20, Steps: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	versions := commitChain(t, ts.URL, snaps[:2])
	// Let the pump drain the pre-subscription notes so the stream below
	// observes a deterministic sequence.
	waitMetric(t, ts.URL, "charles_commit_notifications_total", defShard, 2)

	events, closeStream := sseStream(t, ts.URL+"/timeline/watch")
	defer closeStream()

	var head watchHeadJSON
	if ev := nextEvent(t, events, "head"); json.Unmarshal([]byte(ev.data), &head) != nil {
		t.Fatalf("bad head event: %s", ev.data)
	}
	if head.Head != versions[1].ID {
		t.Fatalf("head event %q, want %q", head.Head, versions[1].ID)
	}

	v2 := commitOne(t, ts.URL, snaps[2], versions[1].ID)
	var step watchEvent
	if ev := nextEvent(t, events, "step"); json.Unmarshal([]byte(ev.data), &step) != nil {
		t.Fatalf("bad step event: %s", ev.data)
	}
	if step.Head != v2.ID || step.Parent != versions[1].ID {
		t.Errorf("step event head %q parent %q, want %q %q", step.Head, step.Parent, v2.ID, versions[1].ID)
	}
	if step.Mode != "rebuild" || step.Steps != 2 {
		t.Errorf("first maintained step mode %q steps %d, want rebuild/2", step.Mode, step.Steps)
	}

	v3 := commitOne(t, ts.URL, snaps[3], v2.ID)
	var step2 watchEvent
	if ev := nextEvent(t, events, "step"); json.Unmarshal([]byte(ev.data), &step2) != nil {
		t.Fatal("bad step event")
	}
	if step2.Head != v3.ID || step2.Mode != "extend" || step2.Steps != 3 {
		t.Errorf("second step head %q mode %q steps %d, want %q extend 3", step2.Head, step2.Mode, step2.Steps, v3.ID)
	}
	if step2.Seq != step.Seq+1 {
		t.Errorf("event seq %d after %d, want consecutive", step2.Seq, step.Seq)
	}
	if len(step2.Targets) == 0 {
		t.Error("extend event carries no targets")
	} else {
		found := false
		for _, tgt := range step2.Targets {
			if tgt.Target == "salary" {
				found = true
			}
		}
		if !found {
			t.Errorf("extend event targets %v lack salary", step2.Targets)
		}
	}
}

// TestWatchLongPoll covers the ?since= spelling: immediate catch-up when the
// head already moved, blocking until the next commit otherwise, and
// resync=true when the asked-for position has left the event ring.
func TestWatchLongPoll(t *testing.T) {
	_, ts := newTestServer(t)
	snaps, err := gen.Chain(gen.ChainConfig{N: 20, Steps: 3, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	versions := commitChain(t, ts.URL, snaps[:2])
	waitMetric(t, ts.URL, "charles_commit_notifications_total", defShard, 2)

	// First interest: an empty since positions the poller at the head.
	pr := pollWatch(t, ts.URL+"/timeline/watch?since=")
	if pr.Head != versions[1].ID {
		t.Fatalf("poll head %q, want %q", pr.Head, versions[1].ID)
	}
	if pr.Resync || len(pr.Events) != 0 {
		t.Fatalf("initial poll resync=%v events=%d, want clean empty", pr.Resync, len(pr.Events))
	}

	// A poll at the current head blocks until the next commit delivers.
	type pollResult struct {
		pr  watchPollResponse
		err error
	}
	res := make(chan pollResult, 1)
	go func() {
		resp, err := http.Get(ts.URL + "/timeline/watch?since=" + versions[1].ID)
		if err != nil {
			res <- pollResult{err: err}
			return
		}
		defer resp.Body.Close()
		var pr watchPollResponse
		err = json.NewDecoder(resp.Body).Decode(&pr)
		res <- pollResult{pr: pr, err: err}
	}()
	v2 := commitOne(t, ts.URL, snaps[2], versions[1].ID)
	select {
	case r := <-res:
		if r.err != nil {
			t.Fatal(r.err)
		}
		if r.pr.Head != v2.ID || len(r.pr.Events) != 1 {
			t.Fatalf("blocked poll head %q events %d, want %q with 1 event", r.pr.Head, len(r.pr.Events), v2.ID)
		}
		if ev := r.pr.Events[0]; ev.Mode != "rebuild" || ev.Steps != 2 {
			t.Errorf("delivered event mode %q steps %d, want rebuild/2", ev.Mode, ev.Steps)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("long-poll did not return after commit")
	}

	// The root commit predates any interest, so polling from it finds no
	// event with that head in the ring: full catch-up plus resync.
	pr = pollWatch(t, ts.URL+"/timeline/watch?since="+versions[0].ID)
	if pr.Head != v2.ID || !pr.Resync {
		t.Errorf("stale poll head %q resync %v, want %q true", pr.Head, pr.Resync, v2.ID)
	}
	if len(pr.Events) == 0 || pr.Events[len(pr.Events)-1].Head != v2.ID {
		t.Errorf("stale poll events %v, want catch-up ending at %q", pr.Events, v2.ID)
	}
}

// TestLiveTimelineFollowsCommits pins the incremental-maintenance contract
// end to end: a head-relative POST /timeline is answered live and memoized,
// and after a commit the warm answer for the new head costs one incremental
// engine step plus two cache fills — not a chain-length walk.
func TestLiveTimelineFollowsCommits(t *testing.T) {
	st, err := store.Open("")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(st, 64)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	ids := commitLineage(t, st, 4)

	post := func() timelineResponse {
		t.Helper()
		resp, body := postJSON(t, ts.URL+"/timeline", timelineRequest{})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("timeline status %d: %s", resp.StatusCode, body)
		}
		var tr timelineResponse
		if err := json.Unmarshal(body, &tr); err != nil {
			t.Fatal(err)
		}
		return tr
	}

	waitMetric(t, ts.URL, "charles_commit_notifications_total", defShard, 4)
	tr := post()
	if !tr.Live || tr.Cached {
		t.Fatalf("first live answer live=%v cached=%v, want live uncached", tr.Live, tr.Cached)
	}
	if tr.Head != ids[3] || tr.Steps != 3 {
		t.Fatalf("live answer head %q steps %d, want %q/3", tr.Head, tr.Steps, ids[3])
	}
	if tr2 := post(); !tr2.Cached {
		t.Error("repeat live answer not served from the head memo")
	}

	csv := "name,dept,salary\nanne,eng,9999\nbob,eng,2222\ncara,hr,3333\n"
	tb, err := csvio.Read(strings.NewReader(csv), csvio.Options{Key: []string{"name"}})
	if err != nil {
		t.Fatal(err)
	}
	v, err := st.Commit(tb, ids[3], "one more")
	if err != nil {
		t.Fatal(err)
	}
	// Wait for the pump to absorb the commit incrementally before reading,
	// so the answer below is the maintainer's — not a request-path rebuild.
	waitMetric(t, ts.URL, "charles_timeline_maintenance_total",
		map[string]string{"shard": defShard["shard"], "mode": "extend"}, 1)

	execBefore := srv.Stats().Executions
	tr3 := post()
	if tr3.Head != v.ID || tr3.Steps != 4 || !tr3.Live {
		t.Fatalf("post-commit answer head %q steps %d live %v, want %q/4/true", tr3.Head, tr3.Steps, tr3.Live, v.ID)
	}
	// One fill for the new head's whole-response memo, one for the single
	// new step's seeded pair entry; every older step is already resident.
	if got := srv.Stats().Executions - execBefore; got > 2 {
		t.Errorf("post-commit warm answer cost %d cache fills, want ≤2 (memo + new step)", got)
	}
	if tr4 := post(); !tr4.Cached {
		t.Error("post-commit repeat not served from the new head memo")
	}
}

// TestWatchHammerExactCounters drives a hub shard through a commit sequence
// with SSE and long-poll subscribers attached, serializing each commit with
// its observation, and then requires the new metric families to be exact:
// one notification per commit, exactly one rebuild, every later commit an
// extend, and the subscriber gauge back to zero once the watchers are gone.
func TestWatchHammerExactCounters(t *testing.T) {
	_, ts := newHubTestServer(t, store.HubOptions{})
	shard := map[string]string{"shard": "acme/sales"}
	base := ts.URL + "/datasets/acme/sales/timeline/watch"

	// Watching an unknown dataset resolves like every other read route.
	if resp, _ := get(t, ts.URL+"/datasets/acme/ghost/timeline/watch?since="); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("watch on unknown dataset status %d, want 404", resp.StatusCode)
	}

	csv := func(i int) string {
		return fmt.Sprintf("name,dept,salary\nanne,eng,%d\nbob,eng,%d\ncara,hr,%d\n",
			1000+10*i, 2000+20*i, 3000+30*i)
	}
	v0 := commitTo(t, ts.URL, "acme", "sales", csv(0), "", "v0")
	waitMetric(t, ts.URL, "charles_commit_notifications_total", shard, 1)

	// First interest seeds the live shard at the current head; the root
	// commit predates it, so nothing is buffered.
	pr := pollWatch(t, base+"?since=")
	if pr.Head != v0.ID || len(pr.Events) != 0 {
		t.Fatalf("seed poll head %q events %d, want %q/0", pr.Head, len(pr.Events), v0.ID)
	}

	ch1, close1 := sseStream(t, base)
	ch2, close2 := sseStream(t, base)
	nextEvent(t, ch1, "head")
	nextEvent(t, ch2, "head")

	const commits = 8
	parent := v0.ID
	for i := 1; i <= commits; i++ {
		nv := commitTo(t, ts.URL, "acme", "sales", csv(i), parent, fmt.Sprintf("v%d", i))
		// Ride the commit with a long-poll before the next one, so the pump
		// never coalesces a note and the counters below stay exact.
		pw := pollWatch(t, base+"?since="+parent)
		if pw.Head != nv.ID {
			t.Fatalf("commit %d: poll head %q, want %q", i, pw.Head, nv.ID)
		}
		wantMode := "extend"
		if i == 1 {
			wantMode = "rebuild" // first maintained step after interest
		}
		if len(pw.Events) == 0 || pw.Events[len(pw.Events)-1].Mode != wantMode {
			t.Fatalf("commit %d: events %+v, want trailing mode %q", i, pw.Events, wantMode)
		}
		if got := pw.Events[len(pw.Events)-1].Steps; got != i {
			t.Errorf("commit %d: maintained steps %d, want %d", i, got, i)
		}
		parent = nv.ID
	}

	// Both SSE subscribers observed the full sequence, in order. Each stream
	// is read until its event for the final head arrives (the long-poll can
	// return before a stream has read it) and only then closed.
	for n, ch := range map[string]<-chan sseEvent{"ch1": ch1, "ch2": ch2} {
		var seen []watchEvent
		for len(seen) == 0 || seen[len(seen)-1].Head != parent {
			ev := nextEvent(t, ch, "step")
			var we watchEvent
			if err := json.Unmarshal([]byte(ev.data), &we); err != nil {
				t.Fatalf("%s: bad step event %s", n, ev.data)
			}
			seen = append(seen, we)
		}
		if len(seen) != commits {
			t.Fatalf("%s: saw %d step events, want %d", n, len(seen), commits)
		}
		for i := 1; i < len(seen); i++ {
			if seen[i].Seq != seen[i-1].Seq+1 {
				t.Errorf("%s: seq gap %d→%d", n, seen[i-1].Seq, seen[i].Seq)
			}
		}
		if last := seen[len(seen)-1]; last.Head != parent || last.Resync {
			t.Errorf("%s: final event head %q resync %v, want %q false", n, last.Head, last.Resync, parent)
		}
	}
	close1()
	close2()
	waitMetric(t, ts.URL, "charles_watch_subscribers", nil, 0)

	// A blocked long-poll is visible in the subscriber gauge, and the drain
	// back to zero is prompt once it is answered.
	type pollResult struct {
		pr  watchPollResponse
		err error
	}
	res := make(chan pollResult, 1)
	go func() {
		resp, err := http.Get(base + "?since=" + parent)
		if err != nil {
			res <- pollResult{err: err}
			return
		}
		defer resp.Body.Close()
		var pr watchPollResponse
		err = json.NewDecoder(resp.Body).Decode(&pr)
		res <- pollResult{pr: pr, err: err}
	}()
	waitMetric(t, ts.URL, "charles_watch_subscribers", nil, 1)
	final := commitTo(t, ts.URL, "acme", "sales", csv(commits+1), parent, "final")
	select {
	case r := <-res:
		if r.err != nil {
			t.Fatal(r.err)
		}
		if r.pr.Head != final.ID || len(r.pr.Events) != 1 || r.pr.Events[0].Mode != "extend" {
			t.Fatalf("final poll %+v, want extend event at %q", r.pr, final.ID)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("blocked poll did not return after final commit")
	}
	waitMetric(t, ts.URL, "charles_watch_subscribers", nil, 0)

	// Exact counters: every commit notified exactly once; the root commit
	// predated interest (no maintenance sample), the first maintained one
	// rebuilt, and every later commit was a single incremental extension.
	body := scrape(t, ts.URL)
	total := float64(commits + 2)
	if got := metricValue(t, body, "charles_commit_notifications_total", shard); got != total {
		t.Errorf("notifications = %v, want %v", got, total)
	}
	if got := metricValue(t, body, "charles_timeline_maintenance_total",
		map[string]string{"shard": shard["shard"], "mode": "rebuild"}); got != 1 {
		t.Errorf("rebuilds = %v, want exactly 1", got)
	}
	if got := metricValue(t, body, "charles_timeline_maintenance_total",
		map[string]string{"shard": shard["shard"], "mode": "extend"}); got != float64(commits) {
		t.Errorf("extends = %v, want %v", got, commits)
	}
	if v, ok := metrics.Value(body, "charles_timeline_maintenance_total",
		map[string]string{"shard": shard["shard"], "mode": "skip"}); ok && v != 0 {
		t.Errorf("skips = %v, want none", v)
	}
}
