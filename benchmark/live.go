package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"sync"
	"time"

	"charles/internal/csvio"
	"charles/internal/gen"
	"charles/internal/serve"
	"charles/internal/store"
)

// live-commit: one committer and one passive /timeline/watch long-poller
// against an in-process server over an on-disk store. A cycle is commit →
// the watch event for that commit → the warm head-relative POST /timeline.
// Every round replays the same seeded snapshot sequence into a fresh store,
// so every run measures the same inputs whatever its length.
const (
	liveRows  = 120
	liveSteps = 12 // cycles per chain; a multiple of 6 repeats gen.Chain's full schedule
	// liveChains is how many seeded chains one round replays, each into its
	// own fresh store, so a run's figures average over several inputs.
	liveChains = 4
)

// liveChain is one seeded snapshot sequence and the answers it must get.
type liveChain struct {
	bodies [][]byte            // POST /versions bodies, root first
	ids    []string            // the version id each commit must get
	ref    map[string][]string // reference #1 summaries (the first chain only)
	// expect[k-1] is the timeline answer after commit k, recorded by the
	// run's first round once it passed every check; later rounds must
	// answer the same bytes.
	expect [][]byte
}

type liveInstance struct {
	cfg    *config
	t      *tally
	chains []*liveChain
	ratio  float64 // store_bytes_per_user_byte of the last chain replayed
}

func setupLive(cfg *config, t *tally) (instance, error) {
	inst := &liveInstance{cfg: cfg, t: t}
	for c := 0; c < liveChains; c++ {
		snaps, err := gen.Chain(gen.ChainConfig{N: liveRows, Steps: liveSteps, Seed: cfg.seed*1_000_003 + int64(c) + 1})
		if err != nil {
			return nil, err
		}
		ch := &liveChain{}
		parent := ""
		for i, snap := range snaps {
			sorted, err := snap.SortByKey()
			if err != nil {
				return nil, err
			}
			var buf bytes.Buffer
			if err := csvio.Write(&buf, sorted); err != nil {
				return nil, err
			}
			body, err := json.Marshal(map[string]any{
				"csv": buf.String(), "key": []string{"id"}, "parent": parent, "message": fmt.Sprintf("step %d", i),
			})
			if err != nil {
				return nil, err
			}
			id := contentID(buf.Bytes(), []string{"id"})
			ch.bodies = append(ch.bodies, body)
			ch.ids = append(ch.ids, id)
			parent = id
		}
		if c == 0 {
			if ch.ref, err = referenceTops(snaps); err != nil {
				return nil, err
			}
		}
		inst.chains = append(inst.chains, ch)
	}
	return inst, nil
}

func (l *liveInstance) close() {}

func (l *liveInstance) storeRatio() float64 { return l.ratio }

// liveCounts accumulates the traced per-layer figures across rounds.
type liveCounts struct {
	commits, packBytes, extend, rebuild, drops float64
	timelineBytes, timelines                   float64
	commitMS, timelineMS                       []float64 // per-round server-side means
	deltaPacks, packs                          float64
}

func (l *liveInstance) run(seconds float64, tr *tracer) (*measurement, error) {
	m := &measurement{layers: map[string]float64{}}
	var lc liveCounts
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	var op int64
	var err error
	// The first replay of each chain records the answers later replays
	// must repeat. It is checked in full and not timed, so it is kept out
	// of both the latencies and the throughput clock.
	for _, ch := range l.chains {
		if ch.expect == nil {
			if op, err = l.replay(ch, m, tr, op, &lc); err != nil {
				return nil, err
			}
		}
	}
	// Whole timed rounds only, at least one: a run ends at the first round
	// boundary past its time, so every run covers the same commit
	// sequences some whole number of times.
	start := time.Now()
	for rounds := 0; rounds == 0 || time.Now().Before(deadline); rounds++ {
		for _, ch := range l.chains {
			if op, err = l.replay(ch, m, tr, op, &lc); err != nil {
				return nil, err
			}
		}
	}
	m.throughput = float64(len(m.lat)) / time.Since(start).Seconds()
	if tr != nil && lc.commits > 0 {
		durs := tr.durationsMS()
		m.layers["serve.watch_wait_ms"] = median(durs["serve.watch_wait"])
		m.layers["serve.commit_ms"] = median(lc.commitMS)
		m.layers["serve.timeline_ms"] = median(lc.timelineMS)
		m.layers["serve.resp_kb.timeline"] = lc.timelineBytes / lc.timelines / 1024
		m.layers["store.pack_bytes_per_commit"] = lc.packBytes / lc.commits
		m.layers["store.delta_pack_ratio"] = lc.deltaPacks / lc.packs
		m.layers["serve.maintenance_extend_per_commit"] = lc.extend / lc.commits
		m.layers["serve.maintenance_rebuild_per_commit"] = lc.rebuild / lc.commits
		m.layers["serve.watch_drops"] = lc.drops
	}
	return m, nil
}

// watchPoll mirrors the GET /timeline/watch?since= body.
type watchPoll struct {
	Head   string `json:"head"`
	Resync bool   `json:"resync"`
	Events []struct {
		Head    string `json:"head"`
		Mode    string `json:"mode"`
		Steps   int    `json:"steps"`
		Resync  bool   `json:"resync"`
		Targets []struct {
			Target   string `json:"target"`
			NoChange bool   `json:"noChange"`
		} `json:"targets"`
	} `json:"events"`
}

// timelineBody mirrors the POST /timeline body.
type timelineBody struct {
	Head     string   `json:"head"`
	Versions []string `json:"versions"`
	Steps    int      `json:"steps"`
	Live     bool     `json:"live"`
	Targets  []struct {
		Target string `json:"target"`
		Steps  []struct {
			From     string             `json:"from"`
			To       string             `json:"to"`
			NoChange bool               `json:"noChange"`
			Ranked   []serve.RankedJSON `json:"ranked"`
		} `json:"steps"`
	} `json:"targets"`
}

// changedSoFar lists the targets gen.Chain has changed in steps 1..k, in
// schema order.
func changedSoFar(k int) []string {
	var out []string
	for _, attr := range chainTargets {
		for s := 1; s <= k; s++ {
			if plantedChange(attr, s) {
				out = append(out, attr)
				break
			}
		}
	}
	return out
}

// checkWatch verifies the watch answer ridden after commit k.
func (ch *liveChain) checkWatch(data []byte, k int) (resync bool, err error) {
	var wp watchPoll
	if err := json.Unmarshal(data, &wp); err != nil {
		return false, wrongf("watch body: %v", err)
	}
	for _, ev := range wp.Events {
		resync = resync || ev.Resync
		if ev.Head != ch.ids[k] {
			continue
		}
		wantMode := "extend"
		if k == 1 {
			wantMode = "rebuild" // the first two-version chain is built whole
		}
		if ev.Mode != wantMode || ev.Steps != k {
			return resync, wrongf("commit %d: watch event mode %q steps %d, want %q %d", k, ev.Mode, ev.Steps, wantMode, k)
		}
		want := changedSoFar(k)
		if len(ev.Targets) != len(want) {
			return resync, wrongf("commit %d: watch event has %d targets, want %v", k, len(ev.Targets), want)
		}
		for i, tj := range ev.Targets {
			if tj.Target != want[i] || tj.NoChange == plantedChange(tj.Target, k) {
				return resync, wrongf("commit %d: watch target %s noChange=%v against the planted schedule", k, tj.Target, tj.NoChange)
			}
		}
		return resync, nil
	}
	return resync, wrongf("commit %d: watch answer has no event for %s", k, ch.ids[k])
}

// checkTimeline verifies the warm timeline answered after commit k: its
// versions, the planted schedule of every step, and every #1 summary
// against the set-up reference.
func (ch *liveChain) checkTimeline(data []byte, k int) error {
	var tb timelineBody
	if err := json.Unmarshal(data, &tb); err != nil {
		return wrongf("timeline body: %v", err)
	}
	if tb.Head != ch.ids[k] || tb.Steps != k || !tb.Live || len(tb.Versions) != k+1 {
		return wrongf("commit %d: timeline head %s steps %d live %v", k, tb.Head, tb.Steps, tb.Live)
	}
	for i, id := range tb.Versions {
		if id != ch.ids[i] {
			return wrongf("commit %d: timeline version %d is %s, want %s", k, i, id, ch.ids[i])
		}
	}
	want := changedSoFar(k)
	if len(tb.Targets) != len(want) {
		return wrongf("commit %d: timeline has %d targets, want %v", k, len(tb.Targets), want)
	}
	for i, tj := range tb.Targets {
		if tj.Target != want[i] || len(tj.Steps) != k {
			return wrongf("commit %d: timeline target %d is %s with %d steps", k, i, tj.Target, len(tj.Steps))
		}
		for s, st := range tj.Steps {
			changed := plantedChange(tj.Target, s+1)
			if st.NoChange == changed {
				return wrongf("commit %d: %s step %d noChange=%v against the planted schedule", k, tj.Target, s+1, st.NoChange)
			}
			if changed && ch.ref != nil {
				if got := renderTop(st.Ranked); got != ch.ref[tj.Target][s+1] {
					return wrongf("commit %d: %s step %d: #1 summary\n%s\nwant\n%s", k, tj.Target, s+1, got, ch.ref[tj.Target][s+1])
				}
			}
		}
	}
	return nil
}

// replay commits one chain into a fresh on-disk store behind a fresh
// server and records one latency per cycle. The chain's first replay in a
// run checks every answer in full and is not timed; later replays compare
// answers with it. It returns the next operation id.
func (l *liveInstance) replay(ch *liveChain, m *measurement, tr *tracer, op int64, lc *liveCounts) (int64, error) {
	dir, err := scratchDir(l.cfg, "live")
	if err != nil {
		return op, err
	}
	defer os.RemoveAll(dir)
	st, err := store.Open(dir)
	if err != nil {
		return op, err
	}
	defer st.Close()
	srv, err := startServer(serve.NewServerWith(st, serve.Config{}))
	if err != nil {
		return op, err
	}
	defer srv.close()
	c := newClient(srv.base, 2) // the committer and the passive watcher
	defer c.close()

	// The passive watcher: long-polls from the current head for the whole
	// round, counting the events it sees. Cancelled, not signalled, so a
	// poll blocked on a commit that never comes ends at once.
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	var passiveDrops int
	wg.Add(1)
	go func() {
		defer wg.Done()
		since := ""
		var buf bytes.Buffer
		for ctx.Err() == nil {
			data, err := c.do(ctx, http.MethodGet, "/timeline/watch?since="+since, nil, &buf)
			if err != nil {
				return // cancelled at the end of the round
			}
			var wp watchPoll
			if json.Unmarshal(data, &wp) == nil {
				since = wp.Head
				for _, ev := range wp.Events {
					if ev.Resync {
						passiveDrops++
					}
				}
			}
		}
	}()
	defer func() {
		cancel()
		wg.Wait()
		lc.drops += float64(passiveDrops)
	}()
	// Commits start once the watcher is subscribed, so every commit is
	// applied by the live maintainer rather than on first request.
	if err := waitFor(10*time.Second, func() (bool, error) {
		s, err := c.scrape()
		return err == nil && s.value("charles_watch_subscribers", nil) >= 1, err
	}); err != nil {
		return op, fmt.Errorf("live: watcher never subscribed: %w", err)
	}
	if _, err := c.post("/versions", ch.bodies[0]); err != nil {
		return op, fmt.Errorf("live: root commit: %w", err)
	}
	if _, err := c.get("/timeline/watch?since="); err != nil {
		return op, fmt.Errorf("live: root watch: %w", err)
	}
	before, err := c.scrape()
	if err != nil {
		return op, err
	}

	record := ch.expect == nil
	var watchBuf, timelineBuf bytes.Buffer
	for k := 1; k < len(ch.bodies); k++ {
		op++
		t0 := time.Now()
		root := tr.begin("live.cycle", op, 0)
		sp := tr.begin("serve.commit", op, root.id)
		data, err := c.post("/versions", ch.bodies[k])
		tr.end(sp)
		if err == nil {
			var v store.Version
			if jerr := json.Unmarshal(data, &v); jerr != nil || v.ID != ch.ids[k] || v.Parent != ch.ids[k-1] {
				err = wrongf("commit %d: version %s (parent %s), want %s", k, v.ID, v.Parent, ch.ids[k])
			}
		}
		var watch, timeline []byte
		if err == nil {
			sp = tr.begin("serve.watch_wait", op, root.id)
			watch, err = c.do(ctx, http.MethodGet, "/timeline/watch?since="+ch.ids[k-1], nil, &watchBuf)
			tr.end(sp)
		}
		if err == nil {
			sp = tr.begin("serve.timeline", op, root.id)
			timeline, err = c.do(ctx, http.MethodPost, "/timeline", []byte("{}"), &timelineBuf)
			tr.end(sp)
		}
		tr.end(root)
		elapsed := time.Since(t0)
		m.ops++
		if err == nil {
			var resync bool
			resync, err = ch.checkWatch(watch, k)
			if resync {
				lc.drops++
			}
		}
		if record {
			// A failed check records no answer, so every later replay of
			// this commit fails too.
			var want []byte
			if err == nil {
				if err = ch.checkTimeline(timeline, k); err == nil {
					want = append([]byte(nil), timeline...)
				}
			}
			ch.expect = append(ch.expect, want)
		} else if err == nil && !bytes.Equal(timeline, ch.expect[k-1]) {
			err = wrongf("commit %d: timeline answer differs from the first round's", k)
		}
		if !l.t.record(err) {
			var wa *wrongAnswer
			if !errors.As(err, &wa) {
				return op, fmt.Errorf("live: commit %d: %w", k, err)
			}
			continue
		}
		if !record {
			m.lat = append(m.lat, float64(elapsed)/1e6)
		}
		lc.timelineBytes += float64(len(timeline))
		lc.timelines++
	}

	after, err := c.scrape()
	if err != nil {
		return op, err
	}
	statsBody, err := c.get("/stats")
	if err != nil {
		return op, err
	}
	var stats struct {
		Store store.Stats `json:"store"`
	}
	if err := json.Unmarshal(statsBody, &stats); err != nil {
		return op, err
	}
	l.ratio = float64(stats.Store.PackBytes) / float64(stats.Store.LogicalBytes)
	shard := map[string]string{"shard": defaultShard}
	commits := float64(len(ch.bodies) - 1)
	lc.commits += commits
	lc.packBytes += delta(before, after, "charles_store_pack_bytes", shard)
	lc.extend += delta(before, after, "charles_timeline_maintenance_total", map[string]string{"shard": defaultShard, "mode": "extend"})
	lc.rebuild += delta(before, after, "charles_timeline_maintenance_total", map[string]string{"shard": defaultShard, "mode": "rebuild"})
	lc.deltaPacks += float64(stats.Store.DeltaPacks)
	lc.packs += float64(stats.Store.DeltaPacks + stats.Store.FullPacks)
	if ms, n := routeMS(before, after, "/versions"); n > 0 {
		lc.commitMS = append(lc.commitMS, ms)
	}
	if ms, n := routeMS(before, after, "/timeline"); n > 0 {
		lc.timelineMS = append(lc.timelineMS, ms)
	}
	return op, nil
}
