package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"charles/internal/diff"
	"charles/internal/gen"
	"charles/internal/serve"
	"charles/internal/store"
	"charles/internal/table"
)

// read-mix: reads of a version chain longer than the store's table cache,
// favouring recent versions, through the HTTP surface. Half the run is an
// open loop at a fixed rate (latency timed from each request's due time);
// the other half is a closed loop of clients() clients that gives the
// capacity and the bounded latency figures. Summarize keys and timeline
// ranges come from a set warmed in set-up, so the engine does almost
// nothing here.
const (
	// readRows makes each read's own work, not the scheduler's wake-up
	// jitter, set its latency: at 200 rows the closed-loop p50 (~0.2 ms)
	// spread up to 0.25 across runs on a 2-vCPU VM.
	readRows  = 600
	readSteps = store.DefaultTableCache + 15 // versions = readSteps+1 > the table cache
	// readRate is the open loop's fixed request rate (1/s): under a third
	// of the closed-loop capacity (~1400 req/s with 2 clients on a 2-vCPU
	// VM, README.md), a load the server carries without a standing queue.
	// readLimitMS is the latency limit recorded with it; a generator whose
	// median lateness exceeds the limit invalidates the run.
	readRate    = 400
	readLimitMS = 25
	// readHot is how many of the newest versions make up the hot set: half
	// of store.DefaultTableCache, so the hot versions fit the table LRU
	// with room left for the misses of tail picks and timeline walks. readHotShare of version picks
	// land there. The repository holds no record of real read traffic, so
	// the 80/20 skew is an assumption, not a measurement.
	readHot      = store.DefaultTableCache / 2
	readHotShare = 0.8
	// readSummaries is how many (newest step, target) summarize keys are
	// warmed; the timeline ranges are every target from the root to each
	// head 2..readTimelineHead of readTimelineChains short chains, each
	// committed as its own lineage with its own seed. Many keys, over
	// several chains, average out how answer sizes vary with the seed: a
	// timeline's answer is 0.1–0.5 MB and the largest differ twofold
	// between seeds.
	readSummaries      = 24
	readTimelineHead   = 5
	readTimelineChains = 4
	// capacityWindow is the capacity phase's window: read_capacity_rps is
	// the median of the per-window rates.
	capacityWindow = 500 * time.Millisecond
	// readCapacityReqs is the length of the pre-generated capacity-phase
	// request sequence, which the clients cycle through.
	readCapacityReqs = 1 << 14
)

// readKinds name the request kinds, as "read.<kind>" spans.
var readKinds = []string{"versions", "csv", "diff", "changes", "summarize", "timeline"}

// readWeights is the mix: relative frequency of each kind. It is
// charles-bench's loadtest rotation, an even quarter each for the log, CSV
// checkouts, /diff and /summarize, with the two added kinds sharing the
// slot of the read they extend: /versions/{id}/changes is a version's diff
// against its parent, and a ranged /timeline is a run of summarize answers.
var readWeights = []int{2, 2, 1, 1, 1, 1}

// readReq is one distinct request of the catalogue with its answer check.
type readReq struct {
	kind   int
	method string
	path   string
	body   []byte
	check  func([]byte) error
}

type readInstance struct {
	t        *tally
	st       *store.Store
	srv      *inproc
	c        *client
	catalog  []readReq
	seqOpen  []int // the open loop's request sequence (catalog indices)
	seqCap   []int // the capacity phase's sequence
	capNext  atomic.Int64
	openNext int
}

func setupReadMix(cfg *config, t *tally) (instance, error) {
	snaps, err := gen.Chain(gen.ChainConfig{N: readRows, Steps: readSteps, Seed: cfg.seed})
	if err != nil {
		return nil, err
	}
	st, err := store.Open("")
	if err != nil {
		return nil, err
	}
	inst := &readInstance{t: t, st: st}
	// The timeline lineages are committed first, so the main chain's last
	// version is the store's head.
	lineages := make([][]string, readTimelineChains)
	for c := range lineages {
		lsnaps, err := gen.Chain(gen.ChainConfig{N: readRows, Steps: readTimelineHead, Seed: cfg.seed*1_000_003 + int64(c) + 1})
		if err == nil {
			lineages[c], err = commitChain(st, lsnaps)
		}
		if err != nil {
			st.Close()
			return nil, err
		}
	}
	ids, err := commitChain(st, snaps)
	if err != nil {
		st.Close()
		return nil, err
	}
	if inst.srv, err = startServer(serve.NewServerWith(st, serve.Config{})); err != nil {
		st.Close()
		return nil, err
	}
	inst.c = newClient(inst.srv.base, clients())
	if err := inst.buildCatalog(ids, lineages, func(from, to int) (int, []string, error) {
		a, err := diff.Align(snaps[from], snaps[to])
		if err != nil {
			return 0, nil, err
		}
		d, err := a.UpdateDistance(1e-9)
		if err != nil {
			return 0, nil, err
		}
		attrs, err := a.ChangedAttrs(1e-9)
		return d, attrs, err
	}); err != nil {
		inst.close()
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	inst.seqOpen = inst.sequence(rng, int(readRate*cfg.seconds)+1)
	inst.seqCap = inst.sequence(rng, readCapacityReqs)
	return inst, nil
}

// commitChain commits snapshots as one new lineage and returns their ids.
func commitChain(st *store.Store, snaps []*table.Table) ([]string, error) {
	ids := make([]string, len(snaps))
	parent := ""
	for i, snap := range snaps {
		v, err := st.Commit(snap, parent, fmt.Sprintf("step %d", i))
		if err != nil {
			return nil, err
		}
		ids[i], parent = v.ID, v.ID
	}
	return ids, nil
}

// buildCatalog creates every distinct request, warms the server with each
// one whose answer is cached (summarize, timeline) and records the answers
// the run's responses must equal. ids is the main chain, lineages the
// timeline chains. expect computes a diff's update distance and changed
// attributes from the main chain's generated snapshots.
func (r *readInstance) buildCatalog(ids []string, lineages [][]string, expect func(from, to int) (int, []string, error)) error {
	add := func(kind int, method, path string, body []byte, check func([]byte) error) {
		r.catalog = append(r.catalog, readReq{kind: kind, method: method, path: path, body: body, check: check})
	}
	// fetch makes a request once in set-up and returns the answer.
	fetch := func(method, path string, body []byte) ([]byte, error) {
		if method == http.MethodPost {
			return r.c.post(path, body)
		}
		return r.c.get(path)
	}
	same := func(what string, want []byte) func([]byte) error {
		return func(got []byte) error {
			if !bytes.Equal(got, want) {
				return wrongf("%s: answer differs from the set-up answer", what)
			}
			return nil
		}
	}

	log, err := fetch(http.MethodGet, "/versions", nil)
	if err != nil {
		return err
	}
	add(0, http.MethodGet, "/versions", nil, same("/versions", log))

	for i, id := range ids {
		id := id
		add(1, http.MethodGet, "/versions/"+id+"/csv", nil, func(got []byte) error {
			if h := contentID(got, []string{"id"}); h != id {
				return wrongf("checkout of %s hashes to %s", id, h)
			}
			return nil
		})
		if i == 0 {
			continue
		}
		path := "/versions/" + id + "/changes"
		want, err := fetch(http.MethodGet, path, nil)
		if err != nil {
			return err
		}
		add(3, http.MethodGet, path, nil, same(path, want))
		for gap := 1; gap <= 2 && gap <= i; gap++ {
			dist, attrs, err := expect(i-gap, i)
			if err != nil {
				return err
			}
			path := "/diff?from=" + ids[i-gap] + "&to=" + id
			add(2, http.MethodGet, path, nil, func(got []byte) error {
				var d struct {
					UpdateDistance int      `json:"updateDistance"`
					ChangedAttrs   []string `json:"changedAttrs"`
				}
				if err := json.Unmarshal(got, &d); err != nil {
					return wrongf("%s: %v", path, err)
				}
				if d.UpdateDistance != dist || !slices.Equal(d.ChangedAttrs, attrs) {
					return wrongf("%s: update distance %d attrs %v, want %d %v", path, d.UpdateDistance, d.ChangedAttrs, dist, attrs)
				}
				return nil
			})
		}
	}

	// Warmed engine questions: a first request computes, the second is the
	// cached answer every later request must equal.
	warm := func(kind int, path string, body []byte) error {
		if _, err := fetch(http.MethodPost, path, body); err != nil {
			return err
		}
		want, err := fetch(http.MethodPost, path, body)
		if err != nil {
			return err
		}
		add(kind, http.MethodPost, path, body, same(path+" "+string(body), want))
		return nil
	}
	n := len(ids)
	for j := 0; j < readSummaries; j++ {
		to := n - 1 - j
		body, err := json.Marshal(map[string]string{"from": ids[to-1], "to": ids[to], "target": chainTargets[j%len(chainTargets)]})
		if err != nil {
			return err
		}
		if err := warm(4, "/summarize", body); err != nil {
			return err
		}
	}
	for _, lids := range lineages {
		for head := 2; head <= readTimelineHead; head++ {
			for _, target := range chainTargets {
				body, err := json.Marshal(map[string]string{"head": lids[head], "target": target})
				if err != nil {
					return err
				}
				if err := warm(5, "/timeline", body); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// sequence draws n requests: a kind by readWeights, then a version that is
// in the hot set with probability readHotShare. Timeline ranges all start
// at the root, so no version of theirs is recent: they are drawn
// uniformly, which also averages a run over every warmed range.
func (r *readInstance) sequence(rng *rand.Rand, n int) []int {
	byKind := make([][]int, len(readKinds))
	for i, q := range r.catalog {
		byKind[q.kind] = append(byKind[q.kind], i)
	}
	total := 0
	for _, w := range readWeights {
		total += w
	}
	out := make([]int, n)
	for i := range out {
		x := rng.Intn(total)
		kind := 0
		for x >= readWeights[kind] {
			x -= readWeights[kind]
			kind++
		}
		cands := byKind[kind]
		// Catalogue entries of one kind are in version order, so the
		// newest readHot·(share of the kind) entries are the hot set.
		hot := len(cands) * readHot / (readSteps + 1)
		if hot < 1 {
			hot = 1
		}
		if readKinds[kind] != "timeline" && rng.Float64() < readHotShare {
			out[i] = cands[len(cands)-1-rng.Intn(hot)]
		} else {
			out[i] = cands[rng.Intn(len(cands))]
		}
	}
	return out
}

func (r *readInstance) close() {
	if r.c != nil {
		r.c.close()
	}
	if r.srv != nil {
		r.srv.close()
	}
	_ = r.st.Close() // memory store: nothing to flush
}

func (r *readInstance) storeRatio() float64 {
	s := r.st.Stats()
	return float64(s.PackBytes) / float64(s.LogicalBytes)
}

// issue sends catalogue request qi and checks the answer. service is the
// time from send to the whole body.
func (r *readInstance) issue(qi int, op int64, tr *tracer, buf *bytes.Buffer) (service time.Duration, ok bool) {
	q := &r.catalog[qi]
	sp := tr.begin("read."+readKinds[q.kind], op, 0)
	t0 := time.Now()
	body, err := r.c.do(context.Background(), q.method, q.path, q.body, buf)
	service = time.Since(t0)
	tr.end(sp)
	if err == nil {
		err = q.check(body)
	}
	return service, r.t.record(err)
}

func (r *readInstance) run(seconds float64, tr *tracer) (*measurement, error) {
	m := &measurement{layers: map[string]float64{}}
	var before scrape
	if tr != nil {
		var err error
		if before, err = r.c.scrape(); err != nil {
			return nil, err
		}
	}
	openLat, late, service := r.openLoop(seconds/2, tr)
	sort.Float64s(late)
	lateP50, lateP99 := nearestRank(late, 0.5), nearestRank(late, 0.99)
	open, err := summarize(openLat, 0.99)
	if err != nil {
		return nil, fmt.Errorf("open loop: %w", err)
	}
	m.notes = append(m.notes, fmt.Sprintf("# read-mix open loop: %d requests at %d/s, latency limit %d ms: p50 %.3f ms, p99 %.3f ms; generator late p50 %.3f ms, p99 %.3f ms",
		len(late), readRate, readLimitMS, open.P50, open.Tail, lateP50, lateP99))
	// A stall makes some dispatches late, and their latency (timed from the
	// due time) shows it. A generator that is late for most requests has
	// fallen behind its schedule, and the run measures its backlog.
	if lateP50 > readLimitMS {
		return nil, fmt.Errorf("run invalid: the generator fell behind its schedule (late p50 %.2f ms)", lateP50)
	}
	rates, capLat, capOps, capService := r.capacity(seconds/2, tr)
	m.lat = capLat
	m.throughput = median(rates)
	m.ops = len(late) + capOps
	if tr != nil {
		after, err := r.c.scrape()
		if err != nil {
			return nil, err
		}
		var handler float64
		for i, route := range []string{"/versions", "/versions/{id}/csv", "/diff", "/versions/{id}/changes", "/summarize", "/timeline"} {
			ms, n := routeMS(before, after, route)
			m.layers["serve."+readKinds[i]+"_ms"] = ms
			handler += ms * n
		}
		m.layers["serve.handler_time_share"] = handler / ((service + capService).Seconds() * 1000)
		hits := delta(before, after, "charles_result_cache_events_total", map[string]string{"event": "hit"})
		misses := delta(before, after, "charles_result_cache_events_total", map[string]string{"event": "miss"})
		if hits+misses > 0 {
			m.layers["serve.result_cache_hit_ratio"] = hits / (hits + misses)
		}
		for metric, cache := range map[string]string{"table": "tables", "blob": "blobs", "changes": "changes", "results": "results"} {
			m.layers["store."+metric+"_hit_ratio"] = hitRatio(before, after, cache)
		}
		m.layers["store.parses_per_op"] = delta(before, after, "charles_store_csv_parses_total",
			map[string]string{"shard": defaultShard}) / float64(m.ops)
		m.layers["bench.late_p99_ms"] = lateP99
		m.layers["read.fixed_rate_p50_ms"] = open.P50
		m.layers["read.fixed_rate_p99_ms"] = open.Tail
	}
	return m, nil
}

// openLoop sends readRate requests a second for seconds, each due at its
// slot of the schedule whether or not earlier ones have finished, over
// clients() connections. It returns each request's latency from its due
// time (failed requests have none), the dispatcher's lateness, and the
// summed send-to-body time.
func (r *readInstance) openLoop(seconds float64, tr *tracer) (lat, late []float64, service time.Duration) {
	n := int(readRate * seconds)
	if n < 1 {
		n = 1
	}
	lat = make([]float64, 0, n)
	late = make([]float64, n)
	start := time.Now().Add(10 * time.Millisecond)
	due := func(i int) time.Time {
		return start.Add(time.Duration(float64(i) * float64(time.Second) / readRate))
	}
	work := make(chan int, n) // sized to the number of sends: dispatch never blocks
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < clients(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var svc time.Duration
			var buf bytes.Buffer
			var local []float64
			for i := range work {
				op := r.openNext + i
				s, ok := r.issue(r.seqOpen[op%len(r.seqOpen)], int64(op), tr, &buf)
				svc += s
				if ok {
					local = append(local, float64(time.Since(due(i)))/1e6)
				}
			}
			mu.Lock()
			defer mu.Unlock()
			lat = append(lat, local...)
			service += svc
		}()
	}
	for i := 0; i < n; i++ {
		d := due(i)
		if wait := time.Until(d); wait > 0 {
			time.Sleep(wait)
		}
		late[i] = float64(time.Since(d)) / 1e6
		work <- i
	}
	close(work)
	wg.Wait()
	r.openNext += n
	return lat, late, service
}

// capacity runs clients() closed-loop clients for seconds and returns the
// completed requests per second of each capacityWindow in order, each
// completed request's latency (ms), the requests attempted, and their
// summed service time.
func (r *readInstance) capacity(seconds float64, tr *tracer) ([]float64, []float64, int, time.Duration) {
	nw := int(seconds / capacityWindow.Seconds())
	if nw < 1 {
		nw = 1
	}
	counts := make([]atomic.Int64, nw)
	var mu sync.Mutex
	var service time.Duration
	var lat []float64
	start := time.Now()
	deadline := start.Add(time.Duration(nw) * capacityWindow)
	first := r.capNext.Load()
	var wg sync.WaitGroup
	for w := 0; w < clients(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var svc time.Duration
			var buf bytes.Buffer
			var local []float64
			for time.Now().Before(deadline) {
				op := r.capNext.Add(1)
				s, ok := r.issue(r.seqCap[int(op)%len(r.seqCap)], op, tr, &buf)
				svc += s
				if !ok {
					continue
				}
				local = append(local, float64(s)/1e6)
				if k := int(time.Since(start) / capacityWindow); k < nw {
					counts[k].Add(1)
				}
			}
			mu.Lock()
			defer mu.Unlock()
			service += svc
			lat = append(lat, local...)
		}()
	}
	wg.Wait()
	rates := make([]float64, nw)
	for i := range counts {
		rates[i] = float64(counts[i].Load()) / capacityWindow.Seconds()
	}
	return rates, lat, int(r.capNext.Load() - first), service
}
