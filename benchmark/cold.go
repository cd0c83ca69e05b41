package main

import (
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"charles/internal/core"
	"charles/internal/gen"
	"charles/internal/history"
	"charles/internal/serve"
	"charles/internal/store"
	"charles/internal/table"
)

// timeline-cold: one caller, closed loop. Each operation is a store-backed
// batch timeline over a chain committed in set-up and never summarized
// before, so no cache can answer it and the engine does almost all the
// work.
const (
	coldRows  = 150
	coldSteps = 3 // steps 1–3 change 2, 3 and 3 targets: all four over the chain
	// coldChainsPerSecond sizes the pool of fresh chains: 3–5× the 6–9
	// ops/s one caller reaches on a 2-vCPU VM (README.md), so an engine
	// that much faster still fills a run. A run that exhausts the pool
	// ends early; a traced run left with too few ops fails.
	coldChainsPerSecond = 30
	// coldRefSample is how many chains get a reference answer in set-up.
	coldRefSample = 2
)

// chainTargets are gen.Chain's four evolving attributes, in schema order.
var chainTargets = []string{"salary", "bonus", "overtime", "longevity"}

// plantedChange reports whether gen.Chain's schedule changes attr at step s
// (1-based): salary and bonus every step, overtime on even steps,
// longevity on every third.
func plantedChange(attr string, s int) bool {
	switch attr {
	case "overtime":
		return s%2 == 0
	case "longevity":
		return s%3 == 0
	}
	return true
}

// renderTop renders a ranking's #1 summary from its wire form: one
// "condition → transformation" line per CT.
func renderTop(ranked []serve.RankedJSON) string {
	if len(ranked) == 0 {
		return ""
	}
	var b strings.Builder
	for _, ct := range ranked[0].Summary.CTs {
		fmt.Fprintf(&b, "%s → %s\n", ct.Condition, ct.Transformation)
	}
	return b.String()
}

// referenceTops summarizes snapshots in-memory (no store) and returns the
// rendered #1 summary of every (target, step), steps 1-based.
func referenceTops(snaps []*table.Table) (map[string][]string, error) {
	opts := core.DefaultOptions("")
	opts.Workers = 1
	mt, err := history.SummarizeAll(snaps, opts)
	if err != nil {
		return nil, err
	}
	ref := map[string][]string{}
	for _, attr := range mt.Attrs {
		tops := make([]string, mt.Steps+1)
		for i, st := range mt.Timelines[attr].Steps {
			tops[i+1] = renderTop(serve.EncodeRanked(st.Ranked))
		}
		ref[attr] = tops
	}
	return ref, nil
}

type coldChain struct {
	st  *store.Store
	ids []string
	ref map[string][]string // nil outside the reference sample
}

type coldInstance struct {
	t      *tally
	chains []coldChain
	next   int
	opts   core.Options
}

func setupCold(cfg *config, t *tally) (instance, error) {
	n := int(cfg.seconds*coldChainsPerSecond) + 1
	inst := &coldInstance{t: t, opts: core.DefaultOptions("")}
	for i := 0; i < n; i++ {
		snaps, err := gen.Chain(gen.ChainConfig{N: coldRows, Steps: coldSteps, Seed: cfg.seed*1_000_003 + int64(i) + 1})
		if err != nil {
			return nil, err
		}
		st, err := store.Open("")
		if err != nil {
			return nil, err
		}
		ch := coldChain{st: st}
		parent := ""
		for _, snap := range snaps {
			v, err := st.Commit(snap, parent, "step")
			if err != nil {
				return nil, err
			}
			ch.ids = append(ch.ids, v.ID)
			parent = v.ID
		}
		if i < coldRefSample {
			if ch.ref, err = referenceTops(snaps); err != nil {
				return nil, err
			}
		}
		inst.chains = append(inst.chains, ch)
	}
	return inst, nil
}

func (c *coldInstance) close() {
	for _, ch := range c.chains {
		_ = ch.st.Close() // memory stores: nothing to flush
	}
}

func (c *coldInstance) storeRatio() float64 {
	var pack, logical int64
	for _, ch := range c.chains {
		s := ch.st.Stats()
		pack += s.PackBytes
		logical += s.LogicalBytes
	}
	return float64(pack) / float64(logical)
}

type coldStepJSON struct {
	From     int                `json:"from"`
	To       int                `json:"to"`
	NoChange bool               `json:"noChange,omitempty"`
	Ranked   []serve.RankedJSON `json:"ranked,omitempty"`
}

type coldTargetJSON struct {
	Target string         `json:"target"`
	Steps  []coldStepJSON `json:"steps"`
}

// encodeTimeline is the wire encoding the serve layer gives a timeline:
// every step through serve.EncodeRanked, then JSON.
func encodeTimeline(mt *history.MultiTimeline) ([]coldTargetJSON, []byte, error) {
	out := make([]coldTargetJSON, 0, len(mt.Attrs))
	for _, attr := range mt.Attrs {
		tj := coldTargetJSON{Target: attr}
		for _, st := range mt.Timelines[attr].Steps {
			tj.Steps = append(tj.Steps, coldStepJSON{
				From: st.From, To: st.To, NoChange: st.NoChange, Ranked: serve.EncodeRanked(st.Ranked),
			})
		}
		out = append(out, tj)
	}
	body, err := json.Marshal(out)
	return out, body, err
}

// checkColdAnswer verifies a timeline against the planted schedule and,
// for reference chains, every #1 summary's rendering.
func checkColdAnswer(enc []coldTargetJSON, steps int, ref map[string][]string) error {
	if len(enc) != len(chainTargets) {
		return wrongf("timeline has %d targets, want %d", len(enc), len(chainTargets))
	}
	for i, tj := range enc {
		if tj.Target != chainTargets[i] {
			return wrongf("target %d is %q, want %q", i, tj.Target, chainTargets[i])
		}
		if len(tj.Steps) != steps {
			return wrongf("%s has %d steps, want %d", tj.Target, len(tj.Steps), steps)
		}
		for s, st := range tj.Steps {
			want := plantedChange(tj.Target, s+1)
			if st.NoChange == want || (want && len(st.Ranked) == 0) {
				return wrongf("%s step %d: noChange=%v with %d summaries, planted change=%v",
					tj.Target, s+1, st.NoChange, len(st.Ranked), want)
			}
			if ref != nil && want {
				if got := renderTop(st.Ranked); got != ref[tj.Target][s+1] {
					return wrongf("%s step %d: #1 summary\n%s\nwant\n%s", tj.Target, s+1, got, ref[tj.Target][s+1])
				}
			}
		}
	}
	return nil
}

func (c *coldInstance) run(seconds float64, tr *tracer) (*measurement, error) {
	m := &measurement{layers: map[string]float64{}}
	var engineRuns int
	cache0, index0 := core.AccelBuilds()
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	for time.Now().Before(deadline) && c.next < len(c.chains) {
		op := int64(c.next)
		ch := c.chains[c.next]
		c.next++
		t0 := time.Now()
		root := tr.begin("timeline-cold.op", op, 0)
		// history.SummarizeChain is exactly these two calls; calling them
		// here lets the traced run time each half on the same code path.
		var mt *history.MultiTimeline
		sp := tr.begin("history.materialize", op, root.id)
		snaps, err := history.MaterializeChain(ch.st, ch.ids)
		tr.end(sp)
		if err == nil {
			sp = tr.begin("history.summarize", op, root.id)
			mt, err = history.SummarizeAll(snaps, c.opts)
			tr.end(sp)
		}
		var enc []coldTargetJSON
		if err == nil {
			sp = tr.begin("serve.encode", op, root.id)
			enc, _, err = encodeTimeline(mt)
			tr.end(sp)
		}
		tr.end(root)
		elapsed := time.Since(t0)
		m.ops++
		if err == nil {
			err = checkColdAnswer(enc, coldSteps, ch.ref)
		}
		if c.t.record(err) {
			m.lat = append(m.lat, float64(elapsed)/1e6)
			for _, tj := range enc {
				for _, st := range tj.Steps {
					if len(st.Ranked) > 0 {
						engineRuns++
					}
				}
			}
		}
	}
	wall := time.Since(start).Seconds()
	m.throughput = float64(len(m.lat)) / wall
	if c.next == len(c.chains) && time.Now().Before(deadline) {
		m.notes = append(m.notes, fmt.Sprintf("# timeline-cold: pool of %d fresh chains exhausted after %.1fs", len(c.chains), wall))
	}
	if tr != nil && m.ops > 0 {
		cache1, index1 := core.AccelBuilds()
		durs := tr.durationsMS()
		m.layers["history.materialize_ms"] = median(durs["history.materialize"])
		m.layers["history.summarize_ms"] = median(durs["history.summarize"])
		m.layers["serve.encode_ms"] = median(durs["serve.encode"])
		m.layers["core.engine_runs_per_op"] = float64(engineRuns) / float64(m.ops)
		m.layers["core.accel_builds_per_op"] = float64(cache1-cache0+index1-index0) / float64(m.ops)
	}
	return m, nil
}
