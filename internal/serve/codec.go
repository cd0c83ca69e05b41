// JSON codecs for the engine's result types. The internal structs stay
// wire-format-free (Predicate is an interface-heavy tree, Breakdown has no
// tags); these DTOs pin a stable, documented JSON shape for the service.
package serve

import (
	"encoding/json"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"strings"

	"charles/internal/core"
	"charles/internal/model"
	"charles/internal/score"
)

// BreakdownJSON mirrors score.Breakdown.
type BreakdownJSON struct {
	Score            float64 `json:"score"`
	Accuracy         float64 `json:"accuracy"`
	Interpretability float64 `json:"interpretability"`
	Size             float64 `json:"size"`
	CondSimplicity   float64 `json:"condSimplicity"`
	TranSimplicity   float64 `json:"tranSimplicity"`
	Coverage         float64 `json:"coverage"`
	Normality        float64 `json:"normality"`
	MAE              float64 `json:"mae"`
	Scale            float64 `json:"scale"`
}

// CTJSON is one conditional transformation: the display strings the CLI
// prints plus the structured pieces (inputs, coefficients) so clients can
// re-render or apply the transformation themselves.
type CTJSON struct {
	Condition      string    `json:"condition"`
	Transformation string    `json:"transformation"`
	NoChange       bool      `json:"noChange,omitempty"`
	Inputs         []string  `json:"inputs,omitempty"`
	Coef           []float64 `json:"coef,omitempty"`
	Intercept      float64   `json:"intercept,omitempty"`
	Rows           int       `json:"rows"`
	Coverage       float64   `json:"coverage"`
	MAE            float64   `json:"mae"`
}

// SummaryJSON is a set of CTs for one target attribute.
type SummaryJSON struct {
	Target    string   `json:"target"`
	CTs       []CTJSON `json:"cts"`
	CondAttrs []string `json:"condAttrs,omitempty"`
	TranAttrs []string `json:"tranAttrs,omitempty"`
}

// RankedJSON pairs a summary with its evaluated score.
type RankedJSON struct {
	Summary   SummaryJSON   `json:"summary"`
	Breakdown BreakdownJSON `json:"breakdown"`
	NoChange  bool          `json:"noChange,omitempty"`
}

func encodeBreakdown(b *score.Breakdown) BreakdownJSON {
	return BreakdownJSON{
		Score:            b.Score,
		Accuracy:         b.Accuracy,
		Interpretability: b.Interpretability,
		Size:             b.Size,
		CondSimplicity:   b.CondSimplicity,
		TranSimplicity:   b.TranSimplicity,
		Coverage:         b.Coverage,
		Normality:        b.Normality,
		MAE:              b.MAE,
		Scale:            b.Scale,
	}
}

func encodeCT(ct model.CT) CTJSON {
	out := CTJSON{
		Condition:      ct.Cond.String(),
		Transformation: ct.Tran.String(),
		NoChange:       ct.Tran.NoChange,
		Rows:           ct.Rows,
		Coverage:       ct.Coverage,
		MAE:            ct.MAE,
	}
	if !ct.Tran.NoChange {
		out.Inputs = ct.Tran.InputNames()
		out.Coef = ct.Tran.Coef
		out.Intercept = ct.Tran.Intercept
	}
	return out
}

func encodeSummary(s *model.Summary) SummaryJSON {
	cts := make([]CTJSON, len(s.CTs))
	for i, ct := range s.CTs {
		cts[i] = encodeCT(ct)
	}
	return SummaryJSON{
		Target:    s.Target,
		CTs:       cts,
		CondAttrs: s.CondAttrs,
		TranAttrs: s.TranAttrs,
	}
}

// EncodeRanked converts engine results to their wire form.
func EncodeRanked(ranked []core.Ranked) []RankedJSON {
	out := make([]RankedJSON, len(ranked))
	for i, r := range ranked {
		out[i] = RankedJSON{
			Summary:   encodeSummary(r.Summary),
			Breakdown: encodeBreakdown(r.Breakdown),
			NoChange:  r.NoChange,
		}
	}
	return out
}

// rankedPrefix is the indentation of a step's "ranked" field in a
// POST /timeline body: targets → target → steps → step puts the field five
// levels deep.
var rankedPrefix = strings.Repeat("  ", 5)

// encodeRankedWire encodes a step's ranking as it appears after `"ranked": `
// in an indented POST /timeline body, so the bytes can be copied into every
// answer that includes the step.
func encodeRankedWire(ranked []RankedJSON) ([]byte, error) {
	return json.MarshalIndent(ranked, rankedPrefix, "  ")
}

// writeTimeline writes tb as a 200 POST /timeline body. Like writeJSON, it
// writes no body when a value cannot be encoded.
func writeTimeline(w http.ResponseWriter, tb *timelineBody) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	if tb.err != nil {
		return
	}
	_, _ = w.Write(tb.appendJSON(nil))
}

// appendJSON appends the body in the layout writeJSON's indented
// json.Encoder gives the wire struct (the head, versions, steps, live,
// cached, targets and skipped fields; omitempty fields left out when
// empty; a timeline always has versions and steps, and no targets when no
// numeric attribute changed), copying each step's ranked bytes in. Strings
// go through json.Marshal, so their escaping is encoding/json's.
func (tb *timelineBody) appendJSON(b []byte) []byte {
	n := 512 + 64*len(tb.versions)
	for _, t := range tb.targets {
		n += 256 + 128*len(t.drifts)
		for _, st := range t.steps {
			n += 256 + len(st.ranked)
		}
	}
	b = slices.Grow(b, n)
	b = append(b, "{\n  \"head\": "...)
	b = appendString(b, tb.head)
	b = append(b, ",\n  \"versions\": ["...)
	for i, v := range tb.versions {
		b = appendSep(b, i, "    ")
		b = appendString(b, v)
	}
	b = appendClose(b, len(tb.versions), "  ")
	b = append(b, ",\n  \"steps\": "...)
	b = strconv.AppendInt(b, int64(tb.steps), 10)
	if tb.live {
		b = append(b, ",\n  \"live\": true"...)
	}
	if tb.cached {
		b = append(b, ",\n  \"cached\": true"...)
	}
	b = append(b, ",\n  \"targets\": "...)
	if tb.targets == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i := range tb.targets {
			b = appendSep(b, i, "    ")
			b = tb.targets[i].appendJSON(b)
		}
		b = appendClose(b, len(tb.targets), "  ")
	}
	if len(tb.skipped) > 0 {
		keys := make([]string, 0, len(tb.skipped))
		for k := range tb.skipped {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		b = append(b, ",\n  \"skipped\": {"...)
		for i, k := range keys {
			b = appendSep(b, i, "    ")
			b = appendString(b, k)
			b = append(b, ": "...)
			b = appendString(b, tb.skipped[k])
		}
		b = append(b, "\n  }"...)
	}
	return append(b, "\n}\n"...)
}

// appendJSON appends one element of the body's "targets" array.
func (t *timelineTarget) appendJSON(b []byte) []byte {
	b = append(b, "{\n      \"target\": "...)
	b = appendString(b, t.name)
	b = append(b, ",\n      \"steps\": ["...)
	for i, st := range t.steps {
		b = appendSep(b, i, "        ")
		b = append(b, "{\n          \"from\": "...)
		b = appendString(b, st.from)
		b = append(b, ",\n          \"to\": "...)
		b = appendString(b, st.to)
		if st.noChange {
			b = append(b, ",\n          \"noChange\": true"...)
		}
		if st.cached {
			b = append(b, ",\n          \"cached\": true"...)
		}
		if len(st.ranked) > 0 {
			b = append(b, ",\n          \"ranked\": "...)
			b = append(b, st.ranked...)
		}
		b = append(b, "\n        }"...)
	}
	b = appendClose(b, len(t.steps), "      ")
	if len(t.drifts) > 0 {
		b = append(b, ",\n      \"drifts\": ["...)
		for i, d := range t.drifts {
			b = appendSep(b, i, "        ")
			b = append(b, "{\n          \"stepA\": "...)
			b = strconv.AppendInt(b, int64(d.StepA), 10)
			b = append(b, ",\n          \"stepB\": "...)
			b = strconv.AppendInt(b, int64(d.StepB), 10)
			b = append(b, ",\n          \"samePartitioning\": "...)
			b = strconv.AppendBool(b, d.SamePartitioning)
			b = append(b, ",\n          \"note\": "...)
			b = appendString(b, d.Note)
			b = append(b, "\n        }"...)
		}
		b = append(b, "\n      ]"...)
	}
	return append(b, "\n    }"...)
}

// appendSep starts element i of an indented array or object whose
// elements sit at indent.
func appendSep(b []byte, i int, indent string) []byte {
	if i > 0 {
		b = append(b, ',')
	}
	b = append(b, '\n')
	return append(b, indent...)
}

// appendClose ends an indented array of n elements whose opening line
// sits at indent; an empty one stays "[]".
func appendClose(b []byte, n int, indent string) []byte {
	if n > 0 {
		b = append(b, '\n')
		b = append(b, indent...)
	}
	return append(b, ']')
}

// appendString appends s as a JSON string, escaped as encoding/json
// escapes it.
func appendString(b []byte, s string) []byte {
	q, _ := json.Marshal(s) // a string always encodes
	return append(b, q...)
}
