// Package model defines the shared representation of ChARLES output: the
// conditional transformation (CT) and the change summary (a set of CTs).
// It sits below the scoring, tree-rendering, search, and baseline layers so
// they can exchange summaries without import cycles.
package model

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"

	"charles/internal/predicate"
	"charles/internal/table"
)

// Transformation describes how the target attribute changed within one
// partition: new_target = Σ Coef[i]·feature_i(source row) + Intercept, or
// NoChange (identity). Features are read from the *source* snapshot, so
// `bonus` on the right-hand side means last year's bonus.
//
// The common linear case names plain attributes via Inputs; when the
// nonlinear extension is active, Features carries derived inputs
// (ln(pay), pay², pay·grade) and takes precedence over Inputs.
type Transformation struct {
	Target    string
	Inputs    []string  // attribute names (linear features); ignored when Features is set
	Features  []Feature // derived features; optional
	Coef      []float64 // aligned with Features if set, else with Inputs
	Intercept float64
	NoChange  bool
}

// features returns the effective feature list in either representation.
func (tr Transformation) features() []Feature {
	if tr.Features != nil {
		return tr.Features
	}
	fs := make([]Feature, len(tr.Inputs))
	for i, in := range tr.Inputs {
		fs[i] = Lin(in)
	}
	return fs
}

// InputNames returns the display names of the effective inputs.
func (tr Transformation) InputNames() []string {
	fs := tr.features()
	names := make([]string, len(fs))
	for i, f := range fs {
		names[i] = f.Name()
	}
	return names
}

// Identity returns the no-change transformation for the target attribute.
func Identity(target string) Transformation {
	return Transformation{Target: target, NoChange: true}
}

// Apply evaluates the transformation for row r of the source table.
func (tr Transformation) Apply(src *table.Table, r int) (float64, error) {
	if tr.NoChange {
		col, err := src.Column(tr.Target)
		if err != nil {
			return 0, err
		}
		return col.Float(r), nil
	}
	s := tr.Intercept
	for i, f := range tr.features() {
		v, err := f.Eval(src, r)
		if err != nil {
			return 0, err
		}
		s += tr.Coef[i] * v
	}
	return s, nil
}

// Complexity counts the variables in the linear equation (the paper's
// "transformation with fewer variables is preferred"). NoChange counts 0.
func (tr Transformation) Complexity() int {
	if tr.NoChange {
		return 0
	}
	n := 0
	for _, c := range tr.Coef {
		if c != 0 {
			n++
		}
	}
	return n
}

// Constants returns the numeric constants appearing in the transformation
// (nonzero coefficients and intercept), for normality scoring.
func (tr Transformation) Constants() []float64 {
	if tr.NoChange {
		return nil
	}
	var out []float64
	for _, c := range tr.Coef {
		if c != 0 {
			out = append(out, c)
		}
	}
	if tr.Intercept != 0 {
		out = append(out, tr.Intercept)
	}
	return out
}

// String renders e.g. "new_bonus = 1.05×bonus + 1000" or "no change".
func (tr Transformation) String() string {
	if tr.NoChange {
		return "no change"
	}
	rhs := ""
	for i, in := range tr.InputNames() {
		c := tr.Coef[i]
		if c == 0 {
			continue
		}
		term := fmt.Sprintf("%s×%s", fmtConst(math.Abs(c)), in)
		switch {
		case rhs == "" && c < 0:
			rhs = "-" + term
		case rhs == "":
			rhs = term
		case c < 0:
			rhs += " - " + term
		default:
			rhs += " + " + term
		}
	}
	switch {
	case rhs == "":
		rhs = fmtConst(tr.Intercept)
	case tr.Intercept > 0:
		rhs += " + " + fmtConst(tr.Intercept)
	case tr.Intercept < 0:
		rhs += " - " + fmtConst(-tr.Intercept)
	}
	return fmt.Sprintf("new_%s = %s", tr.Target, rhs)
}

func fmtConst(x float64) string { return fmt.Sprintf("%.6g", x) }

// appendFingerprint appends a canonical identity to b, with constants
// rounded so that numerically indistinguishable transformations collide:
// the nonzero terms "key*coef" sorted, then "+intercept", joined by '|'
// (constants as %.6g).
func (tr Transformation) appendFingerprint(b []byte) []byte {
	if tr.NoChange {
		return append(b, "id"...)
	}
	fs := tr.features()
	var buf [4]string
	terms := buf[:0]
	for i, f := range fs {
		if tr.Coef[i] == 0 {
			continue
		}
		t := f.appendKey(make([]byte, 0, 32))
		t = append(t, '*')
		terms = append(terms, string(strconv.AppendFloat(t, tr.Coef[i], 'g', 6, 64)))
	}
	slices.Sort(terms)
	for _, t := range terms {
		b = append(b, t...)
		b = append(b, '|')
	}
	b = append(b, '+')
	return strconv.AppendFloat(b, tr.Intercept, 'g', 6, 64)
}

// CT is a conditional transformation: the unit of explanation. The condition
// selects a data partition; the transformation describes the change there.
type CT struct {
	Cond predicate.Predicate
	Tran Transformation

	// Diagnostics filled by the search engine:
	Rows     int     // rows in the partition (source table)
	Coverage float64 // Rows / total rows
	MAE      float64 // mean absolute error of Tran on the partition
}

// String renders "edu = PhD  →  new_bonus = 1.05×bonus + 1000".
func (ct CT) String() string {
	return fmt.Sprintf("%s  →  %s", ct.Cond, ct.Tran)
}

// Summary is a set of CTs explaining the evolution of one target attribute
// between two snapshots.
type Summary struct {
	Target string
	CTs    []CT

	// Provenance: which attribute subsets generated this summary.
	CondAttrs []string
	TranAttrs []string
}

// Size returns the number of CTs.
func (s *Summary) Size() int { return len(s.CTs) }

// Fingerprint identifies semantically equal summaries (order-insensitive).
func (s *Summary) Fingerprint() string {
	parts := make([]string, len(s.CTs))
	var b []byte
	for i, ct := range s.CTs {
		b = ct.Cond.AppendFingerprint(b[:0])
		b = append(b, "=>"...)
		b = ct.Tran.appendFingerprint(b)
		parts[i] = string(b)
	}
	slices.Sort(parts)
	b = append(b[:0], s.Target...)
	b = append(b, "::"...)
	for i, p := range parts {
		if i > 0 {
			b = append(b, ";;"...)
		}
		b = append(b, p...)
	}
	return string(b)
}

// Apply produces the predicted target column: for each source row, the first
// CT (in order) whose condition matches is applied; unmatched rows predict
// "no change". Returns the predictions and a mask of rows covered by some CT.
func (s *Summary) Apply(src *table.Table) ([]float64, []bool, error) {
	n := src.NumRows()
	preds := make([]float64, n)
	covered := make([]bool, n)
	tcol, err := src.Column(s.Target)
	if err != nil {
		return nil, nil, err
	}
	for r := 0; r < n; r++ {
		preds[r] = tcol.Float(r) // default: unchanged
		for _, ct := range s.CTs {
			ok, err := ct.Cond.Eval(src, r)
			if err != nil {
				return nil, nil, err
			}
			if ok {
				v, err := ct.Tran.Apply(src, r)
				if err != nil {
					return nil, nil, err
				}
				preds[r] = v
				covered[r] = true
				break
			}
		}
	}
	return preds, covered, nil
}

// String renders the summary as one CT per line.
func (s *Summary) String() string {
	var b strings.Builder
	for i, ct := range s.CTs {
		fmt.Fprintf(&b, "CT%d: %s\n", i+1, ct.String())
	}
	return b.String()
}
