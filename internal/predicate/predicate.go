// Package predicate implements the condition language of ChARLES: conjunctive
// predicates over table attributes. A condition is the "why" half of a
// conditional transformation — it identifies the data partition a
// transformation applies to, e.g. `edu = MS ∧ exp < 3`.
//
// Two evaluation paths exist: the row-at-a-time reference path (Atom.Eval,
// Predicate.Mask) and a compiled columnar path (Compile, CompileAtom,
// Cache) that materializes each atom as a Bitset once and reduces
// conjunctions to word-wise ANDs — the engine's candidate-evaluation hot
// path. Differential tests pin the two paths to each other.
package predicate

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"

	"charles/internal/table"
)

// Op is a comparison operator.
type Op int

// Supported operators. Numeric attributes use Lt/Ge (the decision-tree
// induction only produces half-open splits); categorical attributes use
// Eq/Ne/In.
const (
	Eq Op = iota // attr = value (categorical)
	Ne           // attr ≠ value (categorical)
	Lt           // attr < threshold (numeric)
	Ge           // attr ≥ threshold (numeric)
	In           // attr ∈ {set} (categorical)
)

// String returns the operator's display form.
func (o Op) String() string {
	switch o {
	case Eq:
		return "="
	case Ne:
		return "≠"
	case Lt:
		return "<"
	case Ge:
		return "≥"
	case In:
		return "∈"
	default:
		return fmt.Sprintf("Op(%d)", int(o))
	}
}

// Atom is a single comparison against one attribute.
type Atom struct {
	Attr    string
	Op      Op
	Num     float64  // threshold for Lt/Ge
	Str     string   // value for Eq/Ne
	Set     []string // values for In (sorted)
	Numeric bool     // true when the atom compares numerically
}

// NumAtom builds a numeric threshold atom.
func NumAtom(attr string, op Op, threshold float64) Atom {
	return Atom{Attr: attr, Op: op, Num: threshold, Numeric: true}
}

// StrAtom builds a categorical equality/inequality atom.
func StrAtom(attr string, op Op, value string) Atom {
	return Atom{Attr: attr, Op: op, Str: value}
}

// SetAtom builds a set-membership atom.
func SetAtom(attr string, values []string) Atom {
	s := append([]string(nil), values...)
	sort.Strings(s)
	return Atom{Attr: attr, Op: In, Set: s}
}

// Eval evaluates the atom against row r of t. Rows with nulls in the tested
// attribute never match.
func (a Atom) Eval(t *table.Table, r int) (bool, error) {
	col, err := t.Column(a.Attr)
	if err != nil {
		return false, err
	}
	if col.IsNull(r) {
		return false, nil
	}
	if a.Numeric {
		x := col.Float(r)
		switch a.Op {
		case Lt:
			return x < a.Num, nil
		case Ge:
			return x >= a.Num, nil
		case Eq:
			return x == a.Num, nil
		case Ne:
			return x != a.Num, nil
		default:
			return false, fmt.Errorf("predicate: numeric atom with operator %s", a.Op)
		}
	}
	s := col.Str(r)
	switch a.Op {
	case Eq:
		return s == a.Str, nil
	case Ne:
		return s != a.Str, nil
	case In:
		i := sort.SearchStrings(a.Set, s)
		return i < len(a.Set) && a.Set[i] == s, nil
	default:
		return false, fmt.Errorf("predicate: categorical atom with operator %s", a.Op)
	}
}

// String renders the atom, e.g. "edu = PhD" or "exp < 3".
func (a Atom) String() string {
	if a.Numeric {
		return fmt.Sprintf("%s %s %s", a.Attr, a.Op, formatNum(a.Num))
	}
	if a.Op == In {
		return fmt.Sprintf("%s ∈ {%s}", a.Attr, strings.Join(a.Set, ", "))
	}
	return fmt.Sprintf("%s %s %s", a.Attr, a.Op, a.Str)
}

func formatNum(x float64) string {
	if x == float64(int64(x)) && x < 1e15 && x > -1e15 {
		return strconv.FormatInt(int64(x), 10)
	}
	return strconv.FormatFloat(x, 'g', 6, 64)
}

// appendKey appends a's canonical form — the identity used for
// fingerprinting, dedup, and the compiled atom-bitmap cache — to b. Built
// with strconv appends rather than Sprintf (it runs for every atom of every
// candidate summary), but byte-identical to the historical Sprintf forms.
func (a Atom) appendKey(b []byte) []byte {
	b = append(b, a.Attr...)
	b = append(b, '|')
	switch {
	case a.Numeric: // "%s|%d|%.12g"
		b = strconv.AppendInt(b, int64(a.Op), 10)
		b = append(b, '|')
		b = strconv.AppendFloat(b, a.Num, 'g', 12, 64)
	case a.Op == In: // "%s|in|%s"
		b = append(b, "in|"...)
		for i, s := range a.Set {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, s...)
		}
	default: // "%s|%d|%s"
		b = strconv.AppendInt(b, int64(a.Op), 10)
		b = append(b, '|')
		b = append(b, a.Str...)
	}
	return b
}

// atomCompare orders atoms by their canonical keys (appendKey), deciding
// from the attribute bytes, the operator segment and — for categorical
// atoms — the value string wherever those settle the byte comparison, so
// the common comparisons format no number. It falls back to comparing the
// full keys only when they do not (two numeric thresholds, mixed or set
// values, an attribute name containing '|').
func atomCompare(a, b Atom) int {
	// Keys are Attr '|' op '|' value. Compare the attribute segments first.
	if a.Attr != b.Attr {
		n := min(len(a.Attr), len(b.Attr))
		if c := strings.Compare(a.Attr[:n], b.Attr[:n]); c != 0 {
			return c
		}
		// One name is a prefix of the other: that key's '|' meets the
		// other's next name byte.
		if len(a.Attr) < len(b.Attr) {
			if c := cmpByte('|', b.Attr[n]); c != 0 {
				return c
			}
		} else if c := cmpByte(a.Attr[n], '|'); c != 0 {
			return c
		}
		return keyCompare(a, b)
	}
	// Then the operator segments with their '|': neither contains another
	// '|', so unequal segments differ before either ends.
	var ab, bb [24]byte
	ao, bo := append(a.appendOp(ab[:0]), '|'), append(b.appendOp(bb[:0]), '|')
	if c := bytes.Compare(ao, bo); c != 0 {
		return c
	}
	// Same attribute and operator segment: the values decide. A
	// categorical value is the key's whole tail.
	if !a.Numeric && !b.Numeric && a.Op != In && b.Op != In {
		return strings.Compare(a.Str, b.Str)
	}
	if a.Numeric && b.Numeric && math.Float64bits(a.Num) == math.Float64bits(b.Num) {
		return 0
	}
	return keyCompare(a, b)
}

// appendOp appends the operator segment of a's canonical key.
func (a Atom) appendOp(b []byte) []byte {
	if !a.Numeric && a.Op == In {
		return append(b, "in"...)
	}
	return strconv.AppendInt(b, int64(a.Op), 10)
}

func cmpByte(a, b byte) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// keyCompare compares the full canonical keys (stack buffers; the
// reference order atomCompare reproduces).
func keyCompare(a, b Atom) int {
	var ab, bb [48]byte
	return bytes.Compare(a.appendKey(ab[:0]), b.appendKey(bb[:0]))
}

// Predicate is a conjunction of atoms. The empty predicate is TRUE (it
// matches every row) — used for global, unconditional transformations.
type Predicate struct {
	Atoms []Atom
}

// True returns the always-true predicate.
func True() Predicate { return Predicate{} }

// And returns a predicate extended with an extra atom (receiver unchanged).
func (p Predicate) And(a Atom) Predicate {
	atoms := make([]Atom, 0, len(p.Atoms)+1)
	atoms = append(atoms, p.Atoms...)
	atoms = append(atoms, a)
	return Predicate{Atoms: atoms}
}

// IsTrue reports whether the predicate matches all rows trivially.
func (p Predicate) IsTrue() bool { return len(p.Atoms) == 0 }

// Eval evaluates the conjunction against row r.
func (p Predicate) Eval(t *table.Table, r int) (bool, error) {
	for _, a := range p.Atoms {
		ok, err := a.Eval(t, r)
		if err != nil {
			return false, err
		}
		if !ok {
			return false, nil
		}
	}
	return true, nil
}

// Mask evaluates the predicate over all rows of t.
func (p Predicate) Mask(t *table.Table) ([]bool, error) {
	out := make([]bool, t.NumRows())
	for r := range out {
		ok, err := p.Eval(t, r)
		if err != nil {
			return nil, err
		}
		out[r] = ok
	}
	return out, nil
}

// Rows returns the indices of matching rows.
func (p Predicate) Rows(t *table.Table) ([]int, error) {
	var rows []int
	for r := 0; r < t.NumRows(); r++ {
		ok, err := p.Eval(t, r)
		if err != nil {
			return nil, err
		}
		if ok {
			rows = append(rows, r)
		}
	}
	return rows, nil
}

// Coverage returns the fraction of rows of t that match (0 for empty t).
func (p Predicate) Coverage(t *table.Table) (float64, error) {
	if t.NumRows() == 0 {
		return 0, nil
	}
	rows, err := p.Rows(t)
	if err != nil {
		return 0, err
	}
	return float64(len(rows)) / float64(t.NumRows()), nil
}

// Complexity counts the number of atoms (the paper's "fewer descriptors"
// interpretability criterion).
func (p Predicate) Complexity() int { return len(p.Atoms) }

// Attrs returns the distinct attributes referenced, sorted.
func (p Predicate) Attrs() []string {
	seen := map[string]bool{}
	for _, a := range p.Atoms {
		seen[a.Attr] = true
	}
	out := make([]string, 0, len(seen))
	for s := range seen {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// Normalize merges redundant atoms: multiple Lt atoms on one attribute keep
// only the tightest bound, likewise Ge; duplicate categorical atoms collapse;
// Ne atoms implied by an Eq atom on the same attribute are dropped
// (edu = MS subsumes edu ≠ PhD). Contradictory categorical equalities are
// preserved (the predicate simply matches nothing). The result is sorted
// canonically.
func (p Predicate) Normalize() Predicate {
	// Fast path: the engine repeatedly normalizes predicates that already
	// are (tree leaves are emitted normalized, then re-normalized by the
	// simplifier and every Fingerprint). Detecting that costs a few stack
	// comparisons and no allocations.
	if p.isNormalized() {
		return p
	}
	// Predicates are bounded at a handful of atoms, so the merge works by
	// linear scans over one output slice: the deduplicated non-bound atoms,
	// then the tightest ≥ bound per attribute, then the tightest < bound.
	atoms := make([]Atom, 0, len(p.Atoms))
	for _, a := range p.Atoms {
		if a.Numeric && (a.Op == Lt || a.Op == Ge) {
			continue
		}
		if !a.Numeric && a.Op == Ne {
			if v, ok := lastEq(p.Atoms, a.Attr); ok && v != a.Str {
				continue // implied by the equality on this attribute
			}
		}
		if !slices.ContainsFunc(atoms, func(b Atom) bool { return atomCompare(a, b) == 0 }) {
			atoms = append(atoms, a)
		}
	}
	atoms = appendBounds(atoms, p.Atoms, Ge)
	atoms = appendBounds(atoms, p.Atoms, Lt)
	// Insertion sort with the allocation-free comparator.
	for i := 1; i < len(atoms); i++ {
		for j := i; j > 0 && atomCompare(atoms[j-1], atoms[j]) > 0; j-- {
			atoms[j-1], atoms[j] = atoms[j], atoms[j-1]
		}
	}
	return Predicate{Atoms: atoms}
}

// lastEq returns the value of the last categorical equality on attr.
func lastEq(atoms []Atom, attr string) (string, bool) {
	for i := len(atoms) - 1; i >= 0; i-- {
		if a := atoms[i]; !a.Numeric && a.Op == Eq && a.Attr == attr {
			return a.Str, true
		}
	}
	return "", false
}

// appendBounds appends to out, per attribute in first-seen order, the
// tightest numeric bound with operator op (Lt: the least threshold, Ge: the
// greatest) among atoms.
func appendBounds(out, atoms []Atom, op Op) []Atom {
	start := len(out)
	for _, a := range atoms {
		if !a.Numeric || a.Op != op {
			continue
		}
		i := slices.IndexFunc(out[start:], func(b Atom) bool { return b.Attr == a.Attr })
		switch {
		case i < 0:
			out = append(out, NumAtom(a.Attr, op, a.Num))
		case op == Lt && a.Num < out[start+i].Num, op == Ge && a.Num > out[start+i].Num:
			out[start+i].Num = a.Num
		}
	}
	return out
}

// isNormalized reports whether Normalize would return p unchanged: atoms
// strictly sorted by canonical key (hence no duplicates), at most one bound
// per attribute and direction, and no ≠ atom implied by an equality.
func (p Predicate) isNormalized() bool {
	for i := 1; i < len(p.Atoms); i++ {
		a, b := p.Atoms[i-1], p.Atoms[i]
		if atomCompare(a, b) >= 0 {
			return false
		}
		// Same-attribute bounds sort adjacently (keys share the attr|op
		// prefix), so a pair needing a merge shows up here.
		if a.Numeric && b.Numeric && a.Op == b.Op && (a.Op == Lt || a.Op == Ge) && a.Attr == b.Attr {
			return false
		}
	}
	for _, a := range p.Atoms {
		if a.Numeric || a.Op != Ne {
			continue
		}
		for _, b := range p.Atoms {
			if !b.Numeric && b.Op == Eq && b.Attr == a.Attr && b.Str != a.Str {
				return false // implied by the equality; Normalize drops it
			}
		}
	}
	return true
}

// String renders the conjunction, e.g. "edu = MS ∧ exp < 3"; TRUE when empty.
func (p Predicate) String() string {
	if p.IsTrue() {
		return "TRUE"
	}
	parts := make([]string, len(p.Atoms))
	for i, a := range p.Atoms {
		parts[i] = a.String()
	}
	return strings.Join(parts, " ∧ ")
}

// Fingerprint returns a canonical identity string (normalization applied),
// so semantically equal predicates compare equal.
func (p Predicate) Fingerprint() string { return string(p.AppendFingerprint(nil)) }

// AppendFingerprint appends the fingerprint to b: the normalized atoms'
// canonical keys joined by '&'.
func (p Predicate) AppendFingerprint(b []byte) []byte {
	for i, a := range p.Normalize().Atoms {
		if i > 0 {
			b = append(b, '&')
		}
		b = a.appendKey(b)
	}
	return b
}

// Equal reports semantic equality via fingerprints.
func (p Predicate) Equal(o Predicate) bool { return p.Fingerprint() == o.Fingerprint() }
