package model

import (
	"fmt"
	"math"
	"strconv"

	"charles/internal/table"
)

// Form identifies the functional form of a derived regression feature. The
// paper's limitations section notes that ChARLES "relies on linear models
// ... this can be extended by augmenting the data with nonlinear features";
// Form is that extension: transformations stay linear *in the features*,
// and the features may be nonlinear in the attributes.
type Form int

const (
	// Linear is the attribute itself.
	Linear Form = iota
	// Log is the natural logarithm ln(attr); usable only when the
	// attribute is strictly positive over the fitted rows.
	Log
	// Square is attr².
	Square
	// Interaction is the product attr·attr2.
	Interaction
)

// Feature is one (possibly derived) regression input.
type Feature struct {
	Form  Form
	Attr  string
	Attr2 string // Interaction only
}

// Lin builds the identity feature for an attribute.
func Lin(attr string) Feature { return Feature{Form: Linear, Attr: attr} }

// Name returns the display / SQL-friendly name of the feature.
func (f Feature) Name() string {
	switch f.Form {
	case Linear:
		return f.Attr
	case Log:
		return fmt.Sprintf("ln(%s)", f.Attr)
	case Square:
		return fmt.Sprintf("%s²", f.Attr)
	case Interaction:
		return fmt.Sprintf("%s·%s", f.Attr, f.Attr2)
	default:
		return fmt.Sprintf("feature(%d,%s)", int(f.Form), f.Attr)
	}
}

// Attrs returns the underlying attribute names.
func (f Feature) Attrs() []string {
	if f.Form == Interaction {
		return []string{f.Attr, f.Attr2}
	}
	return []string{f.Attr}
}

// Eval computes the feature for row r of src. Nulls and domain errors
// (log of a non-positive value) yield NaN, which the engine's row masks
// filter out.
func (f Feature) Eval(src *table.Table, r int) (float64, error) {
	col, err := src.Column(f.Attr)
	if err != nil {
		return 0, err
	}
	x := col.Float(r)
	switch f.Form {
	case Linear:
		return x, nil
	case Log:
		if x <= 0 {
			return math.NaN(), nil
		}
		return math.Log(x), nil
	case Square:
		return x * x, nil
	case Interaction:
		col2, err := src.Column(f.Attr2)
		if err != nil {
			return 0, err
		}
		return x * col2.Float(r), nil
	default:
		return math.NaN(), nil
	}
}

// appendKey appends the feature's canonical identity, used in
// transformation fingerprints, to b.
func (f Feature) appendKey(b []byte) []byte {
	if f.Form == Interaction {
		// Product commutes: canonicalize the attribute order.
		a, c := f.Attr, f.Attr2
		if c < a {
			a, c = c, a
		}
		b = append(b, "x("...)
		b = append(b, a...)
		b = append(b, ',')
		b = append(b, c...)
		return append(b, ')')
	}
	b = strconv.AppendInt(b, int64(f.Form), 10)
	b = append(b, '(')
	b = append(b, f.Attr...)
	return append(b, ')')
}
