package model

import (
	"math"
	"testing"

	"charles/internal/table"
)

func featureTable(t *testing.T) *table.Table {
	t.Helper()
	tbl := table.MustNew(table.Schema{
		{Name: "pay", Type: table.Float},
		{Name: "grade", Type: table.Int},
	})
	tbl.MustAppendRow(table.F(math.E), table.I(3))
	tbl.MustAppendRow(table.F(100), table.I(5))
	tbl.MustAppendRow(table.F(-4), table.I(2))
	tbl.MustAppendRow(table.Null(table.Float), table.I(1))
	return tbl
}

func TestFeatureEval(t *testing.T) {
	tbl := featureTable(t)
	cases := []struct {
		f    Feature
		row  int
		want float64
	}{
		{Lin("pay"), 1, 100},
		{Feature{Form: Log, Attr: "pay"}, 0, 1}, // ln(e) = 1
		{Feature{Form: Square, Attr: "pay"}, 1, 10000},
		{Feature{Form: Interaction, Attr: "pay", Attr2: "grade"}, 1, 500},
		{Feature{Form: Square, Attr: "pay"}, 2, 16},
	}
	for _, c := range cases {
		got, err := c.f.Eval(tbl, c.row)
		if err != nil {
			t.Fatalf("%s: %v", c.f.Name(), err)
		}
		if math.Abs(got-c.want) > 1e-12 {
			t.Errorf("%s row %d = %v, want %v", c.f.Name(), c.row, got, c.want)
		}
	}
}

func TestFeatureEvalDomainErrors(t *testing.T) {
	tbl := featureTable(t)
	// Log of a negative value is NaN (filtered by the engine's masks).
	v, err := Feature{Form: Log, Attr: "pay"}.Eval(tbl, 2)
	if err != nil || !math.IsNaN(v) {
		t.Errorf("log(-4) = %v, %v; want NaN", v, err)
	}
	// Null propagates as NaN.
	v, err = Lin("pay").Eval(tbl, 3)
	if err != nil || !math.IsNaN(v) {
		t.Errorf("null feature = %v, %v; want NaN", v, err)
	}
	// Unknown attribute is an error.
	if _, err := Lin("ghost").Eval(tbl, 0); err == nil {
		t.Error("unknown attribute accepted")
	}
	if _, err := (Feature{Form: Interaction, Attr: "pay", Attr2: "ghost"}).Eval(tbl, 0); err == nil {
		t.Error("unknown interaction attribute accepted")
	}
}

func TestFeatureNames(t *testing.T) {
	cases := map[string]Feature{
		"pay":       Lin("pay"),
		"ln(pay)":   {Form: Log, Attr: "pay"},
		"pay²":      {Form: Square, Attr: "pay"},
		"pay·grade": {Form: Interaction, Attr: "pay", Attr2: "grade"},
	}
	for want, f := range cases {
		if f.Name() != want {
			t.Errorf("Name = %q, want %q", f.Name(), want)
		}
	}
}

func TestFeatureAttrs(t *testing.T) {
	if got := Lin("pay").Attrs(); len(got) != 1 || got[0] != "pay" {
		t.Errorf("Attrs = %v", got)
	}
	inter := Feature{Form: Interaction, Attr: "a", Attr2: "b"}
	if got := inter.Attrs(); len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Errorf("interaction Attrs = %v", got)
	}
}

func TestInteractionKeyCommutes(t *testing.T) {
	ab := Feature{Form: Interaction, Attr: "a", Attr2: "b"}
	ba := Feature{Form: Interaction, Attr: "b", Attr2: "a"}
	key := func(f Feature) string { return string(f.appendKey(nil)) }
	if key(ab) != key(ba) {
		t.Errorf("interaction keys should commute: %q vs %q", key(ab), key(ba))
	}
	// But form still distinguishes.
	if key(Lin("a")) == key(Feature{Form: Square, Attr: "a"}) {
		t.Error("linear and square share a key")
	}
}

func TestFeatureTransformationApply(t *testing.T) {
	tbl := featureTable(t)
	tr := Transformation{
		Target:   "pay",
		Features: []Feature{Lin("pay"), {Form: Square, Attr: "pay"}},
		Coef:     []float64{1, 0.01},
	}
	got, err := tr.Apply(tbl, 1) // 100 + 0.01·10000 = 200
	if err != nil || got != 200 {
		t.Errorf("feature transformation Apply = %v, %v", got, err)
	}
	names := tr.InputNames()
	if len(names) != 2 || names[1] != "pay²" {
		t.Errorf("InputNames = %v", names)
	}
	if s := tr.String(); s != "new_pay = 1×pay + 0.01×pay²" {
		t.Errorf("String = %q", s)
	}
}

func TestFeatureVsInputsFingerprint(t *testing.T) {
	// Feature-form Lin(x) and Inputs-form "x" are the same transformation
	// and must share a fingerprint.
	a := Transformation{Target: "y", Features: []Feature{Lin("x")}, Coef: []float64{2}, Intercept: 1}
	b := Transformation{Target: "y", Inputs: []string{"x"}, Coef: []float64{2}, Intercept: 1}
	sa := &Summary{Target: "y", CTs: []CT{{Tran: a}}}
	sb := &Summary{Target: "y", CTs: []CT{{Tran: b}}}
	if sa.Fingerprint() != sb.Fingerprint() {
		t.Error("representations of the same transformation have different fingerprints")
	}
}
