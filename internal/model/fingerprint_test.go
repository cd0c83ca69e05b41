package model

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"charles/internal/predicate"
)

// fingerprintReference is Summary.Fingerprint as it was built with Sprintf
// and string joins, before the append-based rewrite.
func fingerprintReference(s *Summary) string {
	featKey := func(f Feature) string {
		if f.Form == Interaction {
			a, b := f.Attr, f.Attr2
			if b < a {
				a, b = b, a
			}
			return fmt.Sprintf("x(%s,%s)", a, b)
		}
		return fmt.Sprintf("%d(%s)", int(f.Form), f.Attr)
	}
	tranFP := func(tr Transformation) string {
		if tr.NoChange {
			return "id"
		}
		fs := tr.features()
		var parts []string
		for i, f := range fs {
			if tr.Coef[i] == 0 {
				continue
			}
			parts = append(parts, fmt.Sprintf("%s*%.6g", featKey(f), tr.Coef[i]))
		}
		sort.Strings(parts)
		parts = append(parts, fmt.Sprintf("+%.6g", tr.Intercept))
		return strings.Join(parts, "|")
	}
	parts := make([]string, len(s.CTs))
	for i, ct := range s.CTs {
		parts[i] = ct.Cond.Fingerprint() + "=>" + tranFP(ct.Tran)
	}
	sort.Strings(parts)
	return s.Target + "::" + strings.Join(parts, ";;")
}

func TestFingerprintMatchesSprintfReference(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	consts := []float64{0, math.Copysign(0, -1), 1, -1, 1.05, 1000, 1234567.891, 1e-7, 1e21,
		math.NaN(), math.Inf(1), math.Inf(-1), 0.1 + 0.2}
	attrs := []string{"a", "b", "pay", "x|y"}
	for trial := 0; trial < 5000; trial++ {
		s := &Summary{Target: "pay"}
		for c := rng.Intn(4); c > 0; c-- {
			var ct CT
			if rng.Intn(3) == 0 {
				ct.Cond = predicate.True().And(predicate.NumAtom(attrs[rng.Intn(4)], predicate.Lt, consts[rng.Intn(len(consts))]))
			}
			switch rng.Intn(4) {
			case 0:
				ct.Tran = Identity("pay")
			case 1:
				ct.Tran = Transformation{Target: "pay", Inputs: []string{attrs[rng.Intn(4)]}, Coef: []float64{consts[rng.Intn(len(consts))]}}
			default:
				for f := 1 + rng.Intn(5); f > 0; f-- {
					ct.Tran.Features = append(ct.Tran.Features, Feature{Form: Form(rng.Intn(4)), Attr: attrs[rng.Intn(4)], Attr2: attrs[rng.Intn(4)]})
					ct.Tran.Coef = append(ct.Tran.Coef, consts[rng.Intn(len(consts))])
				}
			}
			ct.Tran.Intercept = consts[rng.Intn(len(consts))]
			s.CTs = append(s.CTs, ct)
		}
		if got, want := s.Fingerprint(), fingerprintReference(s); got != want {
			t.Fatalf("Fingerprint = %q, reference %q", got, want)
		}
	}
}
