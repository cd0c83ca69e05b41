package predicate

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// keyOrderAtom draws atoms that stress the canonical key order: attribute
// names that are prefixes of each other or contain '|', every operator
// (and out-of-range ones) on both numeric and categorical atoms, In sets,
// and thresholds at ±0, NaN, ±Inf, 1e300 and values equal to 12 digits.
func keyOrderAtom(rng *rand.Rand) Atom {
	attrs := []string{"a", "ab", "a|", "a|b", "a|0", "a|in", "b", "", "|", "edu", "edu2", "x|2|5"}
	nums := []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1), 1e300, -1e300,
		1, 2, 10, 1.5, 25, 3, 0.1234567890123, 0.12345678901234, 5e-324}
	strs := []string{"", "MS", "PhD", "M", "MSc", "5", "2|5", "a,b"}
	ops := []Op{Eq, Ne, Lt, Ge, In, Op(7), Op(12), Op(-1)}
	a := Atom{Attr: attrs[rng.Intn(len(attrs))], Op: ops[rng.Intn(len(ops))]}
	switch rng.Intn(3) {
	case 0:
		a.Numeric = true
		a.Num = nums[rng.Intn(len(nums))]
	case 1:
		a.Str = strs[rng.Intn(len(strs))]
	default:
		for i := rng.Intn(3); i >= 0; i-- {
			a.Set = append(a.Set, strs[rng.Intn(len(strs))])
		}
		sort.Strings(a.Set)
	}
	return a
}

func sign(c int) int {
	switch {
	case c < 0:
		return -1
	case c > 0:
		return 1
	}
	return 0
}

// TestAtomCompareMatchesKeyOrder pins the short-circuiting comparator to
// its definition: the byte order of the two canonical keys.
func TestAtomCompareMatchesKeyOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for i := 0; i < 200000; i++ {
		a, b := keyOrderAtom(rng), keyOrderAtom(rng)
		if rng.Intn(8) == 0 {
			b = a // equal atoms, NaN thresholds included
		}
		want := bytes.Compare(a.appendKey(nil), b.appendKey(nil))
		if got := atomCompare(a, b); sign(got) != want {
			t.Fatalf("atomCompare(%#v, %#v) = %d, want %d (keys %q, %q)",
				a, b, got, want, a.appendKey(nil), b.appendKey(nil))
		}
	}
}

// normalizeReference is Normalize as it was before the allocation-light
// rewrite: per-attribute bound maps and a key-string dedup set.
func normalizeReference(p Predicate) Predicate {
	var lt, ge map[string]float64
	eqAttr := map[string]string{}
	for _, a := range p.Atoms {
		if !a.Numeric && a.Op == Eq {
			eqAttr[a.Attr] = a.Str
		}
	}
	var rest []Atom
	seen := map[string]bool{}
	for _, a := range p.Atoms {
		switch {
		case a.Numeric && a.Op == Lt:
			if cur, ok := lt[a.Attr]; !ok || a.Num < cur {
				if lt == nil {
					lt = map[string]float64{}
				}
				lt[a.Attr] = a.Num
			}
		case a.Numeric && a.Op == Ge:
			if cur, ok := ge[a.Attr]; !ok || a.Num > cur {
				if ge == nil {
					ge = map[string]float64{}
				}
				ge[a.Attr] = a.Num
			}
		default:
			if !a.Numeric && a.Op == Ne {
				if v, ok := eqAttr[a.Attr]; ok && v != a.Str {
					continue
				}
			}
			k := string(a.appendKey(nil))
			if !seen[k] {
				seen[k] = true
				rest = append(rest, a)
			}
		}
	}
	atoms := append([]Atom(nil), rest...)
	for attr, v := range ge {
		atoms = append(atoms, NumAtom(attr, Ge, v))
	}
	for attr, v := range lt {
		atoms = append(atoms, NumAtom(attr, Lt, v))
	}
	sort.SliceStable(atoms, func(i, j int) bool {
		return bytes.Compare(atoms[i].appendKey(nil), atoms[j].appendKey(nil)) < 0
	})
	return Predicate{Atoms: atoms}
}

// TestNormalizeMatchesReference compares Normalize with the map-based
// reference on random conjunctions over a few attributes, where merges,
// implied ≠ atoms and duplicates are common. NaN thresholds are left out:
// their merge depends on map iteration order in the reference.
func TestNormalizeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	attrs := []string{"a", "ab", "b"}
	vals := []string{"x", "y", "z"}
	for i := 0; i < 20000; i++ {
		var p Predicate
		for j := rng.Intn(6); j >= 0; j-- {
			attr := attrs[rng.Intn(len(attrs))]
			switch rng.Intn(4) {
			case 0:
				p.Atoms = append(p.Atoms, NumAtom(attr, Lt, float64(rng.Intn(4))))
			case 1:
				p.Atoms = append(p.Atoms, NumAtom(attr, Ge, float64(rng.Intn(4))))
			case 2:
				p.Atoms = append(p.Atoms, StrAtom(attr, Eq, vals[rng.Intn(len(vals))]))
			default:
				p.Atoms = append(p.Atoms, StrAtom(attr, Ne, vals[rng.Intn(len(vals))]))
			}
		}
		got, want := p.Normalize(), normalizeReference(p)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("Normalize(%v) = %v, reference %v", p, got, want)
		}
	}
}
