package core

import (
	"bytes"
	"compress/gzip"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"

	"charles/internal/gen"
	"charles/internal/table"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/rankings.golden.gz from the current engine")

// TestRankingsGolden pins every field of every Ranked the engine returns —
// scores, coefficients, diagnostics, provenance — byte for byte against a
// golden dump (gzipped; zcat shows it). Floats are written in their shortest exact form, so any
// change in the floating-point work behind a ranking (a reordered sum, a
// different solver step) fails here even when the rendered summaries do
// not move. Performance work on the engine must keep this file unchanged;
// regenerate it (-update-golden) only for an intended change of results.
func TestRankingsGolden(t *testing.T) {
	var b bytes.Buffer
	for seed := int64(1); seed <= 3; seed++ {
		snaps, err := gen.Chain(gen.ChainConfig{N: 150, Steps: 3, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		goldenChain(t, &b, fmt.Sprintf("chain seed=%d", seed), snaps, DefaultOptions(""))
	}
	// Non-default engine paths, on one chain: plain OLS fits, derived
	// features, and the ablation signal without refinement.
	snaps, err := gen.Chain(gen.ChainConfig{N: 150, Steps: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	variants := []struct {
		name string
		edit func(*Options)
	}{
		{"robust=false", func(o *Options) { o.Robust = false }},
		{"nonlinear", func(o *Options) { o.Nonlinear = true }},
		{"delta norefine", func(o *Options) { o.Strategy = DeltaKMeans; o.NoRefine = true }},
	}
	for _, v := range variants {
		opts := DefaultOptions("")
		v.edit(&opts)
		goldenChain(t, &b, "chain seed=1 "+v.name, snaps, opts)
	}
	src, tgt := gen.Toy()
	goldenChain(t, &b, "toy", []*table.Table{src, tgt}, DefaultOptions(""))

	path := filepath.Join("testdata", "rankings.golden.gz")
	if *updateGolden {
		var z bytes.Buffer
		zw, _ := gzip.NewWriterLevel(&z, gzip.BestCompression)
		zw.Write(b.Bytes())
		if err := zw.Close(); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, z.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	want, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.Bytes(); !bytes.Equal(got, want) {
		gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("rankings differ from %s at line %d:\n got: %s\nwant: %s", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("rankings differ from %s: %d lines, want %d", path, len(gl), len(wl))
	}
}

// goldenChain appends the whole-table ranking of every step of snaps.
func goldenChain(t *testing.T, b *bytes.Buffer, name string, snaps []*table.Table, opts Options) {
	t.Helper()
	for step := 0; step+1 < len(snaps); step++ {
		res, err := SummarizeAll(snaps[step], snaps[step+1], opts)
		if err != nil {
			t.Fatalf("%s step %d: %v", name, step, err)
		}
		fmt.Fprintf(b, "== %s step=%d skipped=%v\n", name, step, res.Skipped)
		for _, attr := range res.Attrs {
			for i, r := range res.ByAttr[attr] {
				fmt.Fprintf(b, "%s #%d ", attr, i)
				dumpValue(b, reflect.ValueOf(r))
				b.WriteByte('\n')
			}
		}
	}
}

// dumpValue writes v with every exported and unexported field, floats in
// their shortest round-trip form (so equal output means equal bits, up to
// the sign of NaN payloads).
func dumpValue(b *bytes.Buffer, v reflect.Value) {
	switch v.Kind() {
	case reflect.Pointer, reflect.Interface:
		if v.IsNil() {
			b.WriteString("nil")
			return
		}
		dumpValue(b, v.Elem())
	case reflect.Struct:
		b.WriteByte('{')
		for i := 0; i < v.NumField(); i++ {
			if i > 0 {
				b.WriteByte(' ')
			}
			b.WriteString(v.Type().Field(i).Name)
			b.WriteByte(':')
			dumpValue(b, v.Field(i))
		}
		b.WriteByte('}')
	case reflect.Slice, reflect.Array:
		if v.Kind() == reflect.Slice && v.IsNil() {
			b.WriteString("nil")
			return
		}
		b.WriteByte('[')
		for i := 0; i < v.Len(); i++ {
			if i > 0 {
				b.WriteByte(' ')
			}
			dumpValue(b, v.Index(i))
		}
		b.WriteByte(']')
	case reflect.Map:
		keys := v.MapKeys()
		sort.Slice(keys, func(i, j int) bool { return fmt.Sprint(keys[i]) < fmt.Sprint(keys[j]) })
		b.WriteString("map[")
		for i, k := range keys {
			if i > 0 {
				b.WriteByte(' ')
			}
			dumpValue(b, k)
			b.WriteByte(':')
			dumpValue(b, v.MapIndex(k))
		}
		b.WriteByte(']')
	case reflect.Float32, reflect.Float64:
		b.WriteString(strconv.FormatFloat(v.Float(), 'g', -1, 64))
	case reflect.String:
		b.WriteString(strconv.Quote(v.String()))
	case reflect.Bool:
		b.WriteString(strconv.FormatBool(v.Bool()))
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		b.WriteString(strconv.FormatInt(v.Int(), 10))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		b.WriteString(strconv.FormatUint(v.Uint(), 10))
	default:
		b.WriteString("?" + v.Kind().String())
	}
}
