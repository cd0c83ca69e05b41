package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestPackageOf(t *testing.T) {
	for fn, want := range map[string]string{
		"charles/internal/core.(*engine).run.func1":                        "charles/internal/core",
		"charles/internal/store.(*lruCache[go.shape.*uint8]).get":          "charles/internal/store",
		"charles/internal/store.newSizedLRU[charles/internal/table.Table]": "charles/internal/store",
		"runtime.mallocgc":                     "runtime",
		"encoding/json.(*encodeState).marshal": "encoding/json",
		"net/http.(*conn).serve":               "net/http",
		"main.(*readInstance).issue":           "main",
	} {
		if got := packageOf(fn); got != want {
			t.Errorf("packageOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestStackBucket(t *testing.T) {
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{"charles/internal/cluster.KMeans1D"}, "cluster"},
		{[]string{"charles/internal/vfs.OS.Rename"}, "store"},
		{[]string{"runtime.mallocgc", "charles/internal/core.run"}, "malloc"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "gc"},
		// Standard-library leaves take the bucket of their nearest caller.
		{[]string{"encoding/csv.(*Reader).readRecord", "charles/internal/csvio.Read"}, "csvio"},
		{[]string{"runtime.memmove", "compress/flate.(*compressor).write", "charles/internal/store.encodePack"}, "store"},
		{[]string{"syscall.Syscall", "internal/poll.(*FD).Write", "net.(*conn).Write"}, "net"},
		{[]string{"runtime.memmove", "runtime.growslice", "charles/internal/diff.Align"}, "malloc"},
		{[]string{"encoding/json.(*encodeState).string", "charles/internal/serve.writeJSON"}, "json"},
		{[]string{"main.checkColdAnswer"}, "bench"},
		{[]string{"runtime.futex", "runtime.findRunnable", "runtime.schedule"}, "other"},
	} {
		if got := stackBucket(c.stack); got != c.want {
			t.Errorf("stackBucket(%v) = %q, want %q", c.stack, got, c.want)
		}
	}
}

// spin burns CPU in this package (bucket "bench") until d has passed.
func spin(d time.Duration) float64 {
	x := 0.0
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x += math.Sqrt(float64(i))
		}
	}
	return x
}

func TestCPUSharesOfARealProfile(t *testing.T) {
	p, err := startCPUProfile()
	if err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	sink := spin(300 * time.Millisecond)
	data, err := p.stop(filepath.Join(t.TempDir(), "cpu.pprof"))
	if err != nil {
		t.Fatal(err)
	}
	shares, samples, err := cpuShares(data)
	if err != nil {
		t.Fatal(err)
	}
	if samples < 5 {
		t.Skipf("only %d samples (%v)", samples, sink)
	}
	sum := 0.0
	for _, b := range cpuBuckets {
		v, ok := shares[b]
		if !ok {
			t.Errorf("bucket %s missing", b)
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("shares sum to %g", sum)
	}
	if shares["bench"] < 0.5 {
		t.Errorf("a spin loop in package main got bench share %g", shares["bench"])
	}
}

func TestTracerNilIsUntraced(t *testing.T) {
	var tr *tracer
	s := tr.begin("x", 1, 0)
	tr.end(s)
	if len(tr.durationsMS()) != 0 {
		t.Error("nil tracer recorded spans")
	}
}

func TestTracerSpans(t *testing.T) {
	tr := newTracer()
	root := tr.begin("op", 7, 0)
	child := tr.begin("layer", 7, root.id)
	tr.end(child)
	tr.end(root)
	path := filepath.Join(t.TempDir(), "spans.jsonl")
	if err := tr.writeSpans(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 2 {
		t.Fatalf("%d span lines, want 2", len(lines))
	}
	var c span
	if err := json.Unmarshal([]byte(lines[0]), &c); err != nil {
		t.Fatal(err)
	}
	if c.Name != "layer" || c.Parent != root.id || c.Op != 7 || c.End < c.Start {
		t.Errorf("child span %+v", c)
	}
}
