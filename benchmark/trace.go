package main

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call from the benchmark into a layer of the program.
// Spans of one operation share Op; Parent is 0 for an operation's root.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the traced phase began
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced mode: every method is a no-op, so the measured code paths are
// the same in both modes.
type tracer struct {
	t0     time.Time
	nextID atomic.Int64
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// spanRef is an open span.
type spanRef struct {
	id, parent, op int64
	name           string
	start          time.Time
}

// begin opens a span; end closes it. parent is the enclosing span's id (0
// for an operation's root span).
func (tr *tracer) begin(name string, op, parent int64) spanRef {
	if tr == nil {
		return spanRef{}
	}
	return spanRef{id: tr.nextID.Add(1), parent: parent, op: op, name: name, start: time.Now()}
}

func (tr *tracer) end(s spanRef) {
	if tr == nil {
		return
	}
	now := time.Now()
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.spans = append(tr.spans, span{
		ID: s.id, Parent: s.parent, Op: s.op, Name: s.name,
		Start: s.start.Sub(tr.t0).Nanoseconds(), End: now.Sub(tr.t0).Nanoseconds(),
	})
}

// durationsMS returns every closed span's duration in milliseconds, by name.
func (tr *tracer) durationsMS() map[string][]float64 {
	out := map[string][]float64{}
	if tr == nil {
		return out
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	for _, s := range tr.spans {
		out[s.Name] = append(out[s.Name], float64(s.End-s.Start)/1e6)
	}
	return out
}

// writeSpans writes the spans as JSON lines, one span a line.
func (tr *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	tr.mu.Lock()
	for _, s := range tr.spans {
		if err = enc.Encode(s); err != nil {
			break
		}
	}
	tr.mu.Unlock()
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// cpuProfile records a runtime/pprof CPU profile into memory.
type cpuProfile struct{ buf bytes.Buffer }

func startCPUProfile() (*cpuProfile, error) {
	p := &cpuProfile{}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, err
	}
	return p, nil
}

// stop ends the profile and writes it to path for `go tool pprof`.
func (p *cpuProfile) stop(path string) ([]byte, error) {
	pprof.StopCPUProfile()
	data := p.buf.Bytes()
	return data, os.WriteFile(path, data, 0o644)
}

// cpuBuckets are the per-layer CPU-share buckets, as cpu.<bucket> metrics.
// The engine's packages each have their own bucket.
var cpuBuckets = []string{
	"core", "cluster", "regress", "linalg", "dtree", "score", "predicate", "model", "assist",
	"history", "serve", "store", "diff", "csvio", "table", "json", "net", "gc", "malloc",
	"bench", "other",
}

// engineBuckets are the engine's packages.
var engineBuckets = []string{"core", "cluster", "regress", "linalg", "dtree", "score", "predicate", "model", "assist"}

// layerOfPackage maps a repository package to its bucket; ok is false for
// packages outside the repository.
func layerOfPackage(pkg string) (string, bool) {
	if pkg == "main" || pkg == "charles/benchmark" {
		return "bench", true // the benchmark's own code (load generator, checks); named so in its tests
	}
	rest, found := strings.CutPrefix(pkg, "charles/internal/")
	if !found {
		if pkg == "charles" || strings.HasPrefix(pkg, "charles/") {
			return "other", true
		}
		return "", false
	}
	if i := strings.IndexByte(rest, '/'); i >= 0 {
		rest = rest[:i]
	}
	switch rest {
	case "vfs":
		return "store", true
	case "metrics":
		return "serve", true // the /metrics registry the server renders
	}
	for _, b := range cpuBuckets {
		if b == rest {
			return b, true
		}
	}
	return "other", true
}

// packageOf extracts the import path from a symbol name such as
// "charles/internal/store.(*lruCache[...]).get".
func packageOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

var mallocPrefixes = []string{
	"runtime.mallocgc", "runtime.newobject", "runtime.makeslice", "runtime.growslice",
	"runtime.makemap", "runtime.newarray", "runtime.nextFreeFast", "runtime.(*mcache)",
	"runtime.(*mcentral)", "runtime.(*mheap).alloc", "runtime.rawstring", "runtime.rawbyteslice",
	"runtime.slicebytetostring", "runtime.concatstring",
}

var gcPrefixes = []string{
	"runtime.gc", "runtime.scan", "runtime.greyobject", "runtime.markroot", "runtime.markBits",
	"runtime.sweep", "runtime.bgsweep", "runtime.bgscavenge", "runtime.findObject",
	"runtime.wbBuf", "runtime.bulkBarrier", "runtime.(*gcWork)", "runtime.(*gcControllerState)",
	"runtime.(*mspan).sweep", "runtime.(*sweepLocked)", "runtime.(*gcBits)", "runtime.typePointers",
	"runtime.(*mspan).typePointers", "runtime.(*mheap).freeSpan", "runtime.(*scavengerState)",
}

func hasAnyPrefix(s string, prefixes []string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(s, p) {
			return true
		}
	}
	return false
}

// frameBucket classifies one frame, or returns "" for frames (most of the
// standard library, the scheduler) that take the bucket of their caller.
func frameBucket(fn string) string {
	pkg := packageOf(fn)
	if b, ok := layerOfPackage(pkg); ok {
		return b
	}
	switch {
	case pkg == "runtime" && hasAnyPrefix(fn, mallocPrefixes):
		return "malloc"
	case pkg == "runtime" && hasAnyPrefix(fn, gcPrefixes):
		return "gc"
	case pkg == "encoding/json":
		return "json"
	case pkg == "net" || strings.HasPrefix(pkg, "net/"):
		return "net"
	}
	return ""
}

// stackBucket attributes a sample's self time: the leaf frame's bucket, or
// — for standard-library and runtime leaves — the bucket of the nearest
// caller that has one. So encoding/csv work under csvio counts as csvio,
// a socket write under net/http as net, an fsync under vfs as store, and
// time with no such caller (the idle scheduler) as other.
func stackBucket(stack []string) string {
	for _, fn := range stack {
		if b := frameBucket(fn); b != "" {
			return b
		}
	}
	return "other"
}

// cpuShares parses a gzipped pprof CPU profile and returns each bucket's
// share of sampled CPU time, plus the number of samples. Every bucket is
// present (zero when unsampled).
func cpuShares(data []byte) (map[string]float64, int64, error) {
	prof, err := parseProfile(data)
	if err != nil {
		return nil, 0, err
	}
	byBucket := map[string]int64{}
	var total, samples int64
	for _, s := range prof.samples {
		stack := prof.stack(s.locs)
		v := s.value
		byBucket[stackBucket(stack)] += v
		total += v
		samples += s.count
	}
	out := make(map[string]float64, len(cpuBuckets))
	for _, b := range cpuBuckets {
		if total > 0 {
			out[b] = float64(byBucket[b]) / float64(total)
		} else {
			out[b] = 0
		}
	}
	return out, samples, nil
}

// profile is the part of a pprof profile.proto the bucketing reads.
type profile struct {
	samples   []profSample
	locations map[uint64][]uint64 // location id → function ids, innermost first
	functions map[uint64]int64    // function id → name string index
	strings   []string
}

type profSample struct {
	locs         []uint64
	count, value int64 // sample count and CPU nanoseconds
}

// stack resolves a sample's locations to function names, leaf first
// (inlined frames expanded innermost first).
func (p *profile) stack(locs []uint64) []string {
	var out []string
	for _, l := range locs {
		for _, f := range p.locations[l] {
			if si := p.functions[f]; si >= 0 && int(si) < len(p.strings) {
				out = append(out, p.strings[si])
			}
		}
	}
	return out
}

// parseProfile decodes the fields of a gzipped profile.proto that the
// bucketing needs: samples (location ids, values), locations (line →
// function ids), functions (name) and the string table.
func parseProfile(data []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p := &profile{locations: map[uint64][]uint64{}, functions: map[uint64]int64{}}
	err = walkFields(raw, func(field int, wire int, v uint64, b []byte) error {
		switch field {
		case 2: // Sample
			s, err := parseSample(b)
			if err != nil {
				return err
			}
			p.samples = append(p.samples, s)
		case 4: // Location
			var id uint64
			var fns []uint64
			err := walkFields(b, func(f, w int, v uint64, lb []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line
					return walkFields(lb, func(lf, lw int, lv uint64, _ []byte) error {
						if lf == 1 {
							fns = append(fns, lv)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.locations[id] = fns
		case 5: // Function
			var id uint64
			name := int64(-1)
			err := walkFields(b, func(f, w int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.functions[id] = name
		case 6:
			p.strings = append(p.strings, string(b))
		}
		return nil
	})
	return p, err
}

func parseSample(b []byte) (profSample, error) {
	var s profSample
	var values []int64
	err := walkFields(b, func(f, w int, v uint64, pb []byte) error {
		var vals []uint64
		if w == 2 { // packed
			var err error
			if vals, err = unpackVarints(pb); err != nil {
				return err
			}
		} else {
			vals = []uint64{v}
		}
		switch f {
		case 1:
			s.locs = append(s.locs, vals...)
		case 2:
			for _, x := range vals {
				values = append(values, int64(x))
			}
		}
		return nil
	})
	if len(values) > 0 {
		s.count = values[0]
		s.value = values[len(values)-1]
	}
	return s, err
}

var errTruncated = errors.New("profile: truncated protobuf")

func readVarint(b []byte) (uint64, int, error) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return v, i + 1, nil
		}
	}
	return 0, 0, errTruncated
}

func unpackVarints(b []byte) ([]uint64, error) {
	var out []uint64
	for len(b) > 0 {
		v, n, err := readVarint(b)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
		b = b[n:]
	}
	return out, nil
}

// walkFields calls fn for each field of a protobuf message: varints and
// fixed-width values in v, length-delimited payloads in b.
func walkFields(b []byte, fn func(field, wire int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n, err := readVarint(b)
		if err != nil {
			return err
		}
		b = b[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var payload []byte
		switch wire {
		case 0:
			if v, n, err = readVarint(b); err != nil {
				return err
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
		case 2:
			l, n, err := readVarint(b)
			if err != nil {
				return err
			}
			b = b[n:]
			if uint64(len(b)) < l {
				return errTruncated
			}
			payload, b = b[:l], b[l:]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(field, wire, v, payload); err != nil {
			return err
		}
	}
	return nil
}

// traceDir is where a traced run leaves its spans and CPU profile.
func traceDir(root, workload string, seed int64) (string, error) {
	dir := filepath.Join(root, ".bench_build", "trace", fmt.Sprintf("%s-seed%d", workload, seed))
	return dir, os.MkdirAll(dir, 0o755)
}
