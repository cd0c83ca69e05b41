// Command benchmark is the repository's benchmark: it drives charles only
// through its public entry points (the internal package functions and the
// HTTP surface of an in-process serve.Server), on inputs generated from
// --seed before timing starts, checks every answer, and prints its metrics.
//
//	bash benchmark/run.sh --workload timeline-cold --seed 1 --seconds 25 --trace 0
//	bash benchmark/run.sh --workload all --seed 1 --seconds 25
//
// The last line of standard output is one JSON object:
// {"correct":…, "attempted":…, "failed":…, "metrics":{name:{value,unit}}}.
// With --trace 0 it holds the end-to-end metrics, with --trace 1 the
// per-layer split of a traced run. See README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// A run sets its workload up at least setupReps times and until the set-ups
// have taken setupMinSeconds; setup_s is the median, and only the last
// set-up instance is measured. With three reps, live-commit's sub-second
// set-up read 0.49–0.79 s across runs, so a short set-up gets more reps.
const (
	setupReps       = 3
	setupMinSeconds = 4.0
)

// minTracedOps is the fewest operations the traced half of a traced run
// may measure; with fewer, its span medians and trace.overhead would rest
// on a handful of samples, so the run fails instead.
const minTracedOps = 30

// metricSpec names one reported metric.
type metricSpec struct {
	Name   string
	Unit   string
	Better string
}

// endToEnd are the metrics every untraced run reports. Each workload gives
// them its own meaning (see workloadDef.aliases and README.md).
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower"},
	{"p50_ms", "ms", "lower"},
	{"tail_ms", "ms", "lower"},
	{"throughput_per_s", "1/s", "higher"},
	{"peak_rss_mb", "MB", "lower"},
	{"store_bytes_per_user_byte", "ratio", "lower"},
}

// perLayer are the metrics every traced run reports. A layer a workload
// does not exercise reads 0.
var perLayer = func() []metricSpec {
	specs := []metricSpec{
		{"trace.overhead", "ratio", "lower"},
		{"alloc.objects_per_op", "count", "lower"},
		{"alloc.bytes_per_op", "B", "lower"},
		{"gc.cycles_per_op", "count", "lower"},
		{"history.materialize_ms", "ms", "lower"},
		{"history.summarize_ms", "ms", "lower"},
		{"serve.encode_ms", "ms", "lower"},
		{"core.engine_runs_per_op", "count", "lower"},
		{"core.accel_builds_per_op", "count", "lower"},
		{"serve.watch_wait_ms", "ms", "lower"},
		{"serve.timeline_ms", "ms", "lower"},
		{"serve.resp_kb.timeline", "KB", "lower"},
		{"serve.commit_ms", "ms", "lower"},
		{"store.pack_bytes_per_commit", "B", "lower"},
		{"store.delta_pack_ratio", "share", "higher"},
		{"serve.maintenance_extend_per_commit", "count", "higher"},
		{"serve.maintenance_rebuild_per_commit", "count", "lower"},
		{"serve.watch_drops", "count", "lower"},
		{"serve.versions_ms", "ms", "lower"},
		{"serve.csv_ms", "ms", "lower"},
		{"serve.diff_ms", "ms", "lower"},
		{"serve.changes_ms", "ms", "lower"},
		{"serve.summarize_ms", "ms", "lower"},
		{"serve.handler_time_share", "share", "lower"},
		{"serve.result_cache_hit_ratio", "share", "higher"},
		{"store.table_hit_ratio", "share", "higher"},
		{"store.blob_hit_ratio", "share", "higher"},
		{"store.changes_hit_ratio", "share", "higher"},
		{"store.results_hit_ratio", "share", "higher"},
		{"store.parses_per_op", "count", "lower"},
		{"bench.late_p99_ms", "ms", "lower"},
		{"read.fixed_rate_p50_ms", "ms", "lower"},
		{"read.fixed_rate_p99_ms", "ms", "lower"},
	}
	for _, b := range cpuBuckets {
		specs = append(specs, metricSpec{"cpu." + b, "share", "lower"})
	}
	specs = append(specs, metricSpec{"cpu.engine", "share", "lower"})
	return specs
}()

// config is one run's command line.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	root     string // the checkout root; scratch files go under .bench_build
}

// measurement is what one timed phase of a workload produced.
type measurement struct {
	lat        []float64 // headline operation latencies, ms
	ops        int       // operations attempted in the phase (all kinds)
	throughput float64   // completed headline operations per second
	layers     map[string]float64
	notes      []string // human-readable lines printed before the result
}

// instance is one set-up workload, ready to measure.
type instance interface {
	// run measures for about seconds; tr is nil when untraced.
	run(seconds float64, tr *tracer) (*measurement, error)
	// storeRatio is pack bytes ÷ logical (canonical CSV) bytes of the
	// workload's store(s).
	storeRatio() float64
	close()
}

// workloadDef is a named workload. aliases are the workload-specific names
// of p50_ms, tail_ms and throughput_per_s.
type workloadDef struct {
	name string
	// tailP is the tail percentile: the highest with at least
	// minBeyondTail samples beyond it in a 25 s run.
	tailP   float64
	aliases [3]string
	setup   func(cfg *config, t *tally) (instance, error)
}

var workloads = []workloadDef{
	{"timeline-cold", 0.90, [3]string{"timeline_cold_p50_ms", "timeline_cold_p90_ms", "timeline_cold_ops_per_s"}, setupCold},
	{"live-commit", 0.90, [3]string{"live_cycle_p50_ms", "live_cycle_p90_ms", "live_cycles_per_s"}, setupLive},
	{"read-mix", 0.99, [3]string{"read_p50_ms", "read_p99_ms", "read_capacity_rps"}, setupReadMix},
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

func main() {
	var cfg config
	var traceFlag int
	var workload string
	flag.StringVar(&workload, "workload", "", "timeline-cold, live-commit, read-mix, or all")
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed")
	flag.Float64Var(&cfg.seconds, "seconds", 25, "measured seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run reporting the per-layer split")
	flag.StringVar(&cfg.root, "root", ".", "checkout root (scratch files go under its .bench_build)")
	flag.Parse()
	cfg.workload, cfg.trace = workload, traceFlag == 1
	if cfg.seconds <= 0 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "benchmark: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	if workload == "all" {
		os.Exit(runAll(cfg))
	}
	var def *workloadDef
	for i := range workloads {
		if workloads[i].name == workload {
			def = &workloads[i]
		}
	}
	if def == nil {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", workload)
		os.Exit(2)
	}
	res, err := runWorkload(&cfg, def)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", workload, err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

// runAll runs every workload in its own process (so peak RSS is per
// workload) and returns the exit code: non-zero if any run failed.
func runAll(cfg config) int {
	code := 0
	for _, w := range workloads {
		args := []string{"--workload", w.name, "--seed", fmt.Sprint(cfg.seed),
			"--seconds", fmt.Sprint(cfg.seconds), "--root", cfg.root}
		if cfg.trace {
			args = append(args, "--trace", "1")
		}
		cmd := exec.Command(os.Args[0], args...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		fmt.Printf("== %s\n", w.name)
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.name, err)
			code = 1
		}
	}
	return code
}

func runWorkload(cfg *config, def *workloadDef) (*resultJSON, error) {
	printEnv(cfg)
	t := &tally{}
	var inst instance
	var setups []float64
	total := 0.0
	for len(setups) < setupReps || total < setupMinSeconds {
		// Each set-up starts from a collected heap with the previous
		// instance gone, so peak RSS holds one instance, not several.
		if inst != nil {
			inst.close()
			inst = nil
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		if inst, err = def.setup(cfg, t); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		d := time.Since(t0).Seconds()
		setups = append(setups, d)
		total += d
	}
	defer inst.close()
	// Set-up traffic is not part of the measured run, and its garbage is
	// collected before timing starts.
	*t = tally{}
	runtime.GC()

	res := &resultJSON{Metrics: map[string]metricJSON{}}
	units := map[string]string{}
	for _, s := range append(append([]metricSpec(nil), endToEnd...), perLayer...) {
		units[s.Name] = s.Unit
	}
	put := func(name string, v float64) { res.Metrics[name] = metricJSON{Value: v, Unit: units[name]} }
	if cfg.trace {
		layers, err := tracedRun(cfg, inst, def)
		if err != nil {
			return nil, err
		}
		for _, s := range perLayer {
			put(s.Name, layers[s.Name])
			fmt.Printf("%-40s %12.4f %s\n", s.Name, layers[s.Name], s.Unit)
		}
	} else {
		m, err := inst.run(cfg.seconds, nil)
		if err != nil {
			return nil, err
		}
		for _, n := range m.notes {
			fmt.Println(n)
		}
		q, err := summarize(m.lat, def.tailP)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", def.aliases[1], err)
		}
		rss, ratio := peakRSSMB(), inst.storeRatio()
		put("setup_s", median(setups))
		put("p50_ms", q.P50)
		put("tail_ms", q.Tail)
		put("throughput_per_s", m.throughput)
		put("peak_rss_mb", rss)
		put("store_bytes_per_user_byte", ratio)
		fmt.Printf("%-28s %12.4f s    (median of %d set-ups)\n", "setup_s", median(setups), len(setups))
		fmt.Printf("%-28s %12.4f ms   (n=%d)\n", def.aliases[0], q.P50, q.N)
		fmt.Printf("%-28s %12.4f ms   (n=%d, %d beyond)\n", def.aliases[1], q.Tail, q.N, beyond(q.N, q.TailP))
		fmt.Printf("%-28s %12.4f 1/s\n", def.aliases[2], m.throughput)
		fmt.Printf("%-28s %12.4f MB\n", "peak_rss_mb", rss)
		fmt.Printf("%-28s %12.4f ratio\n", "store_bytes_per_user_byte", ratio)
		fmt.Printf("%-28s %12.6f ratio (%d of %d ops)\n", "fail_ratio", t.failRatio(), t.failed.Load(), t.attempted.Load())
	}
	res.Attempted, res.Failed = t.attempted.Load(), t.failed.Load()
	res.Correct = t.wrong.Load() == 0
	if t.firstFail != "" {
		fmt.Fprintf(os.Stderr, "benchmark: first failure: %s\n", t.firstFail)
	}
	if !res.Correct {
		fmt.Fprintf(os.Stderr, "benchmark: %d wrong answer(s); first: %s\n", t.wrong.Load(), t.firstBad)
	}
	return res, nil
}

// tracedRun measures half the run untraced and half traced, and returns
// the per-layer split of the traced half: the workload's own span and
// /metrics figures, CPU shares by package from a pprof profile, allocation
// and GC counts per operation, and trace.overhead (traced ÷ untraced p50).
func tracedRun(cfg *config, inst instance, def *workloadDef) (map[string]float64, error) {
	half := cfg.seconds / 2
	base, err := inst.run(half, nil)
	if err != nil {
		return nil, err
	}
	dir, err := traceDir(cfg.root, def.name, cfg.seed)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	prof, err := startCPUProfile()
	if err != nil {
		return nil, err
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	m, runErr := inst.run(half, tr)
	runtime.ReadMemStats(&ms1)
	profPath := filepath.Join(dir, "cpu.pprof")
	data, perr := prof.stop(profPath)
	if runErr != nil {
		return nil, runErr
	}
	if perr != nil {
		return nil, perr
	}
	if len(m.lat) < minTracedOps {
		return nil, fmt.Errorf("traced half measured %d ops, fewer than %d", len(m.lat), minTracedOps)
	}
	spanPath := filepath.Join(dir, "spans.jsonl")
	if err := tr.writeSpans(spanPath); err != nil {
		return nil, err
	}
	layers := map[string]float64{}
	for k, v := range m.layers {
		layers[k] = v
	}
	shares, samples, err := cpuShares(data)
	if err != nil {
		return nil, err
	}
	for b, v := range shares {
		layers["cpu."+b] = v
	}
	for _, b := range engineBuckets {
		layers["cpu.engine"] += shares[b]
	}
	ops := float64(m.ops)
	if ops > 0 {
		layers["alloc.objects_per_op"] = float64(ms1.Mallocs-ms0.Mallocs) / ops
		layers["alloc.bytes_per_op"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / ops
		layers["gc.cycles_per_op"] = float64(ms1.NumGC-ms0.NumGC) / ops
	}
	if b := median(base.lat); b > 0 {
		layers["trace.overhead"] = median(m.lat) / b
	}
	fmt.Printf("# trace: %d CPU samples, %d ops; spans %s, profile %s\n", samples, m.ops, spanPath, profPath)
	return layers, nil
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// printEnv records the environment the result was measured in.
func printEnv(cfg *config) {
	env := map[string]any{
		"workload":   cfg.workload,
		"seed":       cfg.seed,
		"seconds":    cfg.seconds,
		"trace":      cfg.trace,
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"cpu":        cpuModel(),
		"go":         runtime.Version(),
		"commit":     gitCommit(cfg.root),
	}
	for k, v := range workloadParams(cfg.workload) {
		env[k] = v
	}
	data, _ := json.Marshal(env) // map of plain values: cannot fail
	fmt.Printf("# env %s\n", data)
}

// workloadParams are the fixed workload parameters recorded with a result.
func workloadParams(name string) map[string]any {
	switch name {
	case "timeline-cold":
		return map[string]any{"rows": coldRows, "steps": coldSteps}
	case "live-commit":
		return map[string]any{"rows": liveRows, "steps_per_round": liveSteps}
	case "read-mix":
		return map[string]any{"rows": readRows, "versions": readSteps + 1, "timeline_chains": readTimelineChains,
			"rate_rps": readRate, "latency_limit_ms": readLimitMS, "clients": clients()}
	}
	return nil
}

// cpuModel reads the CPU model name from /proc/cpuinfo ("unknown" if absent).
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit resolves HEAD of a .git directory at root without running git
// ("unknown" when the checkout is not a repository).
func gitCommit(root string) string {
	gitDir := filepath.Join(root, ".git")
	head, err := os.ReadFile(filepath.Join(gitDir, "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if id, err := os.ReadFile(filepath.Join(gitDir, filepath.FromSlash(ref))); err == nil {
		return strings.TrimSpace(string(id))
	}
	packed, err := os.ReadFile(filepath.Join(gitDir, "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if id, name, ok := strings.Cut(line, " "); ok && name == ref {
			return id
		}
	}
	return "unknown"
}

// scratchDir makes a fresh directory for a workload's on-disk files under
// the checkout's .bench_build.
func scratchDir(cfg *config, name string) (string, error) {
	base := filepath.Join(cfg.root, ".bench_build", "tmp")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(base, name+"-")
}
