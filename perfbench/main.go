// Command perfbench is the repository benchmark. It drives the public entry
// points of the DGEFMM stack under three named workloads, checks every
// timed output against references computed during preparation, and prints
// end-to-end metrics from an untraced run (-trace 0) or per-layer metrics
// from a traced run (-trace 1). The last line of standard output is the
// result object; the lines before it are a human-readable report. README.md
// explains the workloads, the metrics and what each layer metric predicts.
//
//	perfbench -workload lib-large -seed 1 -seconds 20 -trace 0
//	perfbench -workload serve-small -seed 2 -seconds 20 -trace 1 -out run.json
//	perfbench -compare old.json new.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the object printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// metricDef names one metric with its unit; the two tables below are the
// metric sets BENCHMARK.json declares.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"gflops", "GFLOP/s"},
	{"lat_p50_ms", "ms"},
	{"lat_p99_ms", "ms"},
	{"slo_frac", "frac"},
	{"max_rate_rps", "1/s"},
	{"workspace_peak_mw", "Mwords"},
	{"setup_s", "s"},
}

// perLayer lists every traced metric. A workload that does not exercise a
// layer reports 0 for that layer's metrics. err_ratio_max is measured on
// every run but listed here, without a bound: it is fixed by the seed's
// operands and its spread from seed to seed (measured 13–29%) is wider
// than an end-to-end bound may be. Every output is still checked against
// its Higham bound.
var perLayer = []metricDef{
	{"err_ratio_max", "ratio"},
	{"serve.server_ms_p50", "ms"},
	{"serve.transport_ms_p50", "ms"},
	{"serve.codec_us_per_mb", "us/MB"},
	{"serve.coalesce_ratio", "calls/batch"},
	{"serve.rejected_frac.quota", "frac"},
	{"serve.rejected_frac.backpressure", "frac"},
	{"loadgen.late_ms_p99", "ms"},
	{"batch.queue_wait_ms", "ms"},
	{"batch.vs_loop", "ratio"},
	{"batch.arena_reuse_frac", "frac"},
	{"batch.plan_buckets", "count"},
	{"strassen.vs_kernel.square", "ratio"},
	{"strassen.vs_kernel.odd", "ratio"},
	{"strassen.vs_kernel.rect", "ratio"},
	{"strassen.addsub_frac", "frac"},
	{"strassen.quadrant_frac", "frac"},
	{"strassen.peel_frac", "frac"},
	{"strassen.actions.base", "count/call"},
	{"strassen.actions.level", "count/call"},
	{"strassen.actions.parallel", "count/call"},
	{"strassen.actions.fused1", "count/call"},
	{"strassen.actions.fused2", "count/call"},
	{"strassen.actions.peel", "count/call"},
	{"strassen.actions.fixup", "count/call"},
	{"strassen.plan_us", "us"},
	{"strassen.workspace_vs_bound", "ratio"},
	{"sched.speedup", "ratio"},
	{"sched.idle_frac", "frac"},
	{"sched.steals_per_call", "count/call"},
	{"sched.tasks_per_call", "count/call"},
	{"sched.max_running", "count"},
	{"sched.workspace_x", "ratio"},
	{"kernel.micro_gflops", "GFLOP/s"},
	{"kernel.pack_frac", "frac"},
	{"kernel.fringe_frac", "frac"},
	{"kernel.fused_writeout_frac", "frac"},
	{"kernel.intensity", "flop/byte"},
	{"arena.draw_frac", "frac"},
	{"trace.overhead", "ratio"},
	{"layers.unattributed_frac", "frac"},
}

// bench is one run's state: its inputs, the metrics it has measured and
// the outcome of every output check.
type bench struct {
	workload string
	seed     int64
	window   time.Duration
	traced   bool
	workers  int
	rng      *rand.Rand

	metrics   map[string]metric
	attempted int
	failed    int
	wrong     []string // output mismatches and broken guards
	errMax    float64
	report    []string
}

func newBench(workload string, seed int64, seconds int, traced bool) *bench {
	return &bench{
		workload: workload,
		seed:     seed,
		window:   time.Duration(seconds) * time.Second,
		traced:   traced,
		workers:  runtime.NumCPU(),
		rng:      rand.New(rand.NewSource(seed)),
		metrics:  make(map[string]metric),
	}
}

// set records a metric; the unit comes from the metric tables.
func (b *bench) set(name string, v float64) {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if d.name == name {
				b.metrics[name] = metric{Value: v, Unit: d.unit}
				return
			}
		}
	}
	panic("perfbench: undeclared metric " + name)
}

// wrongf records a failed check; any makes the run incorrect.
func (b *bench) wrongf(format string, args ...any) {
	if len(b.wrong) < 20 {
		b.wrong = append(b.wrong, fmt.Sprintf(format, args...))
	}
	if len(b.wrong) == 20 {
		b.wrong = append(b.wrong, "further failures not listed")
	}
}

func (b *bench) notef(format string, args ...any) {
	b.report = append(b.report, fmt.Sprintf(format, args...))
}

// latencyParts is the number of consecutive parts setLatency cuts a run's
// latencies into. A run holds a few dozen bursts or a few hundred calls, so
// the p99 of the whole run is its slowest sample or two and one host stall
// would set it; the median over the parts is not moved by one stall.
const latencyParts = 5

// setLatency records the latency metrics from the latencies of one run, in
// the order they were measured: each is the median over latencyParts
// consecutive parts of the part's quantile.
func (b *bench) setLatency(ms []float64) {
	var p50, p99 []float64
	for i := 0; i < latencyParts; i++ {
		part := ms[i*len(ms)/latencyParts : (i+1)*len(ms)/latencyParts]
		if len(part) > 0 {
			p50 = append(p50, quantileOf(part, 0.50))
			p99 = append(p99, quantileOf(part, 0.99))
		}
	}
	b.set("lat_p50_ms", median(p50))
	b.set("lat_p99_ms", median(p99))
	b.notef("latency: %d samples in %d parts, median of the part p50s %.3f ms and p99s %.3f ms; over all samples p50 %.3f ms, p99 %.3f ms",
		len(ms), latencyParts, median(p50), median(p99), median(ms), quantileOf(ms, 0.99))
}

// result assembles the printed object: the end-to-end metrics for an
// untraced run, the per-layer metrics (0 where a layer is idle) for a
// traced one.
func (b *bench) result() result {
	b.set("err_ratio_max", b.errMax)
	defs := endToEnd
	if b.traced {
		defs = perLayer
	}
	r := result{
		Correct:   len(b.wrong) == 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   make(map[string]metric, len(defs)),
	}
	for _, d := range defs {
		m, ok := b.metrics[d.name]
		if !ok {
			m = metric{Unit: d.unit}
		}
		r.Metrics[d.name] = m
	}
	return r
}

func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[lo] + (pos-float64(lo))*(sorted[lo+1]-sorted[lo])
}

// quantileOf is quantile on an unsorted slice, which it leaves unchanged.
func quantileOf(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, q)
}

func median(xs []float64) float64 { return quantileOf(xs, 0.5) }

// settle collects the garbage of preparation or set-up and returns it to
// the operating system, so every build and every timed window starts from
// the same heap and the collector does not sweep the benchmark's own
// garbage while a window is timed.
func settle() { debug.FreeOSMemory() }

// setupMedian builds a workload's system n times, timing each build
// (constructors plus warm-up calls), closes every instance but the last,
// and records the median as setup_s.
func setupMedian[T any](b *bench, n int, build func() (T, error), closeFn func(T)) (T, error) {
	var last T
	times := make([]float64, 0, n)
	defer settle()
	for i := 0; i < n; i++ {
		if i > 0 {
			closeFn(last)
		}
		settle()
		t0 := time.Now()
		v, err := build()
		if err != nil {
			return last, err
		}
		times = append(times, time.Since(t0).Seconds())
		last = v
	}
	b.set("setup_s", median(times))
	b.notef("setup: %d builds, median %.4f s", n, median(times))
	return last, nil
}

// saved is the file -out writes and -compare reads.
type saved struct {
	Fingerprint fingerprint `json:"fingerprint"`
	Result      result      `json:"result"`
}

func main() {
	workload := flag.String("workload", "", "lib-large, batch-mid or serve-small")
	seed := flag.Int64("seed", 1, "input seed (1 is the default seed, 2 the held-out seed)")
	seconds := flag.Int("seconds", 10, "measurement window in seconds")
	traceFlag := flag.Int("trace", 0, "0: end-to-end metrics from an untraced run; 1: per-layer metrics from a traced run")
	out := flag.String("out", "", "also write the fingerprint and result to this JSON file")
	compare := flag.Bool("compare", false, "compare two -out files: perfbench -compare OLD NEW")
	flag.Parse()
	if *compare {
		os.Exit(compareFiles(flag.Args()))
	}
	if *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be >= 1 and -trace 0 or 1")
		os.Exit(2)
	}
	runs := map[string]func(*bench) error{
		"lib-large":   runLib,
		"batch-mid":   runBatch,
		"serve-small": runServe,
	}
	run, ok := runs[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown -workload %q (want lib-large, batch-mid or serve-small)\n", *workload)
		os.Exit(2)
	}
	b := newBench(*workload, *seed, *seconds, *traceFlag == 1)
	fp := newFingerprint(b)
	fpJSON, _ := json.Marshal(fp)
	fmt.Printf("fingerprint %s\n", fpJSON)
	if err := run(b); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	res := b.result()
	for _, line := range b.report {
		fmt.Println(line)
	}
	for _, w := range b.wrong {
		fmt.Println("CHECK FAILED:", w)
	}
	for _, d := range append(endToEnd, perLayer...) {
		if m, ok := res.Metrics[d.name]; ok {
			fmt.Printf("metric %-34s %14.6g %s\n", d.name, m.Value, m.Unit)
		}
	}
	if !b.traced {
		fmt.Printf("metric %-34s %14.6g ratio (unbounded; also in the traced run)\n", "err_ratio_max", b.errMax)
	}
	if b.attempted > 0 {
		fmt.Printf("metric %-34s %14.6g frac (%d of %d operations failed; carried as failed/attempted)\n",
			"fail_frac", float64(b.failed)/float64(b.attempted), b.failed, b.attempted)
	}
	if *out != "" {
		data, _ := json.MarshalIndent(saved{Fingerprint: fp, Result: res}, "", "  ")
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
	}
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
	if !res.Correct || res.Attempted < 1 {
		os.Exit(1)
	}
}

// compareFiles prints each metric of two saved runs side by side. It
// refuses (exit 2) when the fingerprints differ: numbers from different
// hosts, builds, dispatch choices or seeds are not comparable.
func compareFiles(paths []string) int {
	if len(paths) != 2 {
		fmt.Fprintln(os.Stderr, "perfbench: -compare needs two files")
		return 2
	}
	var runs [2]saved
	for i, p := range paths {
		data, err := os.ReadFile(p)
		if err == nil {
			err = json.Unmarshal(data, &runs[i])
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 2
		}
	}
	if diff := runs[0].Fingerprint.diff(runs[1].Fingerprint); diff != "" {
		fmt.Fprintf(os.Stderr, "perfbench: refusing to compare: fingerprints differ in %s\n", diff)
		return 2
	}
	names := make([]string, 0, len(runs[0].Result.Metrics))
	for name := range runs[0].Result.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		o := runs[0].Result.Metrics[name]
		n, ok := runs[1].Result.Metrics[name]
		if !ok {
			continue
		}
		ratio := math.NaN()
		if o.Value != 0 {
			ratio = n.Value / o.Value
		}
		fmt.Printf("%-34s %14.6g %14.6g %8.4f %s\n", name, o.Value, n.Value, ratio, o.Unit)
	}
	return 0
}
