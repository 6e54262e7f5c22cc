// Command perfbench is the repository's end-to-end benchmark. It runs
// one workload of the paper's UDF queries against the engine, checks
// every result, and prints its metrics as one JSON object on the last
// line of standard output.
//
//	perfbench --workload paper-warm --seed 1 --seconds 30 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the same
// workload with spans recorded around each layer call and prints the
// per-layer metrics. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet maps metric names to values.
type metricSet map[string]metric

func (m metricSet) set(name string, v float64, unit string) { m[name] = metric{v, unit} }

// endToEnd and perLayer are the metrics every workload reports on the
// last line, untraced and traced; BENCHMARK.json lists the same names.
// Workload-specific metrics (per-query latencies, write_ms, the server
// and generator metrics) go on the report line only.
var endToEnd = []string{"setup_s", "read_ms", "qps", "tail_ms", "live_heap_mb"}

var perLayer = []string{
	"core.frontend_ms", "core.plancache_hit_ratio", "core.fallbacks", "core.inline_udf_frac",
	"sqlengine.execute_ms", "sqlengine.native_ms", "sqlengine.morsel_rows_per_op",
	"ffi.udf_calls_per_op", "ffi.rows_in_per_op", "ffi.boundary_bytes_per_op", "ffi.call_ms",
	"pylite.body_ms", "pylite.vm_row_frac", "pylite.vm_bail_frac", "pylite.jit_compiles_per_op",
	"data.json_decode_ms", "data.json_decode_ns_per_byte",
	"runtime.alloc_mb_per_op", "runtime.gc_cycles_per_op", "runtime.gc_cpu_frac",
	"trace.overhead_pct", "trace.unaccounted_pct", "trace.self.read_ms",
}

// config is one run's command line.
type config struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	outDir   string
	setups   int    // set-ups per run; setup_s is their median
	probe    *probe // host probe, sampled between operations
}

// outcome is what a workload run produced.
type outcome struct {
	attempted, failed int
	firstFailure      string
	metrics           metricSet      // every metric the workload measured
	meta              map[string]any // run metadata beyond the common fields
	rec               *recorder      // spans, when traced
	seq               []string       // operations in the order run
}

// fail counts a failed operation and keeps the first reason.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if o.firstFailure == "" {
		o.firstFailure = fmt.Sprintf(format, args...)
	}
}

var workloads = map[string]func(config) (*outcome, error){
	"paper-warm":     runPaperWarm,
	"dml-interleave": runDMLInterleave,
	"serve-open":     runServeOpen,
}

func main() {
	var cfg config
	var seed int64
	var seconds, trace int
	flag.StringVar(&cfg.workload, "workload", "", "paper-warm, dml-interleave or serve-open")
	flag.Int64Var(&seed, "seed", 1, "seed for query order, DML batches and arrival times")
	flag.IntVar(&seconds, "seconds", 30, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1 records spans and prints the per-layer metrics")
	flag.StringVar(&cfg.outDir, "out", filepath.Join(".bench_build", "perfbench-spans"), "directory for span files")
	flag.Parse()
	run, ok := workloads[cfg.workload]
	if !ok || seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", cfg.workload, seconds, trace)
		os.Exit(2)
	}
	cfg.seed, cfg.seconds, cfg.trace = uint64(seed), time.Duration(seconds)*time.Second, trace == 1
	cfg.setups, cfg.probe = setupRuns[cfg.workload], newProbe()

	out, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	cfg.probe.scale(out.metrics)
	if err := emit(os.Stdout, cfg, out); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// emit prints the report line (metadata and every measured metric) and
// then the result line the benchmark contract defines.
func emit(w *os.File, cfg config, out *outcome) error {
	names := endToEnd
	if cfg.trace {
		names = perLayer
		path := filepath.Join(cfg.outDir, fmt.Sprintf("spans-%s-%d.json", cfg.workload, cfg.seed))
		if err := out.rec.write(path); err != nil {
			return fmt.Errorf("writing spans: %w", err)
		}
		out.meta["spans_file"] = path
	}
	final := metricSet{}
	for _, n := range names {
		m, ok := out.metrics[n]
		if !ok {
			return fmt.Errorf("%s did not measure %s", cfg.workload, n)
		}
		final[n] = m
	}
	meta := map[string]any{
		"workload": cfg.workload, "seed": cfg.seed, "seconds": cfg.seconds.Seconds(),
		"trace": cfg.trace, "nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go": runtime.Version(), "phase_a_rate": serveRate,
	}
	for k, v := range out.meta {
		meta[k] = v
	}
	if out.firstFailure != "" {
		meta["first_failure"] = out.firstFailure
	}
	all := make([]string, 0, len(out.metrics))
	for n := range out.metrics {
		all = append(all, n)
	}
	sort.Strings(all)
	report := make([]map[string]any, 0, len(all))
	for _, n := range all {
		report = append(report, map[string]any{"name": n, "value": out.metrics[n].Value, "unit": out.metrics[n].Unit})
	}
	enc := json.NewEncoder(w)
	if err := enc.Encode(map[string]any{"meta": meta, "report": report}); err != nil {
		return err
	}
	return enc.Encode(struct {
		Correct   bool      `json:"correct"`
		Attempted int       `json:"attempted"`
		Failed    int       `json:"failed"`
		Metrics   metricSet `json:"metrics"`
	}{out.failed == 0 && out.attempted > 0, out.attempted, out.failed, final})
}

// setupRuns is how many times a run sets each workload up; setup_s is
// the median, and the last set-up is the one measured. The tiny-size
// workloads set up in a tenth of a second or two, so they take more
// set-ups to bring their median to the steadiness of paper-warm's.
var setupRuns = map[string]int{"paper-warm": 5, "dml-interleave": 15, "serve-open": 15}

// setupProbes is how many host probe samples precede each set-up.
const setupProbes = 10

// repeatSetup builds the workload n times from a collected heap, closes
// all but the last, and records the median set-up time. The host probe
// is sampled before each set-up.
func repeatSetup[E interface{ close() }](m metricSet, n int, p *probe, build func() (E, error)) (E, error) {
	var (
		env   E
		times []float64
	)
	for i := 0; i < n; i++ {
		if i > 0 {
			env.close()
		}
		runtimeGC()
		for range setupProbes {
			p.sample("setup")
		}
		t0 := time.Now()
		e, err := build()
		if err != nil {
			return env, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
		env = e
	}
	m.set("setup_s", median(times), "s")
	return env, nil
}

// runtimeGC collects twice so that objects freed by finalizers in the
// first cycle are gone too.
func runtimeGC() {
	runtime.GC()
	runtime.GC()
}
