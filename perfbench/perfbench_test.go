package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"slices"
	"testing"
	"time"
)

// quick is a short run with one set-up, enough to fill the count window.
func quick(workload string, seed uint64, trace bool) config {
	return config{workload: workload, seed: seed, seconds: time.Second, trace: trace, setups: 1, probe: newProbe()}
}

func mustRun(t *testing.T, cfg config) *outcome {
	t.Helper()
	out, err := workloads[cfg.workload](cfg)
	if err != nil {
		t.Fatalf("%s: %v", cfg.workload, err)
	}
	if out.failed != 0 || out.attempted == 0 {
		t.Fatalf("%s: %d of %d operations failed, first: %s", cfg.workload, out.failed, out.attempted, out.firstFailure)
	}
	return out
}

// countMetricNames are the per-layer metrics computed from the
// program's counters over the count window.
var countMetricNames = []string{
	"core.plancache_hit_ratio", "core.fallbacks", "core.inline_udf_frac",
	"sqlengine.morsel_rows_per_op", "ffi.udf_calls_per_op", "ffi.rows_in_per_op",
	"ffi.boundary_bytes_per_op", "pylite.vm_row_frac", "pylite.vm_bail_frac", "pylite.jit_compiles_per_op",
}

func TestSameSeedRepeats(t *testing.T) {
	for _, w := range []string{"paper-warm", "dml-interleave"} {
		t.Run(w, func(t *testing.T) {
			a := mustRun(t, quick(w, 7, true))
			b := mustRun(t, quick(w, 7, true))
			n := min(len(a.seq), len(b.seq))
			if !slices.Equal(a.seq[:n], b.seq[:n]) {
				t.Fatalf("same seed, different operations:\n%v\n%v", a.seq[:n], b.seq[:n])
			}
			for _, name := range countMetricNames {
				if a.metrics[name] != b.metrics[name] {
					t.Errorf("%s: %v then %v", name, a.metrics[name].Value, b.metrics[name].Value)
				}
			}
		})
	}
}

func TestOtherSeedOtherOrder(t *testing.T) {
	for _, w := range []string{"paper-warm", "dml-interleave"} {
		t.Run(w, func(t *testing.T) {
			a := mustRun(t, quick(w, 1, false))
			b := mustRun(t, quick(w, 2, false))
			n := min(len(a.seq), len(b.seq))
			if slices.Equal(a.seq[:n], b.seq[:n]) {
				t.Fatalf("seeds 1 and 2 ran the same operations: %v", a.seq[:n])
			}
			if a.meta["size"] != b.meta["size"] {
				t.Fatalf("seeds changed the data size: %v, %v", a.meta["size"], b.meta["size"])
			}
		})
	}
}

// TestMetricNames checks the names against the contract's pattern and
// against BENCHMARK.json, and that every workload emits all of them.
func TestMetricNames(t *testing.T) {
	valid := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	for _, n := range append(slices.Clone(endToEnd), perLayer...) {
		if !valid.MatchString(n) {
			t.Errorf("metric name %q", n)
		}
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	names := func(xs []struct{ Name string }) []string {
		var out []string
		for _, x := range xs {
			out = append(out, x.Name)
		}
		return out
	}
	if got := names(spec.EndToEnd); !slices.Equal(got, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %v, benchmark emits %v", got, endToEnd)
	}
	if got := names(spec.PerLayer); !slices.Equal(got, perLayer) {
		t.Errorf("BENCHMARK.json per_layer %v, benchmark emits %v", got, perLayer)
	}
}

// TestSmoke runs every workload briefly in both modes: every result
// must check out and every metric must be emitted with a valid name.
func TestSmoke(t *testing.T) {
	valid := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	for w := range workloads {
		if w == "serve-open" && raceEnabled {
			t.Log("serve-open skipped: its 500 ms latency limit cannot hold under the race detector")
			continue
		}
		for _, trace := range []bool{false, true} {
			cfg := quick(w, 3, trace)
			cfg.outDir = t.TempDir()
			out := mustRun(t, cfg)
			f, err := os.CreateTemp(t.TempDir(), "out")
			if err != nil {
				t.Fatal(err)
			}
			if err := emit(f, cfg, out); err != nil {
				t.Fatalf("%s trace=%v: %v", w, trace, err)
			}
			f.Close()
			for n := range out.metrics {
				if !valid.MatchString(n) {
					t.Errorf("%s: metric name %q", w, n)
				}
			}
		}
	}
}

// TestProbeScale checks that the host probe brings latencies and rates
// to the reference host speed by the same factor, set-up time by the
// set-up samples, keeps the measured values, and leaves other metrics
// alone.
func TestProbeScale(t *testing.T) {
	p := newProbe()
	p.sample("run")
	if got := p.samples["run"]; len(got) != 1 || got[0] <= 0 {
		t.Fatalf("probe samples %v", got)
	}
	// Beside the operations the host ran twice as fast as the
	// reference; beside the set-ups, at half its speed. No workload
	// phase of its own took "qps" samples, so qps goes by "run".
	p.samples = map[string][]float64{"run": {probeRefMS / 2}, "setup": {2 * probeRefMS}}
	m := metricSet{}
	m.set("read_ms", 10, "ms")
	m.set("qps", 100, "1/s")
	m.set("setup_s", 1, "s")
	m.set("live_heap_mb", 3, "MB")
	p.scale(m)
	want := map[string]float64{"read_ms": 20, "qps": 50, "setup_s": 0.5, "live_heap_mb": 3,
		"raw.read_ms": 10, "raw.qps": 100, "raw.setup_s": 1, "host.speed.run": 2, "host.speed.setup": 0.5}
	for name, v := range want {
		if got := m[name].Value; math.Abs(got-v) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, got, v)
		}
	}
	// With samples of its own, qps goes by them.
	p.samples["qps"] = []float64{probeRefMS}
	m.set("qps", 100, "1/s")
	p.scale(m)
	if got := m["qps"].Value; math.Abs(got-100) > 1e-9 {
		t.Errorf("qps with its own samples = %v, want 100", got)
	}
}
