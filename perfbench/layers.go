package main

import (
	"fmt"
	"runtime/metrics"
	"time"

	"qfusor/internal/data"
	"qfusor/internal/engines"
	"qfusor/internal/ffi"
	"qfusor/internal/obs"
)

// counters are the program's own counters (qfusor.Metrics) that the
// per-layer metrics are ratios of.
var counters = []string{
	"qfusor.plancache.hits", "qfusor.plancache.misses", "qfusor.fallbacks",
	"qfusor.inline.udfs", "qfusor.inline.opaque",
	"engine.morsel_rows",
	"ffi.udf.calls", "ffi.udf.rows_in", "ffi.boundary.bytes_in", "ffi.boundary.bytes_out",
	"ffi.trace.rows", "qfusor.vm.rows", "qfusor.vm.bail_rows", "pylite.jit_compiles",
	"server.admitted", "server.rejected",
}

// counts is a reading of the counters.
type counts map[string]int64

func readCounts() counts {
	snap := obs.Default.Snapshot()
	c := counts{}
	for _, n := range counters {
		c[n] = snap.Counters[n]
	}
	return c
}

// sub returns c − b.
func (c counts) sub(b counts) counts {
	out := counts{}
	for k, v := range c {
		out[k] = v - b[k]
	}
	return out
}

// add accumulates d into c.
func (c counts) add(d counts) {
	for k, v := range d {
		c[k] += v
	}
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// countMetrics derives the per-layer count metrics from counter deltas
// over ops operations. The inline pass classifies each UDF once per
// UDF epoch, so its counters are read over inlineWin, a window that
// starts before the statements are first planned; inline_udf_frac is
// the share of classified UDFs the pass could translate.
func countMetrics(m metricSet, win counts, ops int, inlineWin counts) {
	n := float64(ops)
	m.set("core.plancache_hit_ratio", ratio(float64(win["qfusor.plancache.hits"]),
		float64(win["qfusor.plancache.hits"]+win["qfusor.plancache.misses"])), "ratio")
	m.set("core.fallbacks", float64(win["qfusor.fallbacks"]), "count")
	m.set("core.inline_udf_frac", ratio(float64(inlineWin["qfusor.inline.udfs"]-inlineWin["qfusor.inline.opaque"]),
		float64(inlineWin["qfusor.inline.udfs"])), "ratio")
	m.set("sqlengine.morsel_rows_per_op", ratio(float64(win["engine.morsel_rows"]), n), "rows")
	m.set("ffi.udf_calls_per_op", ratio(float64(win["ffi.udf.calls"]), n), "count")
	m.set("ffi.rows_in_per_op", ratio(float64(win["ffi.udf.rows_in"]), n), "rows")
	m.set("ffi.boundary_bytes_per_op", ratio(float64(win["ffi.boundary.bytes_in"]+win["ffi.boundary.bytes_out"]), n), "bytes")
	m.set("pylite.vm_row_frac", ratio(float64(win["qfusor.vm.rows"]), float64(win["ffi.trace.rows"])), "ratio")
	m.set("pylite.vm_bail_frac", ratio(float64(win["qfusor.vm.bail_rows"]), float64(win["qfusor.vm.rows"])), "ratio")
	m.set("pylite.jit_compiles_per_op", ratio(float64(win["pylite.jit_compiles"]), n), "count")
}

// rtSample is a reading of the Go runtime's allocation and GC metrics.
type rtSample struct {
	allocBytes, gcCycles uint64
	gcCPU, totalCPU      float64
}

var rtNames = []string{
	"/gc/heap/allocs:bytes", "/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds", "/cpu/classes/total:cpu-seconds",
}

func readRuntime() rtSample {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return rtSample{
		allocBytes: s[0].Value.Uint64(), gcCycles: s[1].Value.Uint64(),
		gcCPU: s[2].Value.Float64(), totalCPU: s[3].Value.Float64(),
	}
}

// liveHeapMB forces a collection and returns the live heap it leaves.
func liveHeapMB() float64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	runtimeGC()
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// rtAcc accumulates runtime deltas over the measured operations.
type rtAcc struct {
	ops               int
	allocBytes, gcCyc uint64
}

func (a *rtAcc) add(before, after rtSample) {
	a.ops++
	a.allocBytes += after.allocBytes - before.allocBytes
	a.gcCyc += after.gcCycles - before.gcCycles
}

// runtimeMetrics sets the runtime layer's metrics: allocation and GC
// cycles per measured operation, and GC's share of CPU time between two
// readings that bracket the measured loop.
func runtimeMetrics(m metricSet, a rtAcc, start, end rtSample) {
	m.set("runtime.alloc_mb_per_op", ratio(float64(a.allocBytes)/(1<<20), float64(a.ops)), "MB")
	m.set("runtime.gc_cycles_per_op", ratio(float64(a.gcCyc), float64(a.ops)), "count")
	m.set("runtime.gc_cpu_frac", ratio(end.gcCPU-start.gcCPU, end.totalCPU-start.totalCPU), "ratio")
}

// baseUDF is a scalar UDF the statement applies directly to a table
// column: its inputs are that column as stored.
type baseUDF struct{ udf, table, col string }

// baseUDFs lists, per statement, the scalar UDFs applied to base
// columns. ffi.call_ms and pylite.body_ms call exactly these.
var baseUDFs = map[string][]baseUDF{
	"q1":  {{"cleandate", "pubs", "pubdate"}, {"lower", "pubs", "title"}, {"extractfunder", "pubs", "project"}},
	"q2":  {{"extractfunder", "pubs", "project"}, {"cleandate", "pubs", "pubdate"}},
	"q3":  {{"extractstart", "pubs", "project"}, {"extractend", "pubs", "project"}, {"extractfunder", "pubs", "project"}, {"extractclass", "pubs", "project"}, {"extractid", "pubs", "project"}, {"lower", "pubs", "authors"}, {"cleandate", "pubs", "pubdate"}},
	"q11": {{"cleancity", "listings", "city"}, {"extracttype", "listings", "title"}, {"extractprice", "listings", "price"}, {"extractsqft", "listings", "facts"}, {"extractbd", "listings", "facts"}, {"extractoffer", "listings", "offer"}},
	"q12": {{"hostname", "listings", "url"}, {"urldepth", "listings", "url"}, {"extracturlid", "listings", "url"}},
	"q13": {{"extractbd", "listings", "facts"}, {"extractprice", "listings", "price"}, {"extractoffer", "listings", "offer"}},
	"q14": {{"cleancity", "listings", "city"}, {"extractbd", "listings", "facts"}, {"extractprice", "listings", "price"}, {"extractoffer", "listings", "offer"}},
	"q15": {{"logpop", "population", "population"}, {"clamppct", "population", "growth"}},
	"q16": {{"cleanint", "dirty", "f1"}, {"cleanint", "dirty", "f2"}, {"cleanint", "dirty", "f3"}},
}

// layerReps is how many times each side measurement repeats; the median
// is reported.
const layerReps = 5

// udfLayers times, for one statement, the engine's transport call over
// each base-column UDF's inputs (ffi.call_ms) and the same UDFs called
// on values boxed beforehand (pylite.body_ms). The two differ by the
// boxing and transport cost.
func udfLayers(in *engines.Instance, stmt string, rec *recorder) (callMS, bodyMS float64, err error) {
	for _, b := range baseUDFs[stmt] {
		u, ok := in.Eng.Catalog.UDF(b.udf)
		if !ok {
			return 0, 0, fmt.Errorf("%s: no UDF %s", stmt, b.udf)
		}
		t, ok := in.Eng.Catalog.Table(b.table)
		if !ok {
			return 0, 0, fmt.Errorf("%s: no table %s", stmt, b.table)
		}
		col := t.Col(b.col)
		n := t.NumRows()
		var calls, bodies []float64
		boxed := ffi.BoxColumn(col, n)
		args := make([]data.Value, 1)
		for r := 0; r < layerReps; r++ {
			sp := rec.begin("ffi.call", 0, -1)
			t0 := time.Now()
			if _, err := in.Eng.Invoker.CallScalar(u, []*data.Column{col}, n); err != nil {
				return 0, 0, fmt.Errorf("%s: %s: %w", stmt, b.udf, err)
			}
			calls = append(calls, ms(time.Since(t0)))
			rec.end(sp)

			sp = rec.begin("pylite.body", 0, -1)
			t0 = time.Now()
			for _, v := range boxed {
				args[0] = v
				if _, err := u.Invoke(args); err != nil {
					return 0, 0, fmt.Errorf("%s: %s: %w", stmt, b.udf, err)
				}
			}
			bodies = append(bodies, ms(time.Since(t0)))
			rec.end(sp)
		}
		callMS += median(calls)
		bodyMS += median(bodies)
	}
	return callMS, bodyMS, nil
}

// jsonLayer times data.UnmarshalJSONValue over every JSON document in
// pubs.project and pubs.authors, and returns the median time and the
// bytes decoded per pass.
func jsonLayer(pubs *data.Table, rec *recorder) (msPerPass float64, bytes int, err error) {
	var docs []string
	for _, name := range []string{"project", "authors"} {
		c := pubs.Col(name)
		for i := 0; i < c.Len(); i++ {
			if v := c.Get(i); v.Kind == data.KindString && v.S != "" {
				docs = append(docs, v.S)
				bytes += len(v.S)
			}
		}
	}
	var times []float64
	for r := 0; r < layerReps; r++ {
		sp := rec.begin("data.json_decode", 0, -1)
		t0 := time.Now()
		for _, d := range docs {
			if _, err := data.UnmarshalJSONValue(d); err != nil {
				return 0, 0, err
			}
		}
		times = append(times, ms(time.Since(t0)))
		rec.end(sp)
	}
	return median(times), bytes, nil
}

// sideLayers runs the side measurements every workload reports: the
// transport and body time of each mix statement's base-column UDFs,
// averaged over the mix, and the JSON decoder over pubs.
func sideLayers(m metricSet, in *engines.Instance, mix []string, pubs *data.Table, rec *recorder) error {
	var calls, bodies float64
	for _, s := range mix {
		c, b, err := udfLayers(in, s, rec)
		if err != nil {
			return err
		}
		calls += c
		bodies += b
	}
	m.set("ffi.call_ms", calls/float64(len(mix)), "ms")
	m.set("pylite.body_ms", bodies/float64(len(mix)), "ms")
	dec, n, err := jsonLayer(pubs, rec)
	if err != nil {
		return err
	}
	m.set("data.json_decode_ms", dec, "ms")
	m.set("data.json_decode_ns_per_byte", dec*1e6/float64(n), "ns/B")
	return nil
}
