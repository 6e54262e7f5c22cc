package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"time"

	"qfusor/internal/engines"
	"qfusor/internal/resilience"
	"qfusor/internal/server"
	"qfusor/internal/workload"
)

// serveMix is the serve-open read mix.
var serveMix = []stmt{{"q1", workload.Q1}, {"q12", workload.Q12}, {"q13", workload.Q13}, {"q16", workload.Q16}}

// Phase A parameters. serveRate is a fixed absolute rate, about 40% of
// the Phase B capacity this workload measured on a 2-core host when it
// was written (about 70 reads/s); it is never recalibrated, so a faster
// or slower program shows as latency, not as a different offered load.
const (
	serveRate      = 28.0 // requests per second
	phaseAShare    = 0.6  // share of --seconds spent in Phase A
	latencyLimit   = 500 * time.Millisecond
	maxGenLateness = 50 * time.Millisecond // p99 generator lateness above which a run is invalid
	qpsWindow      = 50                    // Phase B completions per rate window
	probeInterval  = 50 * time.Millisecond // between host probe samples
)

// serveCapacity is the server's admission limit: how many queries
// execute at once. It is 1 because two queries running the same fused
// UDF at once can return wrong rows (q12's urldepth and hostname, seen
// with a capacity of 2); the requests still arrive over nproc
// connections and wait in the admission queue.
const serveCapacity = 1

// serveEnv is a running query server with two tenant sessions that have
// every statement of the mix prepared.
type serveEnv struct {
	in       *engines.Instance
	srv      *server.Server
	base     string
	client   *http.Client
	sessions []string
	want     map[string][]byte // in-process reference rows per statement, as JSON
	served   map[string][]byte // the server's rows per statement, checked against want at set-up
}

func (e *serveEnv) close() {
	e.srv.Close()
	e.client.CloseIdleConnections()
	e.in.Close()
}

// post sends a JSON request and decodes a 200 reply into out; any other
// status is an error carrying the reply's text.
func (e *serveEnv) post(path string, body, out any) error {
	b, err := json.Marshal(body)
	if err != nil {
		return err
	}
	resp, err := e.client.Post(e.base+path, "application/json", bytes.NewReader(b))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: %d %s", path, resp.StatusCode, bytes.TrimSpace(raw))
	}
	return json.Unmarshal(raw, out)
}

// reply is the part of a query reply the benchmark reads.
type reply struct {
	Rows      json.RawMessage `json:"rows"`
	Admission struct {
		WaitNS int64 `json:"wait_ns"`
	} `json:"admission"`
}

// query runs a prepared statement on a session and checks its rows.
// The server's encoding of a result is deterministic, so rows equal to
// bytes already checked need no decoding; the client then takes little
// of the CPU the server runs on.
func (e *serveEnv) query(sess, id string) (reply, error) {
	var r reply
	if err := e.post("/v1/query", map[string]string{"session": sess, "stmt": id}, &r); err != nil {
		return r, err
	}
	if bytes.Equal(e.served[id], r.Rows) {
		return r, nil
	}
	if !sameJSONRows(e.want[id], r.Rows) {
		return r, fmt.Errorf("%s: served rows differ from the in-process reference", id)
	}
	return r, nil
}

// setupServe loads tiny datasets at parallelism 1, starts the server on
// a loopback port, opens two tenant sessions, prepares the mix on each,
// takes in-process native references and warms every statement on
// every session.
func setupServe() (*serveEnv, error) {
	in, err := install(1, workload.Tiny, "udfbench", "zillow", "weld")
	if err != nil {
		return nil, err
	}
	n := runtime.NumCPU()
	srv := server.New(in, server.Config{
		Admission:  resilience.AdmissionConfig{MaxConcurrent: serveCapacity, QueueDepth: 2 * n, QueueTimeout: latencyLimit},
		DrainGrace: 5 * time.Second,
	})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		in.Close()
		return nil, err
	}
	e := &serveEnv{in: in, srv: srv, base: "http://" + addr, want: map[string][]byte{}, served: map[string][]byte{},
		client: &http.Client{Transport: &http.Transport{MaxConnsPerHost: n, MaxIdleConnsPerHost: n}}}
	ok := false
	defer func() {
		if !ok {
			e.close()
		}
	}()
	for _, st := range serveMix {
		t, err := in.Query(st.sql)
		if err != nil {
			return nil, fmt.Errorf("%s native: %w", st.id, err)
		}
		if e.want[st.id], err = jsonRows(t); err != nil {
			return nil, err
		}
	}
	for _, tenant := range []string{"t1", "t2"} {
		var s struct{ Session string }
		if err := e.post("/v1/session", map[string]any{"tenant": tenant}, &s); err != nil {
			return nil, err
		}
		e.sessions = append(e.sessions, s.Session)
		for _, st := range serveMix {
			var ignored any
			if err := e.post("/v1/prepare", map[string]string{"session": s.Session, "name": st.id, "sql": st.sql}, &ignored); err != nil {
				return nil, err
			}
			r, err := e.query(s.Session, st.id)
			if err != nil {
				return nil, fmt.Errorf("warm-up: %w", err)
			}
			if e.served[st.id] == nil {
				e.served[st.id] = r.Rows
			}
		}
	}
	ok = true
	return e, nil
}

// arrival is one Phase A request: when it is due and what it runs.
type arrival struct {
	due  time.Duration // since the phase started
	stmt int
	sess int
}

// arrivals draws seeded arrivals at serveRate over d. Gaps are uniform
// between half and one and a half times the mean gap: exponential gaps
// would make how much queueing a run sees depend on how bursty its
// seed's arrivals happen to be.
func arrivals(seed uint64, d time.Duration) []arrival {
	rng := seeded(seed)
	mix := &deck{rng: rng, n: len(serveMix)}
	var out []arrival
	at := time.Duration(0)
	for {
		at += time.Duration((0.5 + rng.Float64()) / serveRate * float64(time.Second))
		if at >= d {
			return out
		}
		out = append(out, arrival{due: at, stmt: mix.next(), sess: len(out) % 2})
	}
}

// runServeOpen is the serve-open workload. Phase A is an open loop:
// seeded arrivals at serveRate, each timed from when it was due, sent
// over at most nproc connections. Phase B is a closed loop with nproc
// clients and gives qps.
func runServeOpen(cfg config) (*outcome, error) {
	out := &outcome{metrics: metricSet{}, meta: map[string]any{}}
	m := out.metrics
	env, err := repeatSetup(m, cfg.setups, cfg.probe, setupServe)
	if err != nil {
		return nil, err
	}
	defer env.close()
	var rec *recorder
	if cfg.trace {
		rec = newRecorder()
	}
	out.rec = rec
	nproc := runtime.NumCPU()
	dA := time.Duration(float64(cfg.seconds) * phaseAShare)

	// Phase A.
	arr := arrivals(cfg.seed, dA)
	lat := make([]time.Duration, len(arr))
	late := make([]float64, len(arr))
	waits := make([]int64, len(arr))
	errs := make([]error, len(arr))
	jobs := make(chan int, len(arr)) // sized to the number of sends: the generator never blocks
	c0, rt0 := readCounts(), readRuntime()
	probeStop, probeDone := make(chan struct{}), make(chan struct{})
	go cfg.probe.every("run", probeInterval, probeStop, probeDone)
	start := time.Now()
	go func() {
		for i, a := range arr {
			time.Sleep(time.Until(start.Add(a.due)))
			late[i] = ms(time.Since(start.Add(a.due)))
			jobs <- i
		}
		close(jobs)
	}()
	var wg sync.WaitGroup
	for w := 0; w < nproc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				a := arr[i]
				due := start.Add(a.due)
				sent := time.Now()
				r, err := env.query(env.sessions[a.sess], serveMix[a.stmt].id)
				lat[i] = time.Since(due)
				if err == nil && lat[i] > latencyLimit {
					err = fmt.Errorf("%s took %v, over the %v limit", serveMix[a.stmt].id, lat[i], latencyLimit)
				}
				errs[i], waits[i] = err, r.Admission.WaitNS
				if rec != nil && i%2 == 1 {
					root := rec.add("read", int64(i), -1, due, lat[i])
					rec.add("http", int64(i), root, sent, time.Since(sent))
				}
			}
		}()
	}
	wg.Wait()
	close(probeStop)
	<-probeDone
	cA, rtA := readCounts().sub(c0), readRuntime()

	byStmt, tracedBy := map[string][]float64{}, map[string][]float64{}
	var all []float64
	var waitSum int64
	for i, a := range arr {
		out.attempted++
		if errs[i] != nil {
			out.fail("phase A: %v", errs[i])
		}
		id := serveMix[a.stmt].id
		if cfg.trace && i%2 == 1 {
			tracedBy[id] = append(tracedBy[id], ms(lat[i]))
		} else {
			byStmt[id] = append(byStmt[id], ms(lat[i]))
		}
		all = append(all, ms(lat[i]))
		waitSum += waits[i]
	}
	genLate := quantile(late, 0.99)
	m.set("gen.late_ms", genLate, "ms")
	if genLate > ms(maxGenLateness) {
		return nil, fmt.Errorf("invalid run: the Phase A generator ran %.1f ms late at p99 (limit %v)", genLate, maxGenLateness)
	}
	m.set("read_ms", mixMean(byStmt), "ms")
	m.set("tail_ms", tailMS(all), "ms")
	out.meta["tail"] = tailOf(all)

	// Phase B. qps is the median rate over windows of qpsWindow
	// consecutive completions, so that a stall of a second or two moves
	// one window and not the metric. The host probe samples beside it
	// scale qps alone.
	dB := cfg.seconds - dA
	var mu sync.Mutex
	var doneAt []time.Duration
	probeStop, probeDone = make(chan struct{}), make(chan struct{})
	go cfg.probe.every("qps", probeInterval, probeStop, probeDone)
	bStart := time.Now()
	for w := 0; w < nproc; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			mix := &deck{rng: seeded(cfg.seed + uint64(w+1)*0x9e3779b9), n: len(serveMix)}
			var done []time.Duration
			attempted := 0
			var firstErr error
			for time.Since(bStart) < dB {
				attempted++
				if _, err := env.query(env.sessions[w%2], serveMix[mix.next()].id); err != nil {
					if firstErr == nil {
						firstErr = err
					}
					continue
				}
				done = append(done, time.Since(bStart))
			}
			mu.Lock()
			defer mu.Unlock()
			doneAt = append(doneAt, done...)
			out.attempted += attempted
			for i := len(done); i < attempted; i++ {
				out.fail("phase B: %v", firstErr)
			}
		}(w)
	}
	wg.Wait()
	close(probeStop)
	<-probeDone
	sort.Slice(doneAt, func(i, j int) bool { return doneAt[i] < doneAt[j] })
	var rates []float64
	for i := qpsWindow; i < len(doneAt); i += qpsWindow {
		rates = append(rates, qpsWindow/(doneAt[i]-doneAt[i-qpsWindow]).Seconds())
	}
	if len(rates) == 0 { // too short a phase for one window
		rates = append(rates, float64(len(doneAt))/dB.Seconds())
	}
	m.set("qps", median(rates), "1/s")
	cAB := readCounts().sub(c0)
	m.set("server.admit_ratio", ratio(float64(cAB["server.admitted"]), float64(cAB["server.admitted"]+cAB["server.rejected"])), "ratio")
	m.set("server.admission_wait_ms", float64(waitSum)/float64(len(arr))/1e6, "ms")

	out.meta["parallelism"] = 1
	out.meta["size"] = string(workload.Tiny)
	out.meta["phase_a_requests"] = len(arr)
	out.meta["latency_limit_ms"] = ms(latencyLimit)
	out.meta["connections"] = nproc
	if !cfg.trace {
		m.set("live_heap_mb", liveHeapMB(), "MB")
		return out, nil
	}

	// Traced: Phase A counters and runtime, then in-process side passes
	// over the same statements.
	countMetrics(m, cA, len(arr), cA)
	runtimeMetrics(m, rtAcc{ops: len(arr), allocBytes: rtA.allocBytes - rt0.allocBytes, gcCyc: rtA.gcCycles - rt0.gcCycles}, rt0, rtA)
	m.set("trace.overhead_pct", 100*(mixMean(tracedBy)/mixMean(byStmt)-1), "%")
	m.set("trace.self.read_ms", median(rec.selfTimes()["read"]), "ms")
	frontend, execute, native := map[string][]float64{}, map[string][]float64{}, map[string][]float64{}
	overhead := 0.0
	for _, st := range serveMix {
		var viaHTTP, inproc []float64
		for r := 0; r < layerReps; r++ {
			t0 := time.Now()
			if _, err := env.query(env.sessions[0], st.id); err != nil {
				return nil, err
			}
			viaHTTP = append(viaHTTP, ms(time.Since(t0)))
			t0 = time.Now()
			if _, err := env.in.QueryFused(st.sql); err != nil {
				return nil, err
			}
			inproc = append(inproc, ms(time.Since(t0)))

			root := rec.begin("inproc.read", int64(-1-r), -1)
			sp := rec.begin("core.frontend", int64(-1-r), root)
			q, _, err := env.in.QF.Process(env.in.Eng, st.sql)
			frontend[st.id] = append(frontend[st.id], ms(rec.end(sp)))
			if err != nil {
				return nil, err
			}
			sp = rec.begin("sqlengine.execute", int64(-1-r), root)
			_, err = env.in.Eng.Execute(q)
			execute[st.id] = append(execute[st.id], ms(rec.end(sp)))
			rec.end(root)
			if err != nil {
				return nil, err
			}
			sp = rec.begin("sqlengine.native", int64(-1-r), -1)
			_, err = env.in.Query(st.sql)
			native[st.id] = append(native[st.id], ms(rec.end(sp)))
			if err != nil {
				return nil, err
			}
		}
		overhead += median(viaHTTP) - median(inproc)
	}
	m.set("server.http_overhead_ms", overhead/float64(len(serveMix)), "ms")
	m.set("core.frontend_ms", mixMean(frontend), "ms")
	m.set("sqlengine.execute_ms", mixMean(execute), "ms")
	m.set("sqlengine.native_ms", mixMean(native), "ms")
	accounted := mixMean(frontend) + mixMean(execute)
	m.set("trace.unaccounted_pct", 100*(1-accounted/mixMean(byStmt)), "%")
	pubs, _ := env.in.Eng.Catalog.Table("pubs")
	if err := sideLayers(m, env.in, ids(serveMix), pubs, rec); err != nil {
		return nil, err
	}
	return out, nil
}
