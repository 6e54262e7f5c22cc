package main

import (
	"fmt"
	"math/rand/v2"
	"strings"
	"time"

	"qfusor/internal/data"
	"qfusor/internal/engines"
	"qfusor/internal/workload"
)

// stmt is one statement of a workload's read mix.
type stmt struct{ id, sql string }

// paperMix is the paper-warm read mix: UDFBench Q1–Q3, Zillow Q11/Q12
// and Weld Q15/Q16.
var paperMix = []stmt{
	{"q1", workload.Q1}, {"q2", workload.Q2}, {"q3", workload.Q3},
	{"q11", workload.Q11}, {"q12", workload.Q12}, {"q15", workload.Q15}, {"q16", workload.Q16},
}

// dmlMix is the dml-interleave read mix: the short Zillow queries and
// Weld Q16, over the two tables the writes change.
var dmlMix = []stmt{{"q12", workload.Q12}, {"q13", workload.Q13}, {"q14", workload.Q14}, {"q16", workload.Q16}}

func ids(mix []stmt) []string {
	out := make([]string, len(mix))
	for i, s := range mix {
		out[i] = s.id
	}
	return out
}

// seeded returns the run's random source: the same seed gives the same
// query order, DML batches and arrival times.
func seeded(seed uint64) *rand.Rand { return rand.New(rand.NewPCG(seed, 0x51ed270b)) }

// deck deals the indexes 0..n-1 in seeded order, reshuffling after each
// pass, so that every statement of a mix runs equally often and only
// the order depends on the seed. Drawing each statement independently
// would let the mix's proportions, and with them every pooled metric,
// differ from seed to seed.
type deck struct {
	rng  *rand.Rand
	n    int
	left []int
}

func (d *deck) next() int {
	if len(d.left) == 0 {
		d.left = d.rng.Perm(d.n)
	}
	i := d.left[0]
	d.left = d.left[1:]
	return i
}

// instEnv is a set-up engine instance.
type instEnv struct {
	in   *engines.Instance
	refs map[string]result // native reference per statement (paper-warm)
	dml  *dmlState         // table churn state (dml-interleave)
}

func (e *instEnv) close() { e.in.Close() }

// install launches a monetdb-profile instance pinned to parallelism p
// and loads the named workload libraries with their tables at size.
func install(p int, size workload.Size, libs ...string) (*engines.Instance, error) {
	in := engines.Launch(engines.Config{Profile: engines.Monet, JIT: true, Parallelism: p})
	for _, lib := range libs {
		var err error
		switch lib {
		case "udfbench":
			err = workload.InstallUDFBench(in)
			in.Put(workload.GenUDFBench(size).Pubs)
		case "zillow":
			err = workload.InstallZillow(in)
			in.Put(workload.GenZillow(size))
		case "weld":
			err = workload.InstallWeld(in)
			pop, dirty := workload.GenWeld(size)
			in.Put(pop)
			in.Put(dirty)
		}
		if err != nil {
			in.Close()
			return nil, fmt.Errorf("installing %s: %w", lib, err)
		}
	}
	return in, nil
}

// singleRun measures a one-client closed loop. Untraced reads go through
// the engine's fused query path; traced reads call the optimizer
// front-end (core.QFusor.Process) and the executor (Engine.Execute)
// directly, each in its own span under the read's span. A traced run
// alternates the two kinds so that trace.overhead_pct compares them
// within one run.
type singleRun struct {
	cfg config
	in  *engines.Instance
	out *outcome
	rec *recorder

	reads      int
	lat        map[string][]float64 // untraced read latency per statement
	tracedLat  map[string][]float64
	frontend   map[string][]float64
	execute    map[string][]float64
	native     map[string][]float64
	readLat    []float64 // every read's latency, for tail_ms
	busy       time.Duration
	accounted  time.Duration // traced: front-end + execute time
	tracedTime time.Duration // traced: read span time

	// Count window: counter deltas over the first window reads, so that
	// a same-seed run repeats them exactly.
	window    int
	win       counts
	winStmt   map[string]counts
	winOps    map[string]int
	rt        rtAcc
	rtStmt    map[string]*rtAcc
	inlineCt  counts // counters at the start of the last set-up
	inlineWin counts // inlineCt to the end of the count window
}

func newSingleRun(cfg config, window int) *singleRun {
	r := &singleRun{cfg: cfg, out: &outcome{metrics: metricSet{}, meta: map[string]any{}},
		lat: map[string][]float64{}, tracedLat: map[string][]float64{}, frontend: map[string][]float64{},
		execute: map[string][]float64{}, native: map[string][]float64{},
		window: window, win: counts{}, winStmt: map[string]counts{}, winOps: map[string]int{},
		rtStmt: map[string]*rtAcc{}}
	if cfg.trace {
		r.rec = newRecorder()
	}
	return r
}

// read runs one fused read of st and returns its result; failures are
// counted by the caller.
func (r *singleRun) read(st stmt, traced bool) (*data.Table, error) {
	var (
		c0  counts
		rt0 rtSample
	)
	counting := r.cfg.trace && r.reads < r.window
	if counting {
		c0 = readCounts()
	}
	if r.cfg.trace {
		rt0 = readRuntime()
	}
	req := int64(r.reads)
	r.reads++
	var (
		t   *data.Table
		err error
		d   time.Duration
	)
	if traced {
		root := r.rec.begin("read", req, -1)
		sp := r.rec.begin("core.frontend", req, root)
		q, _, perr := r.in.QF.Process(r.in.Eng, st.sql)
		fe := r.rec.end(sp)
		var ex time.Duration
		if err = perr; err == nil {
			sp = r.rec.begin("sqlengine.execute", req, root)
			t, err = r.in.Eng.Execute(q)
			ex = r.rec.end(sp)
		}
		d = r.rec.end(root)
		r.frontend[st.id] = append(r.frontend[st.id], ms(fe))
		r.execute[st.id] = append(r.execute[st.id], ms(ex))
		r.tracedLat[st.id] = append(r.tracedLat[st.id], ms(d))
		r.accounted += fe + ex
		r.tracedTime += d
	} else {
		t0 := time.Now()
		t, err = r.in.QueryFused(st.sql)
		d = time.Since(t0)
		r.lat[st.id] = append(r.lat[st.id], ms(d))
	}
	if r.cfg.trace {
		rt1 := readRuntime()
		r.rt.add(rt0, rt1)
		if r.rtStmt[st.id] == nil {
			r.rtStmt[st.id] = &rtAcc{}
		}
		r.rtStmt[st.id].add(rt0, rt1)
	}
	if counting {
		dc := readCounts().sub(c0)
		r.win.add(dc)
		if r.winStmt[st.id] == nil {
			r.winStmt[st.id] = counts{}
		}
		r.winStmt[st.id].add(dc)
		r.winOps[st.id]++
		if r.reads == r.window {
			r.inlineWin = readCounts().sub(r.inlineCt)
		}
	}
	r.readLat = append(r.readLat, ms(d))
	r.timed(d)
	return t, err
}

// timed records one operation's latency for qps.
func (r *singleRun) timed(d time.Duration) {
	r.busy += d
	r.out.attempted++
}

// runNative times the native plan of st (no QFusor) outside the read's
// timed region and returns its result.
func (r *singleRun) runNative(st stmt) (*data.Table, error) {
	sp := r.rec.begin("sqlengine.native", int64(r.reads-1), -1)
	t0 := time.Now()
	t, err := r.in.Query(st.sql)
	r.native[st.id] = append(r.native[st.id], ms(time.Since(t0)))
	r.rec.end(sp)
	return t, err
}

// finish computes the metrics common to both single-client workloads.
func (r *singleRun) finish(mix []string, pubs *data.Table) error {
	m := r.out.metrics
	untraced := r.lat
	m.set("read_ms", mixMean(untraced), "ms")
	m.set("qps", float64(r.out.attempted)/r.busy.Seconds(), "1/s")
	m.set("tail_ms", tailMS(r.readLat), "ms")
	r.out.meta["tail"] = tailOf(r.readLat)
	if !r.cfg.trace {
		m.set("live_heap_mb", liveHeapMB(), "MB")
		return nil
	}
	m.set("core.frontend_ms", mixMean(r.frontend), "ms")
	m.set("sqlengine.execute_ms", mixMean(r.execute), "ms")
	m.set("sqlengine.native_ms", mixMean(r.native), "ms")
	m.set("trace.overhead_pct", 100*(mixMean(r.tracedLat)/mixMean(untraced)-1), "%")
	m.set("trace.unaccounted_pct", 100*(1-ratio(float64(r.accounted), float64(r.tracedTime))), "%")
	m.set("trace.self.read_ms", median(r.rec.selfTimes()["read"]), "ms")
	ops := 0
	for _, n := range r.winOps {
		ops += n
	}
	countMetrics(m, r.win, ops, r.inlineWin)
	r.out.meta["count_window_reads"] = ops
	return sideLayers(m, r.in, mix, pubs, r.rec)
}

// runPaperWarm is the paper-warm workload: the paper's seven queries at
// size small, parallelism 2, one closed-loop client running rounds of
// all seven in seed-shuffled order against a warm plan cache. Every
// result is compared with a native reference taken at set-up.
func runPaperWarm(cfg config) (*outcome, error) {
	r := newSingleRun(cfg, 2*len(paperMix))
	env, err := repeatSetup(r.out.metrics, cfg.setups, cfg.probe, func() (*instEnv, error) {
		r.inlineCt = readCounts()
		in, err := install(2, workload.Small, "udfbench", "zillow", "weld")
		if err != nil {
			return nil, err
		}
		e := &instEnv{in: in, refs: map[string]result{}}
		for _, st := range paperMix {
			t, err := in.Query(st.sql)
			if err != nil {
				in.Close()
				return nil, fmt.Errorf("%s native: %w", st.id, err)
			}
			e.refs[st.id] = canon(t)
		}
		for _, st := range paperMix {
			t, err := in.QueryFused(st.sql)
			if err == nil {
				if d := diff(e.refs[st.id], canon(t)); d != "" {
					err = fmt.Errorf("%s", d)
				}
			}
			if err != nil {
				in.Close()
				return nil, fmt.Errorf("%s warm-up: %w", st.id, err)
			}
		}
		return e, nil
	})
	if err != nil {
		return nil, err
	}
	defer env.close()
	r.in = env.in
	rng := seeded(cfg.seed)
	var rt0 rtSample
	if cfg.trace {
		rt0 = readRuntime()
	}
	deadline := time.Now().Add(cfg.seconds)
	for round := 0; r.reads < r.window || time.Now().Before(deadline); round++ {
		traced := cfg.trace && round%2 == 1
		for _, i := range rng.Perm(len(paperMix)) {
			st := paperMix[i]
			r.out.seq = append(r.out.seq, st.id)
			t, err := r.read(st, traced)
			if err == nil {
				if d := diff(env.refs[st.id], canon(t)); d != "" {
					err = fmt.Errorf("%s", d)
				}
			}
			if err != nil {
				r.out.fail("%s: %v", st.id, err)
			}
			cfg.probe.sample("run")
		}
	}
	m := r.out.metrics
	for _, st := range paperMix {
		m.set(st.id+"_ms", median(r.lat[st.id]), "ms")
	}
	if cfg.trace {
		runtimeMetrics(m, r.rt, rt0, readRuntime())
		for _, st := range paperMix {
			for range layerReps {
				if _, err := r.runNative(st); err != nil {
					return nil, fmt.Errorf("%s native: %w", st.id, err)
				}
			}
			q := st.id + "."
			m.set(q+"core.frontend_ms", median(r.frontend[st.id]), "ms")
			m.set(q+"sqlengine.execute_ms", median(r.execute[st.id]), "ms")
			m.set(q+"ffi.boundary_bytes_per_op", ratio(float64(r.winStmt[st.id]["ffi.boundary.bytes_in"]+r.winStmt[st.id]["ffi.boundary.bytes_out"]), float64(r.winOps[st.id])), "bytes")
			if a := r.rtStmt[st.id]; a != nil {
				m.set(q+"runtime.alloc_mb_per_op", ratio(float64(a.allocBytes)/(1<<20), float64(a.ops)), "MB")
			}
		}
	}
	pubs, _ := env.in.Eng.Catalog.Table("pubs")
	if err := r.finish(ids(paperMix), pubs); err != nil {
		return nil, err
	}
	r.out.meta["parallelism"] = 2
	r.out.meta["size"] = string(workload.Small)
	r.out.rec = r.rec
	return r.out, nil
}

// DML churn parameters: each write inserts dmlBatchRows rows into one
// table and deletes the batch that table received dmlKeep writes
// earlier, so both tables keep a constant size.
const (
	dmlBatchRows = 200
	dmlKeep      = 4
)

// dmlTables are the tables the writes churn.
var dmlTables = []string{"listings", "dirty"}

// dmlState tracks the batches live in each table.
type dmlState struct {
	next int              // next batch number
	live map[string][]int // batch numbers per table, oldest first
	rows map[string]int   // expected row count per table
}

// insertSQL builds the INSERT of batch k into table from rng.
func insertSQL(rng *rand.Rand, table string, k int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "INSERT INTO %s VALUES ", table)
	for i := 0; i < dmlBatchRows; i++ {
		if i > 0 {
			b.WriteString(", ")
		}
		switch table {
		case "listings":
			cities := []string{"boston", "NEW YORK", "seattle", " austin ", "Denver", "chicago"}
			kinds := []string{"Condo", "House", "Apartment", "Townhome"}
			offers := []string{"for sale", "For Rent", "recently sold", "foreclosure", "FOR SALE"}
			city := cities[rng.IntN(len(cities))]
			var price string
			switch rng.IntN(3) {
			case 0:
				price = fmt.Sprintf("$%d,%03d", 80+rng.IntN(2800), rng.IntN(1000))
			case 1:
				price = fmt.Sprintf("$%d.%dK", 80+rng.IntN(2800), rng.IntN(10))
			default:
				price = fmt.Sprintf("$%d.%02dM", 1+rng.IntN(27), rng.IntN(100))
			}
			fmt.Fprintf(&b, "('https://www.zillow.com/homedetails/%s/%d_zpid/', '%s %s', '%d Main St, %s', '%s', 'b%d', '%s', '%d bd, %d ba , %d sqft', '%s')",
				strings.ReplaceAll(strings.TrimSpace(city), " ", "-"), 50000000+k*dmlBatchRows+i,
				kinds[rng.IntN(len(kinds))], offers[rng.IntN(len(offers))], 1+rng.IntN(999), strings.TrimSpace(city),
				city, k, price, 1+rng.IntN(5), 1+rng.IntN(3), 400+rng.IntN(4200), offers[rng.IntN(len(offers))])
		case "dirty":
			val := func() string {
				switch rng.IntN(6) {
				case 0:
					return "?"
				case 1:
					return "NA"
				case 2:
					return fmt.Sprintf(" %d ", rng.IntN(10000))
				case 3:
					return fmt.Sprintf("%d.0", rng.IntN(10000))
				default:
					return fmt.Sprint(rng.IntN(10000))
				}
			}
			fmt.Fprintf(&b, "(%d, '%s', '%s', '%s')", 1000000+k*dmlBatchRows+i, val(), val(), val())
		}
	}
	return b.String()
}

// deleteSQL builds the DELETE of batch k from table. Listings batches
// are tagged in the state column, which no query of the mix reads;
// dirty batches own an id range.
func deleteSQL(table string, k int) string {
	if table == "listings" {
		return fmt.Sprintf("DELETE FROM listings WHERE state = 'b%d'", k)
	}
	lo := 1000000 + k*dmlBatchRows
	return fmt.Sprintf("DELETE FROM dirty WHERE id >= %d AND id < %d", lo, lo+dmlBatchRows)
}

// write inserts the next batch into table and, unless it is filling the
// table at set-up, deletes the table's oldest live batch. It returns the
// time of the two statements and checks the table's size after them.
func (s *dmlState) write(in *engines.Instance, rng *rand.Rand, table string, prefill bool) (time.Duration, error) {
	k := s.next
	s.next++
	ins := insertSQL(rng, table, k)
	var del string
	if !prefill {
		del = deleteSQL(table, s.live[table][0])
		s.live[table] = s.live[table][1:]
	}
	t0 := time.Now()
	if err := in.Eng.Exec(ins); err != nil {
		return 0, fmt.Errorf("insert into %s: %w", table, err)
	}
	if del != "" {
		if err := in.Eng.Exec(del); err != nil {
			return 0, fmt.Errorf("delete from %s: %w", table, err)
		}
	}
	d := time.Since(t0)
	s.live[table] = append(s.live[table], k)
	if prefill {
		s.rows[table] += dmlBatchRows
	}
	t, ok := in.Eng.Catalog.Table(table)
	if !ok {
		return d, fmt.Errorf("%s is gone after a write", table)
	}
	if t.NumRows() != s.rows[table] {
		return d, fmt.Errorf("%s holds %d rows after a write, want %d", table, t.NumRows(), s.rows[table])
	}
	return d, nil
}

// runDMLInterleave is the dml-interleave workload: size tiny,
// parallelism 1, one closed-loop client alternating a seeded read of
// the mix with a seeded write. Every write moves the catalog epoch, so
// the next read is planned again. Each read is compared with a native
// run on the same table state, outside its timed region.
func runDMLInterleave(cfg config) (*outcome, error) {
	r := newSingleRun(cfg, 40)
	rng := seeded(cfg.seed)
	env, err := repeatSetup(r.out.metrics, cfg.setups, cfg.probe, func() (*instEnv, error) {
		r.inlineCt = readCounts()
		in, err := install(1, workload.Tiny, "zillow", "weld")
		if err != nil {
			return nil, err
		}
		s := &dmlState{live: map[string][]int{}, rows: map[string]int{}}
		prefill := seeded(cfg.seed ^ 0xfeed)
		for _, tb := range dmlTables {
			t, _ := in.Eng.Catalog.Table(tb)
			s.rows[tb] = t.NumRows()
			for i := 0; i < dmlKeep; i++ {
				if _, err := s.write(in, prefill, tb, true); err != nil {
					in.Close()
					return nil, err
				}
			}
		}
		for _, st := range dmlMix {
			if _, err := in.QueryFused(st.sql); err != nil {
				in.Close()
				return nil, fmt.Errorf("%s warm-up: %w", st.id, err)
			}
		}
		return &instEnv{in: in, dml: s}, nil
	})
	if err != nil {
		return nil, err
	}
	defer env.close()
	r.in = env.in
	reads, tables := &deck{rng: rng, n: len(dmlMix)}, &deck{rng: rng, n: len(dmlTables)}
	var writes []float64
	var rt0 rtSample
	if cfg.trace {
		rt0 = readRuntime()
	}
	deadline := time.Now().Add(cfg.seconds)
	for op := 0; r.reads < r.window || time.Now().Before(deadline); op++ {
		st := dmlMix[reads.next()]
		table := dmlTables[tables.next()]
		r.out.seq = append(r.out.seq, st.id, "write:"+table)
		t, err := r.read(st, cfg.trace && op%2 == 1)
		if err == nil {
			var nt *data.Table
			if nt, err = r.runNative(st); err == nil {
				if d := diff(canon(nt), canon(t)); d != "" {
					err = fmt.Errorf("%s", d)
				}
			}
		}
		if err != nil {
			r.out.fail("%s: %v", st.id, err)
		}
		d, err := env.dml.write(env.in, rng, table, false)
		r.timed(d)
		writes = append(writes, ms(d))
		if err != nil {
			r.out.fail("write: %v", err)
		}
		if op%2 == 1 {
			cfg.probe.sample("run")
		}
	}
	m := r.out.metrics
	m.set("write_ms", median(writes), "ms")
	if cfg.trace {
		runtimeMetrics(m, r.rt, rt0, readRuntime())
	}
	pubs := workload.GenUDFBench(workload.Tiny).Pubs
	if err := r.finish(ids(dmlMix), pubs); err != nil {
		return nil, err
	}
	r.out.meta["parallelism"] = 1
	r.out.meta["size"] = string(workload.Tiny)
	r.out.meta["batch_rows"] = dmlBatchRows
	r.out.meta["batches_kept"] = dmlKeep
	r.out.rec = r.rec
	return r.out, nil
}
