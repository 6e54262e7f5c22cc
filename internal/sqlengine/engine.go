package sqlengine

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"

	"qfusor/internal/data"
	"qfusor/internal/ffi"
	"qfusor/internal/obs"
)

// Engine-wide execution metrics (obs.Default).
var (
	mQueries      = obs.Default.Counter("engine.queries")
	mRowsOut      = obs.Default.Counter("engine.rows_out")
	mExecNanos    = obs.Default.Histogram("engine.exec_nanos")
	mPlanNanos    = obs.Default.Histogram("engine.plan_nanos")
	mZeroCopyCols = obs.Default.Counter("engine.zero_copy_cols")
)

// ExecMode selects the physical execution model.
type ExecMode int

const (
	// ModeColumnar is operator-at-a-time with full intermediate
	// materialization (MonetDB's model).
	ModeColumnar ExecMode = iota
	// ModeChunked is vectorized pipelined execution over fixed-size
	// chunks (DuckDB's model).
	ModeChunked
	// ModeRow is tuple-at-a-time Volcano iteration (SQLite/PostgreSQL).
	ModeRow
)

// String names the mode for EXPLAIN and experiment output.
func (m ExecMode) String() string {
	switch m {
	case ModeColumnar:
		return "columnar"
	case ModeChunked:
		return "chunked"
	case ModeRow:
		return "row"
	}
	return "?"
}

// Engine is one configured SQL database instance: a catalog plus a
// physical execution model and a UDF transport. The engine profiles in
// package engines wrap it with paper-specific settings.
type Engine struct {
	Name    string
	Catalog *Catalog
	Invoker ffi.Invoker
	Mode    ExecMode
	// ChunkSize bounds vectorized batch size in ModeChunked.
	ChunkSize int
	// Parallelism is the number of worker goroutines for partitionable
	// and blocking operators (morsel-driven execution): 0 = auto (every
	// core the runtime sees), 1 = legacy serial for A/B baselines.
	Parallelism int
	// MorselSize overrides the morsel row count (0 = defaultMorselSize).
	// ModeChunked still follows ChunkSize so operator boundaries stay
	// aligned with the pipeline's vector size.
	MorselSize int

	// statsMu guards lastStats: concurrent queries on one engine each
	// write it, so access goes through LastStats().
	statsMu   sync.Mutex
	lastStats ExecStats
}

// ExecStats carries per-query measurements used by the experiments.
type ExecStats struct {
	PlanTime time.Duration
	ExecTime time.Duration
	Rows     int
}

// New creates an engine with the given execution model and transport.
func New(name string, mode ExecMode, inv ffi.Invoker) *Engine {
	return &Engine{
		Name:        name,
		Catalog:     NewCatalog(),
		Invoker:     inv,
		Mode:        mode,
		ChunkSize:   2048,
		Parallelism: 0, // auto: runtime.GOMAXPROCS(0) workers (see Workers)
	}
}

// View returns a per-session execution view of the engine: a fresh
// Engine value sharing the catalog (tables, UDFs, epochs) and the UDF
// transport, but carrying its own Parallelism and MorselSize. A view
// is how the serving plane gives one session a different worker count
// without mutating the engine every other session executes on —
// Parallelism is read per query in the morsel scheduler, so flipping
// it on a shared Engine would race. n <= 0 keeps the parent's
// parallelism; morsel <= 0 keeps the parent's morsel size. Views also
// have independent LastStats, so concurrent sessions don't clobber
// each other's per-query measurements.
func (e *Engine) View(parallelism, morsel int) *Engine {
	if parallelism <= 0 {
		parallelism = e.Parallelism
	}
	if morsel <= 0 {
		morsel = e.MorselSize
	}
	return &Engine{
		Name:        e.Name,
		Catalog:     e.Catalog,
		Invoker:     e.Invoker,
		Mode:        e.Mode,
		ChunkSize:   e.ChunkSize,
		Parallelism: parallelism,
		MorselSize:  morsel,
	}
}

// Query parses, plans, optimizes and executes a SELECT, returning the
// result as a table.
func (e *Engine) Query(sql string) (*data.Table, error) {
	return e.QueryCtx(context.Background(), sql)
}

// QueryCtx is Query under a context: cancellation or deadline expiry
// stops execution between plan operators, between morsels, and (for
// UDF-bearing queries whose runtime is interrupt-bound) between PyLite
// statements, returning ctx.Err in the chain.
func (e *Engine) QueryCtx(ctx context.Context, sql string) (*data.Table, error) {
	st, err := ParseSQL(sql)
	if err != nil {
		return nil, err
	}
	switch s := st.(type) {
	case *SelectStmt:
		q, err := e.PlanQuery(s)
		if err != nil {
			return nil, err
		}
		return e.ExecuteCtx(ctx, q)
	case *ExplainStmt:
		sel, ok := s.Stmt.(*SelectStmt)
		if !ok {
			return nil, fmt.Errorf("sql: EXPLAIN supports SELECT only")
		}
		q, err := e.PlanQuery(sel)
		if err != nil {
			return nil, err
		}
		t := data.NewTable("explain", data.Schema{{Name: "plan", Kind: data.KindString}})
		for _, line := range strings.Split(strings.TrimRight(q.Explain(), "\n"), "\n") {
			_ = t.AppendRow(data.Str(line))
		}
		return t, nil
	default:
		if err := e.Exec(sql); err != nil {
			return nil, err
		}
		return data.NewTable("ok", data.Schema{}), nil
	}
}

// PlanQuery plans and optimizes a parsed SELECT.
func (e *Engine) PlanQuery(st *SelectStmt) (*Query, error) {
	start := time.Now()
	q, err := PlanSelect(e.Catalog, st)
	if err != nil {
		return nil, err
	}
	Optimize(q, e.Catalog)
	planTime := time.Since(start)
	mPlanNanos.Observe(float64(planTime.Nanoseconds()))
	e.statsMu.Lock()
	e.lastStats.PlanTime = planTime
	e.statsMu.Unlock()
	return q, nil
}

// LastStats returns measurements of the most recent query. Prefer the
// per-query numbers carried by EXPLAIN ANALYZE (core.Analysis) when
// queries run concurrently.
func (e *Engine) LastStats() ExecStats {
	e.statsMu.Lock()
	defer e.statsMu.Unlock()
	return e.lastStats
}

// Plan parses + plans a SELECT string (the EXPLAIN hook QFusor's client
// uses to obtain the optimizer's plan).
func (e *Engine) Plan(sql string) (*Query, error) {
	st, err := ParseSQL(sql)
	if err != nil {
		return nil, err
	}
	if ex, ok := st.(*ExplainStmt); ok {
		st = ex.Stmt
	}
	sel, ok := st.(*SelectStmt)
	if !ok {
		return nil, fmt.Errorf("sql: not a SELECT statement")
	}
	return e.PlanQuery(sel)
}

// Execute runs an optimized query through the configured executor.
func (e *Engine) Execute(q *Query) (*data.Table, error) {
	return e.ExecuteTraced(q, nil)
}

// ExecuteCtx runs an optimized query under a context (see QueryCtx).
func (e *Engine) ExecuteCtx(ctx context.Context, q *Query) (*data.Table, error) {
	return e.ExecuteTracedCtx(ctx, q, nil)
}

// ExecuteTraced runs an optimized query, hanging one span per plan
// operator (rows in/out, wall time) off root when a tracer is attached.
// A nil root is the zero-overhead fast path Execute takes.
func (e *Engine) ExecuteTraced(q *Query, root *obs.Span) (*data.Table, error) {
	return e.ExecuteTracedCtx(context.Background(), q, root)
}

// ExecuteTracedCtx is ExecuteTraced under a context: the context is
// checked at every plan-operator entry, every morsel claim, and (for
// the row executor) every few hundred rows, so cancellation lands
// within one morsel/step budget rather than at query end.
func (e *Engine) ExecuteTracedCtx(ctx context.Context, q *Query, root *obs.Span) (*data.Table, error) {
	start := time.Now()
	ectx := newExecCtx(e)
	if ctx != nil {
		ectx.ctx = ctx
		ectx.led = obs.LedgerFromContext(ctx)
	}
	ectx.span = root
	for _, cte := range q.CTEs {
		sp := root.Child("cte:" + cte.Name)
		ectx.span = sp
		ch, err := e.execPlan(cte.Plan, ectx)
		ectx.span = root
		sp.End()
		if err != nil {
			return nil, fmt.Errorf("cte %s: %w", cte.Name, err)
		}
		sp.SetInt("rows_out", int64(ch.NumRows()))
		ectx.ctes[strings.ToLower(cte.Name)] = ch
	}
	ch, err := e.execPlan(q.Root, ectx)
	if err != nil {
		return nil, err
	}
	execTime := time.Since(start)
	mQueries.Inc()
	mRowsOut.Add(int64(ch.NumRows()))
	ectx.led.AddRowsOut(ch.NumRows())
	mExecNanos.Observe(float64(execTime.Nanoseconds()))
	e.statsMu.Lock()
	e.lastStats.ExecTime = execTime
	e.lastStats.Rows = ch.NumRows()
	e.statsMu.Unlock()
	out := data.FromChunk("result", ch)
	out.Schema = q.Root.Schema
	for i, c := range out.Cols {
		if i < len(q.Root.Schema) {
			c.Name = q.Root.Schema[i].Name
		}
	}
	return out, nil
}

// execPlan runs one plan node through the physical executor for this
// engine's mode, wrapping it in a per-operator span when the query is
// traced. Child executions recurse through here, so the span tree
// mirrors the plan tree. With no tracer the hook is one nil check.
func (e *Engine) execPlan(p *Plan, ectx *execCtx) (*data.Chunk, error) {
	if err := ectx.ctx.Err(); err != nil {
		return nil, err
	}
	var opStart time.Time
	if ectx.led != nil {
		opStart = time.Now()
	}
	var (
		ch  *data.Chunk
		err error
	)
	if ectx.span == nil {
		ch, err = e.execPlanNode(p, ectx)
	} else {
		parent := ectx.span
		sp := parent.Child("op:" + p.Op.String())
		annotateOpSpan(sp, p)
		ectx.span = sp
		ch, err = e.execPlanNode(p, ectx)
		ectx.span = parent
		sp.End()
		if ch != nil {
			sp.SetInt("rows_out", int64(ch.NumRows()))
		}
	}
	if ectx.led != nil {
		rows := 0
		if ch != nil {
			rows = ch.NumRows()
		}
		ectx.led.OpObserve(opLedgerLabel(p), rows, time.Since(opStart).Nanoseconds())
	}
	return ch, err
}

// opLedgerLabel names a plan operator for the resource ledger: the
// operator plus its scanned table or UDF, so `scan:listings` and
// `fused:__qf_fused1` attribute separately.
func opLedgerLabel(p *Plan) string {
	if p.UDF != nil {
		return p.Op.String() + ":" + p.UDF.Name
	}
	if p.Table != "" {
		return p.Op.String() + ":" + p.Table
	}
	return p.Op.String()
}

// annotateOpSpan attaches the operator's identifying payload to its
// span: scanned table, UDF name, fused-section membership.
func annotateOpSpan(sp *obs.Span, p *Plan) {
	switch p.Op {
	case OpScan, OpCTERef:
		sp.SetAttr("table", p.Table)
	case OpTableFunc, OpExpand, OpFused, OpFusedAgg:
		if p.UDF != nil {
			sp.SetAttr("udf", p.UDF.Name)
			if p.UDF.Fused {
				sp.SetAttr("section", "fused")
				if p.UDF.VMProg() != nil {
					sp.SetAttr("tier", "vm")
				} else if p.UDF.Trace() != nil {
					sp.SetAttr("tier", "jit-trace")
				} else {
					sp.SetAttr("tier", "pylite")
				}
			}
		}
	}
	sp.SetInt("est_rows", int64(p.EstRows))
}

// execPlanNode dispatches to the physical executor for this engine's
// mode.
func (e *Engine) execPlanNode(p *Plan, ectx *execCtx) (*data.Chunk, error) {
	switch e.Mode {
	case ModeRow:
		return e.execRowPlan(p, ectx)
	default:
		return e.execColumnar(p, ectx)
	}
}

// execCtx carries per-query execution state.
type execCtx struct {
	eng  *Engine
	ctes map[string]*data.Chunk
	// ctx is the query's cancellation context; never nil (Background for
	// the non-context entry points).
	ctx context.Context
	// span is the current parent span when the query is traced (nil
	// otherwise). Child plan nodes execute sequentially, so execPlan may
	// swap it in place while descending.
	span *obs.Span
	// led is the query's resource ledger (nil when the query runs
	// unaccounted — every hook is nil-safe).
	led *obs.ResourceLedger
}

func newExecCtx(e *Engine) *execCtx {
	return &execCtx{eng: e, ctes: make(map[string]*data.Chunk), ctx: context.Background()}
}

// callScalarUDFRow invokes a scalar UDF for a single row through the
// engine's transport.
func (e *Engine) callScalarUDFRow(u *ffi.UDF, args []data.Value) (data.Value, error) {
	switch inv := e.Invoker.(type) {
	case *ffi.ProcessInvoker:
		// One-row IPC round trip (PostgreSQL's per-call protocol).
		cols := make([]*data.Column, len(args))
		for i, a := range args {
			k := a.Kind
			if i < len(u.InKinds) {
				k = u.InKinds[i]
			}
			if k == data.KindNull {
				k = data.KindString
			}
			c := data.NewColumn(fmt.Sprintf("a%d", i), k)
			c.AppendValue(a)
			cols[i] = c
		}
		switch u.Kind {
		case ffi.Scalar:
			out, err := inv.CallScalar(u, cols, 1)
			if err != nil {
				return data.Null, err
			}
			return out.Get(0), nil
		default:
			return data.Null, fmt.Errorf("sql: %s UDF in scalar position", u.Kind)
		}
	default:
		if u.Kind != ffi.Scalar {
			return data.Null, fmt.Errorf("sql: %s UDF in scalar position", u.Kind)
		}
		if u.Fused {
			// Tuple engines call fused wrappers per row (one-element
			// vectors), keeping the per-tuple crossing but still fusing
			// the UDF pipeline inside.
			cols := make([]*data.Column, len(args))
			for i, a := range args {
				k := a.Kind
				if i < len(u.InKinds) {
					k = u.InKinds[i]
				}
				if k == data.KindNull {
					k = data.KindString
				}
				c := data.NewColumn(fmt.Sprintf("a%d", i), k)
				c.AppendValue(a)
				cols[i] = c
			}
			out, err := onWorker(u, func(cu *ffi.UDF) ([]*data.Column, error) {
				return ffi.CallFusedVector(cu, cols, 1, []string{u.Name}, []data.Kind{u.OutKind()})
			})
			if err != nil {
				return data.Null, err
			}
			if out[0].Len() == 0 {
				return data.Null, nil
			}
			return out[0].Get(0), nil
		}
		start := time.Now()
		v, err := u.Invoke(args)
		if err != nil {
			return data.Null, fmt.Errorf("udf %s: %w", u.Name, err)
		}
		u.Stats.Calls.Add(1)
		u.Stats.InRows.Add(1)
		u.Stats.OutRows.Add(1)
		u.Stats.WallNanos.Add(time.Since(start).Nanoseconds())
		return v, nil
	}
}
