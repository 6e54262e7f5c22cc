package sqlengine

import (
	"fmt"

	"qfusor/internal/data"
	"qfusor/internal/ffi"
)

// The two plan operators QFusor's rewriter injects (§5.4, path 2: the
// rewritten plan is dispatched straight to the execution engine).

const (
	// OpFused runs a fused wrapper UDF over its child's columns; it may
	// change cardinality (offloaded filters/expands/distinct run inside).
	OpFused PlanOp = 100 + iota
	// OpFusedAgg computes group ids engine-side (the exported internal
	// group-by) and folds a fused aggregating wrapper per group.
	OpFusedAgg
)

func init() {
	// Extend the operator printer for the fused ops.
	fusedOpNames[OpFused] = "Fused"
	fusedOpNames[OpFusedAgg] = "FusedAgg"
}

var fusedOpNames = map[PlanOp]string{}

// execFusedColumnar executes OpFused/OpFusedAgg in the vectorized
// executors.
func (e *Engine) execFusedColumnar(p *Plan, ectx *execCtx) (*data.Chunk, error) {
	in, err := e.execPlan(p.Children[0], ectx)
	if err != nil {
		return nil, err
	}
	return e.runFused(p, in, ectx)
}

// runFusedAsTable executes a fused wrapper invoked through table-
// function syntax (the SQL produced by rewrite path 1): every child
// column feeds the wrapper in order.
func (e *Engine) runFusedAsTable(p *Plan, in *data.Chunk, ectx *execCtx) (*data.Chunk, error) {
	proxy := &Plan{Op: OpFused, UDF: p.UDF, Schema: p.Schema, Quals: p.Quals,
		NoPartition: p.NoPartition, EstRows: p.EstRows}
	for i := range in.Cols {
		proxy.TFArgs = append(proxy.TFArgs, &ColRef{Name: in.Cols[i].Name, Index: i})
	}
	return e.runFused(proxy, in, ectx)
}

// runFused applies the fused wrapper over a materialized input chunk.
func (e *Engine) runFused(p *Plan, in *data.Chunk, ectx *execCtx) (*data.Chunk, error) {
	n := in.NumRows()
	args := make([]*data.Column, len(p.TFArgs))
	for i, a := range p.TFArgs {
		cr, ok := a.(*ColRef)
		if !ok {
			return nil, fmt.Errorf("sql: fused input must be a column ref, got %T", a)
		}
		if cr.Index < 0 || cr.Index >= len(in.Cols) {
			return nil, fmt.Errorf("sql: fused input %s out of range", cr)
		}
		args[i] = in.Cols[cr.Index]
	}
	names := p.Schema.Names()
	kinds := make([]data.Kind, len(p.Schema))
	for i, f := range p.Schema {
		kinds[i] = f.Kind
	}
	if p.Op == OpFused {
		if p.NoPartition {
			cols, err := onWorker(p.UDF, func(cu *ffi.UDF) ([]*data.Column, error) {
				return ffi.CallFusedVectorTo(ectx.led, cu, args, n, names, kinds)
			})
			if err != nil {
				return nil, err
			}
			return data.NewChunk(cols...), nil
		}
		// Stateless fused wrappers are embarrassingly parallel over row
		// ranges (like the engine's own vectorized operators): each
		// worker runs a UDF clone on its own interpreter view, so pylite
		// execution never serializes on shared runtime state.
		return e.runFusedMorsels(p.UDF, data.NewChunk(args...), n, names, kinds, ectx)
	}
	// OpFusedAgg with a compiled trace: grouping happens inside the
	// trace (after fused filters) via the native group-by export.
	if tr := p.UDF.Trace(); tr != nil {
		// Decomposable aggregates (including avg and UDF aggregates with
		// a merge hook) run as per-worker partial states over morsels,
		// merged at the barrier.
		if e.Workers() > 1 && !p.NoPartition && tr.PartialMergeable() && n >= minParallelRows {
			return e.runTraceAggMorsels(p.UDF, tr, args, n, names, kinds, ectx)
		}
		cols, err := onWorker(p.UDF, func(cu *ffi.UDF) ([]*data.Column, error) {
			return ffi.RunTraceAggTo(ectx.led, cu, tr, args, n, names, kinds)
		})
		if err != nil {
			return nil, err
		}
		return data.NewChunk(cols...), nil
	}
	// Legacy path (PyLite aggregate wrapper): engine-side grouping,
	// fused fold. Only reachable for sections without fused filters.
	nKeys := len(p.GroupBy)
	groupIDs := make([]int, n)
	var groupRows []int
	if nKeys == 0 {
		groupRows = []int{0}
		if n == 0 {
			groupRows = nil
		}
	} else {
		keyVecs := make([][]data.Value, nKeys)
		for i, k := range p.GroupBy {
			v, err := e.evalVec(k, in)
			if err != nil {
				return nil, err
			}
			keyVecs[i] = v
		}
		seen := make(map[string]int)
		var kb []byte
		for i := 0; i < n; i++ {
			kb = appendVecKey(kb[:0], keyVecs, i)
			k := string(kb)
			gid, ok := seen[k]
			if !ok {
				gid = len(groupRows)
				seen[k] = gid
				groupRows = append(groupRows, i)
			}
			groupIDs[i] = gid
		}
		g := len(groupRows)
		aggCols, err := onWorker(p.UDF, func(cu *ffi.UDF) ([]*data.Column, error) {
			return ffi.CallFusedAggVectorTo(ectx.led, cu, args, n, groupIDs, g,
				names[nKeys:], kinds[nKeys:])
		})
		if err != nil {
			return nil, err
		}
		out := data.EmptyChunk(p.Schema)
		for ki := 0; ki < nKeys; ki++ {
			for _, r := range groupRows {
				out.Cols[ki].AppendValue(keyVecs[ki][r])
			}
		}
		for i, c := range aggCols {
			out.Cols[nKeys+i] = c
			c.Name = p.Schema[nKeys+i].Name
		}
		return out, nil
	}
	g := len(groupRows)
	if g == 0 {
		g = 1
	}
	aggCols, err := onWorker(p.UDF, func(cu *ffi.UDF) ([]*data.Column, error) {
		return ffi.CallFusedAggVectorTo(ectx.led, cu, args, n, groupIDs, g, names, kinds)
	})
	if err != nil {
		return nil, err
	}
	return data.NewChunk(aggCols...), nil
}

// onWorker runs one serial execution of a fused wrapper on a worker
// clone and folds the clone's statistics back afterwards. A cached
// wrapper is shared by every query that hits the plan cache, and an
// interpreter view is single-threaded (the VM stages builtin arguments
// in per-Interp scratch), so no execution path may run u.RT directly:
// two concurrent queries would share it.
func onWorker(u *ffi.UDF, run func(cu *ffi.UDF) ([]*data.Column, error)) ([]*data.Column, error) {
	cu := u.WorkerClone()
	defer u.AbsorbWorker(cu)
	return run(cu)
}

// runFusedMorsels drives a stateless fused wrapper over morsels of the
// argument chunk. Each worker lazily makes one UDF clone (own pylite
// interpreter view, own Stats); after the barrier every clone's learned
// statistics fold back into the parent so the cost model sees the
// query's full activity, not the last worker's.
func (e *Engine) runFusedMorsels(u *ffi.UDF, argChunk *data.Chunk, n int, names []string, kinds []data.Kind, ectx *execCtx) (*data.Chunk, error) {
	spans := e.morselsFor(n)
	if len(spans) == 1 && e.Workers() <= 1 {
		cols, err := onWorker(u, func(cu *ffi.UDF) ([]*data.Column, error) {
			return ffi.CallFusedVectorTo(ectx.led, cu, argChunk.Cols, n, names, kinds)
		})
		if err != nil {
			return nil, err
		}
		return data.NewChunk(cols...), nil
	}
	clones := make([]*ffi.UDF, e.Workers())
	outs := make([]*data.Chunk, len(spans))
	_, err := e.runMorsels(ectx, n, func(w, m, lo, hi int) error {
		cu := clones[w]
		if cu == nil {
			cu = u.WorkerClone()
			clones[w] = cu
		}
		part := argChunk.Slice(lo, hi)
		cols, err := ffi.CallFusedVectorTo(ectx.led, cu, part.Cols, hi-lo, names, kinds)
		if err != nil {
			return err
		}
		outs[m] = data.NewChunk(cols...)
		return nil
	})
	for _, cu := range clones {
		u.AbsorbWorker(cu)
	}
	if err != nil {
		return nil, err
	}
	if len(outs) == 1 {
		return outs[0], nil
	}
	defer e.mergeTimer(ectx.span)()
	merged := data.EmptyChunk(outs[0].Schema())
	for _, o := range outs {
		for i, c := range merged.Cols {
			c.AppendColumn(o.Cols[i])
		}
	}
	return merged, nil
}

// runTraceAggMorsels executes an aggregating trace as per-worker
// partial group tables over morsels, merging the live states at the
// barrier (partial aggregation + merge, §5.3.2 applied in parallel).
func (e *Engine) runTraceAggMorsels(u *ffi.UDF, tr *ffi.Trace, args []*data.Column, n int, names []string, kinds []data.Kind, ectx *execCtx) (*data.Chunk, error) {
	argChunk := data.NewChunk(args...)
	spans := e.morselsFor(n)
	clones := make([]*ffi.UDF, e.Workers())
	parts := make([]*ffi.TraceAggPartial, len(spans))
	_, err := e.runMorsels(ectx, n, func(w, m, lo, hi int) error {
		cu := clones[w]
		if cu == nil {
			cu = u.WorkerClone()
			clones[w] = cu
		}
		sub := argChunk.Slice(lo, hi)
		pt, err := ffi.RunTraceAggPartialTo(ectx.led, cu, tr, sub.Cols, hi-lo)
		if err != nil {
			return err
		}
		parts[m] = pt
		return nil
	})
	for _, cu := range clones {
		u.AbsorbWorker(cu)
	}
	if err != nil {
		return nil, err
	}
	defer e.mergeTimer(ectx.span)()
	cols, err := ffi.FinalizeTraceAggPartials(u, tr, parts, names, kinds)
	if err != nil {
		return nil, err
	}
	return data.NewChunk(cols...), nil
}
