package nodb

import (
	"context"
	"fmt"
	"time"

	"nodb/internal/core"
	"nodb/internal/engine"
	"nodb/internal/metrics"
	"nodb/internal/planner"
	"nodb/internal/schema"
	"nodb/internal/value"
)

// Rows is a streaming cursor over a query's result. Unlike Query, nothing is
// materialized up front: Next pulls batches from the plan's root operator on
// demand and serves their rows one at a time, so the first row arrives
// before a large scan completes, memory stays bounded per batch, and Close
// abandons the unread remainder. Results that need no execution (EXPLAIN,
// catalog listings) are served the same way, from a ValuesOp root.
//
// The usage pattern mirrors database/sql:
//
//	rows, err := db.QueryContext(ctx, "SELECT id, val FROM t WHERE id < ?", 100)
//	if err != nil { ... }
//	defer rows.Close()
//	for rows.Next() {
//		var id int64
//		var val float64
//		if err := rows.Scan(&id, &val); err != nil { ... }
//	}
//	if err := rows.Err(); err != nil { ... }
//
// A Rows is not safe for concurrent use. Close must be called; it releases
// the plan's resources (scan readers, pipeline goroutines) and the lifetime
// pins on the referenced tables.
type Rows struct {
	db       *DB
	ctx      context.Context
	cols     []Column
	plan     *planner.Plan // nil once closed
	batch    *core.Batch   // current batch being served
	bpos     int           // cursor into batch.Sel
	row      []value.Value // current row (engine layout, reused)
	pinned   []*schema.Table
	b        *metrics.Breakdown
	t0       time.Time
	cacheHit bool

	onRow     bool
	done      bool
	closed    bool
	err       error
	stats     QueryStats
	haveStats bool
}

// Columns describes the result columns, in output order.
func (r *Rows) Columns() []Column { return r.cols }

// Next advances to the next result row, reporting whether one is available.
// It returns false at the end of the result set, on error, or once the
// query's context is cancelled — distinguish via Err.
func (r *Rows) Next() bool {
	r.onRow = false
	if r.closed || r.done || r.err != nil {
		return false
	}
	if err := r.ctx.Err(); err != nil {
		r.setErr(err)
		return false
	}
	for {
		if r.batch != nil && r.bpos < len(r.batch.Sel) {
			ri := r.batch.Sel[r.bpos]
			r.bpos++
			for i, col := range r.batch.Cols {
				r.row[i] = col[ri]
			}
			r.onRow = true
			return true
		}
		b, ok, err := r.plan.Root.NextBatch()
		if err != nil {
			r.setErr(err)
			return false
		}
		if !ok {
			r.finish()
			return false
		}
		r.batch, r.bpos = b, 0
	}
}

// Scan copies the current row into dest, one pointer per column. Supported
// destination types: *any, *string, *int64, *int, *float64, *bool. NULLs
// scan only into *any (as nil).
func (r *Rows) Scan(dest ...any) error {
	if r.err != nil {
		return r.err
	}
	if r.closed {
		return fmt.Errorf("nodb: Rows are closed")
	}
	if !r.onRow {
		return fmt.Errorf("nodb: Scan called without a successful Next")
	}
	if len(dest) != len(r.cols) {
		return fmt.Errorf("nodb: Scan expects %d destination(s), got %d", len(r.cols), len(dest))
	}
	for i, d := range dest {
		if err := assignValue(d, r.row[i]); err != nil {
			return fmt.Errorf("nodb: Scan column %d (%s): %w", i, r.cols[i].Name, err)
		}
	}
	return nil
}

// Values returns the current row converted to plain Go values (the same
// representation Result.Rows uses: nil, int64, float64, string, bool; dates
// as YYYY-MM-DD strings). The returned slice is freshly allocated. It
// returns nil when no row is current (before the first Next, or after
// iteration ended).
func (r *Rows) Values() []any {
	if !r.onRow {
		return nil
	}
	out := make([]any, len(r.cols))
	for i := range out {
		out[i] = toAny(r.row[i])
	}
	return out
}

// ValuesInto fills dest (one slot per column) with the current row converted
// to plain Go values — Values without the per-row slice allocation. It
// reports false when no row is current or dest has the wrong length.
func (r *Rows) ValuesInto(dest []any) bool {
	if !r.onRow || len(dest) != len(r.cols) {
		return false
	}
	for i := range dest {
		dest[i] = toAny(r.row[i])
	}
	return true
}

// assignValue converts an engine value straight into a typed destination —
// the allocation-free path of Scan (no toAny boxing on the per-row loop).
func assignValue(dest any, v value.Value) error {
	if d, ok := dest.(*any); ok {
		*d = toAny(v)
		return nil
	}
	if v.K == value.KindNull {
		return fmt.Errorf("cannot scan NULL into %T", dest)
	}
	switch d := dest.(type) {
	case *string:
		switch v.K {
		case value.KindText:
			*d = v.S
		case value.KindDate:
			*d = value.FormatDate(v.I)
		default:
			*d = fmt.Sprint(toAny(v))
		}
	case *int64:
		if v.K != value.KindInt {
			return fmt.Errorf("cannot scan %s into *int64", v.K)
		}
		*d = v.I
	case *int:
		if v.K != value.KindInt {
			return fmt.Errorf("cannot scan %s into *int", v.K)
		}
		*d = int(v.I)
	case *float64:
		switch v.K {
		case value.KindFloat:
			*d = v.F
		case value.KindInt:
			*d = float64(v.I)
		default:
			return fmt.Errorf("cannot scan %s into *float64", v.K)
		}
	case *bool:
		if v.K != value.KindBool {
			return fmt.Errorf("cannot scan %s into *bool", v.K)
		}
		*d = v.I != 0
	default:
		return fmt.Errorf("unsupported Scan destination %T", dest)
	}
	return nil
}

// Err returns the error that terminated iteration, if any. A query cancelled
// through its context reports ctx.Err() here.
func (r *Rows) Err() error { return r.err }

// Stats returns the query's execution breakdown. Final once iteration
// finished or the Rows were closed; before that it is a live snapshot of
// the work done so far.
func (r *Rows) Stats() QueryStats {
	if r.haveStats {
		return r.stats
	}
	qs := newQueryStats(r.b, time.Since(r.t0))
	if r.cacheHit {
		qs.PlanCacheHits = 1
	}
	return qs
}

// Close terminates iteration, releases the plan's resources (scan readers
// and pipeline goroutines, discarding unread chunks) and drops the table
// lifetime pins. Safe to call more than once.
func (r *Rows) Close() error {
	if r.closed {
		return nil
	}
	r.closed = true
	r.onRow = false
	var err error
	if r.plan != nil {
		err = r.plan.Close()
		r.plan = nil
	}
	r.batch = nil
	r.finalizeStats()
	if r.pinned != nil {
		r.db.unpin(r.pinned)
		r.pinned = nil
	}
	return err
}

func (r *Rows) setErr(err error) {
	if r.err == nil {
		r.err = err
	}
}

func (r *Rows) finish() {
	r.done = true
	r.finalizeStats()
}

// finalizeStats fixes the query's stats. As in the materializing path, the
// wall-clock residual not charged by instrumented stages is attributed to
// Processing so the categories sum to the total. Results served without
// execution fixed theirs in serveValues.
func (r *Rows) finalizeStats() {
	if r.haveStats {
		return
	}
	total := time.Since(r.t0)
	if residual := total - r.b.Total(); residual > 0 {
		r.b.Add(metrics.Processing, residual)
	}
	r.stats = newQueryStats(r.b, total)
	if r.cacheHit {
		r.stats.PlanCacheHits = 1
	}
	r.haveStats = true
}

// serve makes plan's root the cursor's source; rows are served in the
// layout of r.cols.
func (r *Rows) serve(plan *planner.Plan) {
	r.plan = plan
	r.row = make([]value.Value, len(r.cols))
}

// serveValues serves rows computed without execution (EXPLAIN, catalog
// listings). Their stats are final at once and carry no execution
// residual.
func (r *Rows) serveValues(rows [][]value.Value) {
	r.serve(&planner.Plan{Root: &engine.ValuesOp{Rows: rows}})
	r.stats, r.haveStats = r.Stats(), true
}

// materialize drains the cursor into a Result (the legacy Query shape) and
// closes it.
func (r *Rows) materialize() (*Result, error) {
	defer r.Close()
	res := &Result{Columns: r.cols}
	for r.Next() {
		res.Rows = append(res.Rows, r.Values())
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	r.Close()
	res.Stats = r.stats
	return res, nil
}
