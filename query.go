package nodb

import (
	"context"
	"fmt"
	"strings"
	"time"

	"nodb/internal/core"
	"nodb/internal/engine"
	"nodb/internal/metrics"
	"nodb/internal/planner"
	"nodb/internal/sql"
	"nodb/internal/value"
)

// Column describes one result column.
type Column struct {
	Name string
	Type string // INT, FLOAT, TEXT, BOOL, DATE, NULL
}

// QueryStats is the execution-time breakdown of one query (or of a load),
// in the categories of the paper's Figure 3.
type QueryStats struct {
	Total time.Duration

	IO         time.Duration // raw-file / heap-page reads
	Tokenizing time.Duration // locating field delimiters
	Parsing    time.Duration // slicing fields, row bookkeeping
	Convert    time.Duration // text -> binary conversion
	NoDB       time.Duration // positional map / cache / statistics upkeep
	Processing time.Duration // operators above the scan
	Load       time.Duration // load-first initialization work

	BytesRead       int64
	BytesSkipped    int64 // raw bytes avoided thanks to cache/positional map
	RowsScanned     int64
	FieldsTokenized int64
	FieldsConverted int64
	CacheHitFields  int64
	MapJumpFields   int64 // delimiter positions read from the positional map: one per needed delimiter per row, the row start excluded, on every chunk
	MapNearFields   int64 // fields located via a nearby map entry (short gap tokenize)
	PartialGroups   int64 // partial group states folded by scan workers (aggregation pushdown)
	SchedTasks      int64 // chunk tasks this query ran on the shared scheduler pool (0 at Parallelism 1, which runs them inline; deterministic for a given file layout at any MaxWorkers)
	VecRows         int64 // (row, expression) evaluations served by the vectorized (column-at-a-time) path
	PlanCacheHits   int64 // 1 when this query reused a cached plan skeleton (prepared statement or plan cache)

	MalformedFields int64 // malformed-input events (bad conversions, ragged rows) hit by this query's scan work
	RowsDropped     int64 // rows excluded from the result by on_error=skip
	IORetries       int64 // transient read errors retried (with backoff) by the raw-file layer
}

func newQueryStats(b *metrics.Breakdown, total time.Duration) QueryStats {
	return QueryStats{
		Total:           total,
		IO:              b.Times[metrics.IO],
		Tokenizing:      b.Times[metrics.Tokenizing],
		Parsing:         b.Times[metrics.Parsing],
		Convert:         b.Times[metrics.Convert],
		NoDB:            b.Times[metrics.NoDB],
		Processing:      b.Times[metrics.Processing],
		Load:            b.Times[metrics.Load],
		BytesRead:       b.BytesRead,
		BytesSkipped:    b.BytesSkipped,
		RowsScanned:     b.RowsScanned,
		FieldsTokenized: b.FieldsTokenized,
		FieldsConverted: b.FieldsConverted,
		CacheHitFields:  b.CacheHitFields,
		MapJumpFields:   b.MapJumpFields,
		MapNearFields:   b.MapNearFields,
		PartialGroups:   b.PartialGroups,
		SchedTasks:      b.SchedTasks,
		VecRows:         b.VecRows,
		MalformedFields: b.MalformedFields,
		RowsDropped:     b.RowsDropped,
		IORetries:       b.IORetries,
	}
}

// Breakdown renders the stacked-bar categories as "name=duration" pairs in
// display order (Figure 3's legend).
func (s QueryStats) Breakdown() string {
	parts := []struct {
		name string
		d    time.Duration
	}{
		{"Load", s.Load}, {"I/O", s.IO}, {"Tokenizing", s.Tokenizing},
		{"Parsing", s.Parsing}, {"Convert", s.Convert}, {"NoDB", s.NoDB},
		{"Processing", s.Processing},
	}
	var sb strings.Builder
	for i, p := range parts {
		if i > 0 {
			sb.WriteByte(' ')
		}
		fmt.Fprintf(&sb, "%s=%s", p.name, p.d.Round(time.Microsecond))
	}
	return sb.String()
}

// Result is a fully materialized query result.
type Result struct {
	Columns []Column
	Rows    [][]any
	Stats   QueryStats
}

// Query parses, plans and executes a SELECT statement, returning the fully
// materialized result. Raw tables referenced by the query are first checked
// for outside file changes (append/rewrite) and their structures adapted, so
// updates are visible to the next query as in the demo's Updates scenario.
//
// Query is a thin materializing wrapper over QueryContext/Rows: the result
// rows, their order and the QueryStats categories are identical to the
// streaming path's.
func (db *DB) Query(q string) (*Result, error) {
	rows, err := db.QueryContext(context.Background(), q) //nodbvet:closeleak-ok materialize defers rows.Close on every path
	if err != nil {
		return nil, err
	}
	return rows.materialize()
}

// QueryContext parses, plans and executes a SELECT statement, streaming the
// result through a Rows cursor. args bind the statement's `?` placeholders
// by position (supported types: nil, integers, floats, string, []byte, bool,
// time.Time — bound as a DATE).
//
// Rows are pulled from the operator tree on demand — batches of one chunk at
// a time for scans, so the first row is available long before a large scan
// finishes and an early Close abandons the remaining work. Cancelling ctx
// aborts the query at the next chunk boundary with ctx.Err(); adaptive
// structures keep only the deterministic prefix of side effects already
// committed, so a warm rerun is byte-identical to one after an uncancelled
// run. The returned Rows must be Closed (draining to the end does not
// release the plan's resources or table pins).
func (db *DB) QueryContext(ctx context.Context, q string, args ...any) (*Rows, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	prep, hit, _, err := db.prepared(q)
	if err != nil {
		// SHOW TABLES / DESCRIBE are served straight from the catalog as
		// static rows; DDL is pointed at Exec.
		if ns, isCatalog := err.(*notSelectError); isCatalog {
			return db.catalogRows(ctx, ns.st, args)
		}
		return nil, err
	}
	return db.execPrepared(ctx, prep, hit, args)
}

// notSelectError reports a statement that parsed fine but is not a SELECT:
// QueryContext intercepts it to serve catalog statements, Prepare and Exec
// turn it into user-facing guidance.
type notSelectError struct{ st sql.Statement }

func (e *notSelectError) Error() string {
	return fmt.Sprintf("nodb: %s is not a SELECT statement", statementKind(e.st))
}

// prepared returns the plan skeleton for q, consulting the prepared-plan
// cache. hit reports whether a cached skeleton was reused; gen is the
// catalog generation the skeleton is valid for.
func (db *DB) prepared(q string) (prep *planner.Prepared, hit bool, gen int64, err error) {
	gen = db.catGen.Load()
	db.planMu.Lock()
	if c, ok := db.planCache[q]; ok && c.gen == gen {
		db.planMu.Unlock()
		db.planHits.Add(1)
		return c.prep, true, gen, nil
	}
	db.planMu.Unlock()
	st, err := sql.ParseStatement(q)
	if err != nil {
		return nil, false, gen, err
	}
	sel, ok := st.(*sql.Select)
	if !ok {
		// Catalog statements (SHOW TABLES, DESCRIBE) are never cached and
		// must not skew the plan-cache miss counter.
		return nil, false, gen, &notSelectError{st: st}
	}
	db.planMisses.Add(1)
	db.mu.RLock()
	prep, err = planner.Prepare(sel, db.cat)
	db.mu.RUnlock()
	if err != nil {
		return nil, false, gen, err
	}
	if db.noVec {
		prep.DisableVec()
	}
	db.planMu.Lock()
	if len(db.planCache) >= planCacheMax {
		clear(db.planCache)
	}
	db.planCache[q] = &cachedPrep{prep: prep, gen: gen}
	db.planMu.Unlock()
	return prep, false, gen, nil
}

// execPrepared runs the shared execution path under a plan skeleton: bind
// arguments, pin referenced tables, auto-refresh raw tables, build the
// operator tree, and hand it to a Rows cursor.
func (db *DB) execPrepared(ctx context.Context, prep *planner.Prepared, cacheHit bool, args []any) (*Rows, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	params, err := bindArgs(args, prep.NumParams())
	if err != nil {
		return nil, err
	}

	entries := prep.Tables()
	if err := db.pin(entries); err != nil {
		return nil, err
	}
	fail := func(err error) (*Rows, error) {
		db.unpin(entries)
		return nil, err
	}

	// Auto-refresh referenced raw tables (the demo's Updates scenario),
	// segment by segment.
	for _, e := range entries {
		if t, isRaw := e.Handle.(*core.Table); isRaw {
			if _, err := t.Refresh(); err != nil {
				return fail(err)
			}
		}
	}

	b := &metrics.Breakdown{}
	t0 := time.Now()
	// Build opens the raw scans (file I/O), so it runs outside the catalog
	// lock: it reads only the prepared statement's pinned entries, never the
	// catalog itself.
	plan, err := prep.Build(ctx, b, params)
	if err != nil {
		return fail(err)
	}

	r := &Rows{db: db, ctx: ctx, b: b, t0: t0, pinned: entries, cacheHit: cacheHit}

	// EXPLAIN: serve the plan tree as static rows without executing it.
	if prep.Explain() {
		plan.Close()
		r.cols = []Column{{Name: "plan", Type: "TEXT"}}
		for _, line := range strings.Split(strings.TrimRight(plan.ExplainText, "\n"), "\n") {
			r.static = append(r.static, []value.Value{value.Text(line)})
		}
		r.finalizeStats() // EXPLAIN carries no execution residual
		return r, nil
	}

	r.plan = plan
	for _, c := range plan.Columns {
		r.cols = append(r.cols, Column{Name: c.Name, Type: c.Kind.String()})
	}
	if bop, ok := engine.AsBatched(plan.Root); ok {
		r.bop = bop
	}
	r.row = make([]value.Value, len(plan.Columns))
	return r, nil
}

// toAny converts an engine value to a plain Go value: nil, int64, float64,
// string, or bool; dates format as YYYY-MM-DD strings.
func toAny(v value.Value) any {
	switch v.K {
	case value.KindNull:
		return nil
	case value.KindInt:
		return v.I
	case value.KindFloat:
		return v.F
	case value.KindText:
		return v.S
	case value.KindBool:
		return v.I != 0
	case value.KindDate:
		return value.FormatDate(v.I)
	default:
		return nil
	}
}

// String renders the result as an aligned text table with a row count
// footer.
func (r *Result) String() string {
	widths := make([]int, len(r.Columns))
	header := make([]string, len(r.Columns))
	for i, c := range r.Columns {
		header[i] = c.Name
		widths[i] = len(c.Name)
	}
	cells := make([][]string, len(r.Rows))
	for ri, row := range r.Rows {
		cells[ri] = make([]string, len(row))
		for ci, v := range row {
			s := "NULL"
			if v != nil {
				s = fmt.Sprint(v)
			}
			cells[ri][ci] = s
			if len(s) > widths[ci] {
				widths[ci] = len(s)
			}
		}
	}
	var sb strings.Builder
	writeRow := func(cols []string) {
		for i, c := range cols {
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(c)
			sb.WriteString(strings.Repeat(" ", widths[i]-len(c)))
		}
		sb.WriteByte('\n')
	}
	writeRow(header)
	for i := range widths {
		if i > 0 {
			sb.WriteString("  ")
		}
		sb.WriteString(strings.Repeat("-", widths[i]))
	}
	sb.WriteByte('\n')
	for _, row := range cells {
		writeRow(row)
	}
	fmt.Fprintf(&sb, "(%d rows)\n", len(r.Rows))
	return sb.String()
}
