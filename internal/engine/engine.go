// Package engine implements the execution operators shared by every access
// mode. Operators speak one protocol: each pulls core.Batch values (columns
// plus a selection vector) from its input and hands batches to its
// consumer. Only the leaf operators know how a table is stored — RawScan
// runs over raw CSV through the adaptive in-situ scan, HeapScan and
// IndexScan over loaded binary heaps — mirroring the paper's design where
// PostgresRaw overrides just the scan operator and the rest of the query
// plan is unchanged.
package engine

import (
	"context"

	"nodb/internal/core"
	"nodb/internal/expr"
	"nodb/internal/metrics"
	"nodb/internal/storage"
	"nodb/internal/value"
)

// batchRows caps the rows of a batch built by an operator that does not
// pass its input's batches through (materialized results, joins, index
// fetches). For IndexScan it is also the cancellation grain.
const batchRows = 512

// ctxDone is the non-blocking cancellation probe used by leaf scans. Every
// blocking operator (aggregation, sort, join build) ultimately pulls from a
// leaf, so checking at the leaves bounds cancellation latency to one batch
// of work without sprinkling checks through every drain loop.
func ctxDone(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	select {
	case <-ctx.Done():
		return ctx.Err()
	default:
		return nil
	}
}

// Operator is a pull-based executor node. NextBatch returns the next batch
// of rows (see core.Batch for its validity and layout rules); ok=false
// signals the end of the input.
type Operator interface {
	NextBatch() (*core.Batch, bool, error)
	Close() error
}

// BatchOperator is the former name of Operator, kept only because cmd/bench
// (frozen between benchmark PRs) spells it; the next benchmark PR deletes
// the alias.
type BatchOperator = Operator

// ForEachBatchRow drains in, invoking fn once per selected row with the row
// assembled into a reused scratch slice. It is the one place that adapts
// batches back to row-shaped consumers (aggregation, sort, join build).
func ForEachBatchRow(in Operator, fn func(row []value.Value) error) error {
	var rowBuf []value.Value
	for {
		b, ok, err := in.NextBatch()
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		if rowBuf == nil {
			rowBuf = make([]value.Value, len(b.Cols))
		}
		for _, r := range b.Sel {
			for i, col := range b.Cols {
				rowBuf[i] = col[r]
			}
			if err := fn(rowBuf); err != nil {
				return err
			}
		}
	}
}

// identity extends buf to the identity selection 0..n-1 and returns it.
func identity(buf []int32, n int) []int32 {
	for len(buf) < n {
		buf = append(buf, int32(len(buf)))
	}
	return buf[:n]
}

// rowBatch assembles an output batch row by row into column buffers that
// are reused from batch to batch, with an identity selection.
type rowBatch struct {
	cols  [][]value.Value
	n     int
	ident []int32
	batch core.Batch
}

// reset empties the buffers for a batch of width columns, reserving room
// for hint rows.
func (rb *rowBatch) reset(width, hint int) {
	if len(rb.cols) != width {
		rb.cols = make([][]value.Value, width)
	}
	for i := range rb.cols {
		if cap(rb.cols[i]) < hint {
			rb.cols[i] = make([]value.Value, 0, hint)
		}
		rb.cols[i] = rb.cols[i][:0]
	}
	rb.n = 0
}

// add appends one row.
func (rb *rowBatch) add(row []value.Value) {
	for i, v := range row {
		rb.cols[i] = append(rb.cols[i], v)
	}
	rb.n++
}

// emit returns the rows added since reset as a batch, or ok=false when
// there are none.
func (rb *rowBatch) emit() (*core.Batch, bool, error) {
	if rb.n == 0 {
		return nil, false, nil
	}
	rb.ident = identity(rb.ident, rb.n)
	rb.batch = core.Batch{Cols: rb.cols, Sel: rb.ident}
	return &rb.batch, true, nil
}

// RawScan adapts a core scan (in-situ or baseline raw access, whatever the
// table's segment layout) to the operator interface: the scan's chunk
// batches pass through as they are. Filter pushdown happened at
// construction via the ScanSpec.
type RawScan struct {
	sc *core.Scan
}

// NewRawScan opens the in-situ scan.
func NewRawScan(t *core.Table, spec core.ScanSpec) (*RawScan, error) {
	sc, err := t.NewScan(spec)
	if err != nil {
		return nil, err
	}
	return &RawScan{sc: sc}, nil
}

// NextBatch implements Operator.
func (o *RawScan) NextBatch() (*core.Batch, bool, error) { return o.sc.NextBatch() }

// Close implements Operator.
func (o *RawScan) Close() error { return o.sc.Close() }

// HeapScan reads a loaded heap table one page per batch, emitting only the
// referenced attributes (in refAttrs order).
type HeapScan struct {
	t        *storage.Table
	refAttrs []int
	want     []bool
	b        *metrics.Breakdown
	ctx      context.Context

	pageBuf []byte
	decoded []value.Value
	page    int
	out     rowBatch
}

// NewHeapScan creates a heap scan producing refAttrs in order.
func NewHeapScan(t *storage.Table, refAttrs []int, b *metrics.Breakdown) *HeapScan {
	want := make([]bool, t.Schema.Len())
	for _, a := range refAttrs {
		want[a] = true
	}
	return &HeapScan{
		t:        t,
		refAttrs: refAttrs,
		want:     want,
		b:        b,
		pageBuf:  make([]byte, storage.PageSize),
		decoded:  make([]value.Value, t.Schema.Len()),
	}
}

// SetContext makes the scan cancellable: NextBatch returns ctx.Err() at the
// next page boundary once ctx is done.
func (o *HeapScan) SetContext(ctx context.Context) { o.ctx = ctx }

// NextBatch implements Operator.
func (o *HeapScan) NextBatch() (*core.Batch, bool, error) {
	for {
		if err := ctxDone(o.ctx); err != nil {
			return nil, false, err
		}
		if o.page >= o.t.NumPages() {
			return nil, false, nil
		}
		p, err := o.t.ReadPage(o.page, o.pageBuf, o.b)
		if err != nil {
			return nil, false, err
		}
		o.page++
		n := p.NumSlots()
		o.out.reset(len(o.refAttrs), n)
		for s := 0; s < n; s++ {
			tb, err := p.Tuple(s)
			if err != nil {
				return nil, false, err
			}
			if err := storage.DecodeTuple(tb, o.t.Schema, o.want, o.decoded); err != nil {
				return nil, false, err
			}
			for i, a := range o.refAttrs {
				o.out.cols[i] = append(o.out.cols[i], o.decoded[a])
			}
			o.out.n++
		}
		o.b.RowsScanned += int64(n)
		if n > 0 {
			return o.out.emit()
		}
	}
}

// Close implements Operator.
func (o *HeapScan) Close() error { return nil }

// IndexScan fetches rows through a B+tree (the DBMS X access path after its
// load+index initialization), emitting refAttrs in order, batchRows rids
// per batch.
type IndexScan struct {
	t        *storage.Table
	rids     []storage.RID
	refAttrs []int
	want     []bool
	b        *metrics.Breakdown
	ctx      context.Context

	pageBuf []byte
	decoded []value.Value
	pos     int
	out     rowBatch
}

// NewIndexScan creates an index scan over a precomputed RID list.
func NewIndexScan(t *storage.Table, rids []storage.RID, refAttrs []int, b *metrics.Breakdown) *IndexScan {
	want := make([]bool, t.Schema.Len())
	for _, a := range refAttrs {
		want[a] = true
	}
	return &IndexScan{
		t:        t,
		rids:     rids,
		refAttrs: refAttrs,
		want:     want,
		b:        b,
		pageBuf:  make([]byte, storage.PageSize),
		decoded:  make([]value.Value, t.Schema.Len()),
	}
}

// SetContext makes the scan cancellable: NextBatch returns ctx.Err() within
// one batch (batchRows fetches) once ctx is done.
func (o *IndexScan) SetContext(ctx context.Context) { o.ctx = ctx }

// NextBatch implements Operator.
func (o *IndexScan) NextBatch() (*core.Batch, bool, error) {
	o.out.reset(len(o.refAttrs), min(len(o.rids)-o.pos, batchRows))
	for o.out.n < batchRows && o.pos < len(o.rids) {
		// Batches start at multiples of batchRows: one probe per batch.
		if o.pos%batchRows == 0 {
			if err := ctxDone(o.ctx); err != nil {
				return nil, false, err
			}
		}
		if err := o.t.Fetch(o.rids[o.pos], o.want, o.pageBuf, o.decoded, o.b); err != nil {
			return nil, false, err
		}
		o.pos++
		for i, a := range o.refAttrs {
			o.out.cols[i] = append(o.out.cols[i], o.decoded[a])
		}
		o.out.n++
	}
	o.b.RowsScanned += int64(o.out.n)
	return o.out.emit()
}

// Close implements Operator.
func (o *IndexScan) Close() error { return nil }

// Filter drops rows whose predicate is not TRUE by narrowing each input
// batch's selection vector. The predicate evaluates through one
// expr.VecEval compiled at construction: column-at-a-time where it has a
// vector kernel, row-at-a-time inside the evaluator where it has none.
type Filter struct {
	in    Operator
	vec   *expr.VecEval
	vecOK bool // the predicate has a vector kernel
	b     *metrics.Breakdown

	batch  core.Batch
	selBuf []int32
}

// NewFilter wraps in with a predicate.
func NewFilter(in Operator, pred expr.Node, b *metrics.Breakdown) *Filter {
	vec, ok := expr.CompileVec(pred)
	return &Filter{in: in, vec: vec, vecOK: ok, b: b}
}

// Vectorized reports whether the predicate evaluates column-at-a-time.
func (o *Filter) Vectorized() bool { return o.vecOK }

// NextBatch implements Operator. Only the rows the incoming selection
// vector lists are tested; rows the child already excluded are not.
func (o *Filter) NextBatch() (*core.Batch, bool, error) {
	b, ok, err := o.in.NextBatch()
	if err != nil || !ok {
		return nil, false, err
	}
	before := o.vec.VecRows()
	o.selBuf, err = o.vec.SelectTrue(b.Cols, b.Sel, o.selBuf[:0])
	if err != nil {
		return nil, false, err
	}
	o.b.VecRows += o.vec.VecRows() - before
	o.batch.Cols = b.Cols
	o.batch.Sel = o.selBuf
	return &o.batch, true, nil
}

// Close implements Operator.
func (o *Filter) Close() error { return o.in.Close() }

// Project computes output expressions into dense columns with an identity
// selection. Each expression evaluates through its own expr.VecEval,
// compiled at construction, so one expression without a vector kernel
// runs row-at-a-time without demoting the rest of the projection.
type Project struct {
	in   Operator
	vecs []*expr.VecEval // one per expression
	nVec int             // expressions with a vector kernel
	b    *metrics.Breakdown

	batch    core.Batch
	cols     [][]value.Value
	selIdent []int32
}

// NewProject wraps in with projection expressions.
func NewProject(in Operator, exprs []expr.Node, b *metrics.Breakdown) *Project {
	o := &Project{in: in, vecs: make([]*expr.VecEval, len(exprs)), b: b}
	for i, e := range exprs {
		var ok bool
		if o.vecs[i], ok = expr.CompileVec(e); ok {
			o.nVec++
		}
	}
	return o
}

// Vectorized reports whether every projection expression evaluates
// column-at-a-time.
func (o *Project) Vectorized() bool {
	return len(o.vecs) > 0 && o.nVec == len(o.vecs)
}

// NextBatch implements Operator.
func (o *Project) NextBatch() (*core.Batch, bool, error) {
	b, ok, err := o.in.NextBatch()
	if err != nil || !ok {
		return nil, false, err
	}
	n := len(b.Sel)
	if o.cols == nil {
		o.cols = make([][]value.Value, len(o.vecs))
	}
	for i, ve := range o.vecs {
		if cap(o.cols[i]) < n {
			o.cols[i] = make([]value.Value, n)
		}
		o.cols[i] = o.cols[i][:n]
		before := ve.VecRows()
		if err := ve.EvalInto(b.Cols, b.Sel, o.cols[i]); err != nil {
			return nil, false, err
		}
		o.b.VecRows += ve.VecRows() - before
	}
	o.selIdent = identity(o.selIdent, n)
	o.batch.Cols = o.cols
	o.batch.Sel = o.selIdent
	return &o.batch, true, nil
}

// Close implements Operator.
func (o *Project) Close() error { return o.in.Close() }

// Limit implements OFFSET/LIMIT by trimming input selections. Once the
// limit is met it stops pulling, so an early-closed scan does no more work.
type Limit struct {
	in      Operator
	offset  int64
	limit   int64 // -1 = unlimited
	skipped int64
	emitted int64
	batch   core.Batch
}

// NewLimit wraps in with offset/limit (limit -1 = no limit).
func NewLimit(in Operator, offset, limit int64) *Limit {
	return &Limit{in: in, offset: offset, limit: limit}
}

// NextBatch implements Operator.
func (o *Limit) NextBatch() (*core.Batch, bool, error) {
	for o.limit < 0 || o.emitted < o.limit {
		b, ok, err := o.in.NextBatch()
		if err != nil || !ok {
			return nil, false, err
		}
		sel := b.Sel
		skip := min(o.offset-o.skipped, int64(len(sel)))
		o.skipped += skip
		sel = sel[skip:]
		if o.limit >= 0 {
			sel = sel[:min(o.limit-o.emitted, int64(len(sel)))]
		}
		if len(sel) == 0 {
			continue
		}
		o.emitted += int64(len(sel))
		o.batch = core.Batch{Cols: b.Cols, Sel: sel}
		return &o.batch, true, nil
	}
	return nil, false, nil
}

// Close implements Operator.
func (o *Limit) Close() error { return o.in.Close() }

// Distinct deduplicates rows by all columns, narrowing each input batch's
// selection to the rows not seen before.
type Distinct struct {
	in     Operator
	b      *metrics.Breakdown
	seen   map[string]bool
	key    []byte
	rowBuf []value.Value
	selBuf []int32
	batch  core.Batch
}

// NewDistinct wraps in with duplicate elimination.
func NewDistinct(in Operator, b *metrics.Breakdown) *Distinct {
	return &Distinct{in: in, b: b, seen: make(map[string]bool)}
}

// NextBatch implements Operator.
func (o *Distinct) NextBatch() (*core.Batch, bool, error) {
	b, ok, err := o.in.NextBatch()
	if err != nil || !ok {
		return nil, false, err
	}
	if o.rowBuf == nil {
		o.rowBuf = make([]value.Value, len(b.Cols))
	}
	o.selBuf = o.selBuf[:0]
	for _, r := range b.Sel {
		for i, col := range b.Cols {
			o.rowBuf[i] = col[r]
		}
		o.key = value.AppendGroupKey(o.key[:0], o.rowBuf)
		if !o.seen[string(o.key)] {
			o.seen[string(o.key)] = true
			o.selBuf = append(o.selBuf, r)
		}
	}
	o.batch = core.Batch{Cols: b.Cols, Sel: o.selBuf}
	return &o.batch, true, nil
}

// Close implements Operator.
func (o *Distinct) Close() error { return o.in.Close() }

// rowKey builds a collision-safe string key for grouping/dedup: kind byte,
// uvarint-length-prefixed canonical rendering per value. The shared
// implementation in the value package is also what the scan workers key
// their partial aggregation states on, so both grouping paths agree. (An
// earlier version used a fixed 2-byte length prefix, which wrapped for text
// values of 64 KiB and beyond and could merge distinct groups.)
func rowKey(row []value.Value) string {
	return string(value.AppendGroupKey(make([]byte, 0, 16*len(row)), row))
}

func copyRow(row []value.Value) []value.Value {
	cp := make([]value.Value, len(row))
	copy(cp, row)
	return cp
}
