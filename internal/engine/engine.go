// Package engine implements the volcano-style (iterator) execution
// operators shared by every access mode. Only the leaf operators know how a
// table is stored — RawScan runs over raw CSV through the adaptive in-situ
// scan, HeapScan and IndexScan over loaded binary heaps — mirroring the
// paper's design where PostgresRaw overrides just the scan operator and the
// rest of the query plan is unchanged.
package engine

import (
	"context"
	"fmt"

	"nodb/internal/core"
	"nodb/internal/expr"
	"nodb/internal/metrics"
	"nodb/internal/storage"
	"nodb/internal/value"
)

// ctxDone is the non-blocking cancellation probe used by leaf scans. Every
// blocking operator (aggregation, sort, join build) ultimately pulls from a
// leaf, so checking at the leaves bounds cancellation latency to one chunk
// or page of work without sprinkling checks through every drain loop.
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

// Operator is a pull-based executor node. Next returns a row whose backing
// slice may be reused by the operator; consumers that retain rows must copy.
type Operator interface {
	Next() ([]value.Value, bool, error)
	Close() error
}

// Batch is a columnar slice of rows flowing between batch-aware operators:
// Cols holds one column per output attribute and Sel lists the live row
// indexes, in order. A batch (and the rows inside it) is valid only until
// the producer's next NextBatch/Next call; consumers that retain values
// must copy. Sel may be empty when a whole chunk was filtered out, and Cols
// may be empty for zero-attribute scans (COUNT(*)), where len(Sel) alone
// carries the row multiplicity.
type Batch struct {
	Cols [][]value.Value
	Sel  []int32
}

// BatchOperator is the batched extension of Operator. Operators implement
// it when they can serve whole chunks at a time, cutting the per-row
// interface overhead that dominates warm cache-served scans. Batched
// reports whether the operator can actually honor NextBatch (e.g. Filter is
// batched only when its input is); use AsBatched rather than a bare type
// assertion. Mixing Next and NextBatch on one operator is not supported —
// drain through one protocol.
type BatchOperator interface {
	Operator
	NextBatch() (*Batch, bool, error)
	Batched() bool
}

// AsBatched returns op as a usable batch source, if it is one.
func AsBatched(op Operator) (BatchOperator, bool) {
	b, ok := op.(BatchOperator)
	return b, ok && b.Batched()
}

// ForEachBatchRow drains a batch source, invoking fn once per selected row
// with the row assembled into a reused scratch slice. It is the one place
// that adapts Batch semantics back to row-shaped consumers (aggregation,
// sort, result materialization).
func ForEachBatchRow(in BatchOperator, fn func(row []value.Value) error) error {
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

// RawScan adapts a core scan (in-situ or baseline raw access, whatever the
// table's segment layout) to the operator interface. Filter pushdown
// happened at construction via the ScanSpec.
type RawScan struct {
	sc    *core.Scan
	batch Batch
}

// NewRawScan opens the in-situ scan.
func NewRawScan(t *core.Table, spec core.ScanSpec) (*RawScan, error) {
	sc, err := t.NewScan(spec)
	if err != nil {
		return nil, err
	}
	return &RawScan{sc: sc}, nil
}

// Next implements Operator.
func (o *RawScan) Next() ([]value.Value, bool, error) { return o.sc.Next() }

// NextBatch implements BatchOperator, surfacing the scan's chunk batches.
func (o *RawScan) NextBatch() (*Batch, bool, error) {
	cb, ok, err := o.sc.NextBatch()
	if err != nil || !ok {
		return nil, false, err
	}
	o.batch.Cols = cb.Cols
	o.batch.Sel = cb.Sel
	return &o.batch, true, nil
}

// Batched implements BatchOperator.
func (o *RawScan) Batched() bool { return true }

// Close implements Operator.
func (o *RawScan) Close() error { return o.sc.Close() }

// HeapScan reads a loaded heap table, emitting only the referenced
// attributes (in refAttrs order). Pages are decoded as whole batches so the
// per-row cost is a slice handoff.
type HeapScan struct {
	t        *storage.Table
	refAttrs []int
	want     []bool
	b        *metrics.Breakdown
	ctx      context.Context

	pageBuf []byte
	decoded []value.Value
	batch   []value.Value // page rows, len = nrows*len(refAttrs)
	nrows   int
	row     int
	page    int
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

// SetContext makes the scan cancellable: Next returns ctx.Err() at the next
// page boundary once ctx is done.
func (o *HeapScan) SetContext(ctx context.Context) { o.ctx = ctx }

// Next implements Operator.
func (o *HeapScan) Next() ([]value.Value, bool, error) {
	for {
		if o.row < o.nrows {
			w := len(o.refAttrs)
			out := o.batch[o.row*w : (o.row+1)*w]
			o.row++
			return out, true, nil
		}
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
		w := len(o.refAttrs)
		if cap(o.batch) < n*w {
			o.batch = make([]value.Value, n*w)
		}
		o.batch = o.batch[:n*w]
		for s := 0; s < n; s++ {
			tb, err := p.Tuple(s)
			if err != nil {
				return nil, false, err
			}
			if err := storage.DecodeTuple(tb, o.t.Schema, o.want, o.decoded); err != nil {
				return nil, false, err
			}
			for i, a := range o.refAttrs {
				o.batch[s*w+i] = o.decoded[a]
			}
		}
		o.b.RowsScanned += int64(n)
		o.nrows = n
		o.row = 0
	}
}

// Close implements Operator.
func (o *HeapScan) Close() error { return nil }

// IndexScan fetches rows through a B+tree (the DBMS X access path after its
// load+index initialization), emitting refAttrs in order.
type IndexScan struct {
	t        *storage.Table
	rids     []storage.RID
	refAttrs []int
	want     []bool
	b        *metrics.Breakdown
	ctx      context.Context

	pageBuf []byte
	decoded []value.Value
	out     []value.Value
	pos     int
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
		out:      make([]value.Value, len(refAttrs)),
	}
}

// SetContext makes the scan cancellable: Next returns ctx.Err() within a
// bounded number of row fetches once ctx is done.
func (o *IndexScan) SetContext(ctx context.Context) { o.ctx = ctx }

// Next implements Operator.
func (o *IndexScan) Next() ([]value.Value, bool, error) {
	if o.pos&511 == 0 {
		if err := ctxDone(o.ctx); err != nil {
			return nil, false, err
		}
	}
	if o.pos >= len(o.rids) {
		return nil, false, nil
	}
	rid := o.rids[o.pos]
	o.pos++
	if err := o.t.Fetch(rid, o.want, o.pageBuf, o.decoded, o.b); err != nil {
		return nil, false, err
	}
	for i, a := range o.refAttrs {
		o.out[i] = o.decoded[a]
	}
	o.b.RowsScanned++
	return o.out, true, nil
}

// Close implements Operator.
func (o *IndexScan) Close() error { return nil }

// Filter drops rows whose predicate is not TRUE. When the predicate has a
// vector kernel (expr.CompileVec) and the input is batched, NextBatch
// narrows the selection column-at-a-time without assembling scratch rows;
// otherwise it falls back to row-at-a-time evaluation for this one
// predicate.
type Filter struct {
	in       Operator
	pred     expr.Node
	vec      *expr.VecEval // non-nil once compiled; nil = row-at-a-time
	vecOn    bool
	vecTried bool
	b        *metrics.Breakdown

	batch  Batch
	selBuf []int32
	rowBuf []value.Value
}

// NewFilter wraps in with a predicate. The vector kernel compiles lazily,
// on the first batch (or Vectorized probe), so plans that never run the
// batch path — non-batched inputs, DisableVectorized — pay nothing for it.
func NewFilter(in Operator, pred expr.Node, b *metrics.Breakdown) *Filter {
	return &Filter{in: in, pred: pred, b: b, vecOn: true}
}

// SetVectorized toggles column-at-a-time predicate evaluation. Results are
// identical either way; the off position exists for differential testing
// and A/B measurement.
func (o *Filter) SetVectorized(on bool) {
	o.vecOn = on
	if !on {
		o.vec = nil
		o.vecTried = false
	}
}

// ensureVec compiles the vector kernel once, when enabled.
func (o *Filter) ensureVec() {
	if !o.vecOn || o.vecTried {
		return
	}
	o.vecTried = true
	if ve, ok := expr.CompileVec(o.pred); ok {
		o.vec = ve
	}
}

// Vectorized reports whether the predicate evaluates column-at-a-time on
// the batch path.
func (o *Filter) Vectorized() bool {
	o.ensureVec()
	return o.vec != nil
}

// Next implements Operator.
func (o *Filter) Next() ([]value.Value, bool, error) {
	for {
		row, ok, err := o.in.Next()
		if err != nil || !ok {
			return nil, false, err
		}
		v, err := o.pred.Eval(row)
		if err != nil {
			return nil, false, err
		}
		if v.IsTrue() {
			return row, true, nil
		}
	}
}

// Batched implements BatchOperator: a filter is batched when its input is.
func (o *Filter) Batched() bool {
	b, ok := o.in.(BatchOperator)
	return ok && b.Batched()
}

// NextBatch narrows the input batch's selection vector in place of pulling
// rows one interface call at a time.
func (o *Filter) NextBatch() (*Batch, bool, error) {
	in, ok := o.in.(BatchOperator)
	if !ok {
		return nil, false, fmt.Errorf("engine: Filter input is not batched")
	}
	b, ok, err := in.NextBatch()
	if err != nil || !ok {
		return nil, false, err
	}
	o.ensureVec()
	if o.vec != nil {
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
	if o.rowBuf == nil {
		o.rowBuf = make([]value.Value, len(b.Cols))
	}
	// Row fallback: evaluate only the rows the incoming selection vector
	// lists — rows the child already excluded must not be re-tested.
	o.selBuf = o.selBuf[:0]
	for _, r := range b.Sel {
		for i, col := range b.Cols {
			o.rowBuf[i] = col[r]
		}
		v, err := o.pred.Eval(o.rowBuf)
		if err != nil {
			return nil, false, err
		}
		if v.IsTrue() {
			o.selBuf = append(o.selBuf, r)
		}
	}
	o.batch.Cols = b.Cols
	o.batch.Sel = o.selBuf
	return &o.batch, true, nil
}

// Close implements Operator.
func (o *Filter) Close() error { return o.in.Close() }

// Project computes output expressions. On the batch path each expression
// with a vector kernel evaluates column-at-a-time; expressions without one
// (e.g. scalar function calls) fall back to row-at-a-time individually, so
// one uncovered expression does not demote the whole projection.
type Project struct {
	in       Operator
	exprs    []expr.Node
	vecs     []*expr.VecEval // per expression; nil entry = row fallback
	nVec     int
	vecOn    bool
	vecTried bool
	b        *metrics.Breakdown
	out      []value.Value

	batch    Batch
	cols     [][]value.Value
	selIdent []int32
	rowBuf   []value.Value
}

// NewProject wraps in with projection expressions. Vector kernels compile
// lazily, on the first batch (or Vectorized probe), so plans that never
// run the batch path pay nothing for them.
func NewProject(in Operator, exprs []expr.Node, b *metrics.Breakdown) *Project {
	return &Project{
		in: in, exprs: exprs, b: b,
		out:   make([]value.Value, len(exprs)),
		vecs:  make([]*expr.VecEval, len(exprs)),
		vecOn: true,
	}
}

// SetVectorized toggles column-at-a-time evaluation for the expressions
// that support it. Results are identical either way.
func (o *Project) SetVectorized(on bool) {
	o.vecOn = on
	if !on {
		o.vecs = make([]*expr.VecEval, len(o.exprs))
		o.nVec = 0
		o.vecTried = false
	}
}

// ensureVecs compiles the per-expression kernels once, when enabled.
func (o *Project) ensureVecs() {
	if !o.vecOn || o.vecTried {
		return
	}
	o.vecTried = true
	for i, e := range o.exprs {
		if ve, ok := expr.CompileVec(e); ok {
			o.vecs[i] = ve
			o.nVec++
		}
	}
}

// Vectorized reports whether every projection expression evaluates
// column-at-a-time on the batch path.
func (o *Project) Vectorized() bool {
	o.ensureVecs()
	return len(o.exprs) > 0 && o.nVec == len(o.exprs)
}

// Next implements Operator.
func (o *Project) Next() ([]value.Value, bool, error) {
	row, ok, err := o.in.Next()
	if err != nil || !ok {
		return nil, false, err
	}
	for i, e := range o.exprs {
		v, err := e.Eval(row)
		if err != nil {
			return nil, false, err
		}
		o.out[i] = v
	}
	return o.out, true, nil
}

// Batched implements BatchOperator: a projection is batched when its input
// is.
func (o *Project) Batched() bool {
	b, ok := o.in.(BatchOperator)
	return ok && b.Batched()
}

// NextBatch evaluates the projection over one input batch, producing dense
// output columns with an identity selection.
func (o *Project) NextBatch() (*Batch, bool, error) {
	in, ok := o.in.(BatchOperator)
	if !ok {
		return nil, false, fmt.Errorf("engine: Project input is not batched")
	}
	b, ok, err := in.NextBatch()
	if err != nil || !ok {
		return nil, false, err
	}
	n := len(b.Sel)
	if o.cols == nil {
		o.cols = make([][]value.Value, len(o.exprs))
	}
	for i := range o.cols {
		if cap(o.cols[i]) < n {
			o.cols[i] = make([]value.Value, n)
		}
		o.cols[i] = o.cols[i][:n]
	}
	// Column-at-a-time expressions first, whole columns per call.
	o.ensureVecs()
	for i, ve := range o.vecs {
		if ve == nil {
			continue
		}
		before := ve.VecRows()
		if err := ve.EvalInto(b.Cols, b.Sel, o.cols[i]); err != nil {
			return nil, false, err
		}
		o.b.VecRows += ve.VecRows() - before
	}
	// Row fallback for the remaining expressions only.
	if o.nVec < len(o.exprs) {
		if o.rowBuf == nil {
			o.rowBuf = make([]value.Value, len(b.Cols))
		}
		for k, r := range b.Sel {
			for i, col := range b.Cols {
				o.rowBuf[i] = col[r]
			}
			for i, e := range o.exprs {
				if o.vecs[i] != nil {
					continue
				}
				v, err := e.Eval(o.rowBuf)
				if err != nil {
					return nil, false, err
				}
				o.cols[i][k] = v
			}
		}
	}
	for len(o.selIdent) < n {
		o.selIdent = append(o.selIdent, int32(len(o.selIdent)))
	}
	o.batch.Cols = o.cols
	o.batch.Sel = o.selIdent[:n]
	return &o.batch, true, nil
}

// Close implements Operator.
func (o *Project) Close() error { return o.in.Close() }

// Limit implements OFFSET/LIMIT.
type Limit struct {
	in      Operator
	offset  int64
	limit   int64 // -1 = unlimited
	skipped int64
	emitted int64
}

// NewLimit wraps in with offset/limit (limit -1 = no limit).
func NewLimit(in Operator, offset, limit int64) *Limit {
	return &Limit{in: in, offset: offset, limit: limit}
}

// Next implements Operator.
func (o *Limit) Next() ([]value.Value, bool, error) {
	for {
		if o.limit >= 0 && o.emitted >= o.limit {
			return nil, false, nil
		}
		row, ok, err := o.in.Next()
		if err != nil || !ok {
			return nil, false, err
		}
		if o.skipped < o.offset {
			o.skipped++
			continue
		}
		o.emitted++
		return row, true, nil
	}
}

// Close implements Operator.
func (o *Limit) Close() error { return o.in.Close() }

// Distinct deduplicates rows by all columns.
type Distinct struct {
	in   Operator
	b    *metrics.Breakdown
	seen map[string]bool
}

// NewDistinct wraps in with duplicate elimination.
func NewDistinct(in Operator, b *metrics.Breakdown) *Distinct {
	return &Distinct{in: in, b: b, seen: make(map[string]bool)}
}

// Next implements Operator.
func (o *Distinct) Next() ([]value.Value, bool, error) {
	for {
		row, ok, err := o.in.Next()
		if err != nil || !ok {
			return nil, false, err
		}
		key := rowKey(row)
		dup := o.seen[key]
		if !dup {
			o.seen[key] = true
		}
		if !dup {
			return row, true, nil
		}
	}
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
