package core

import (
	"context"
	"fmt"
	"io"

	"nodb/internal/expr"
	"nodb/internal/faults"
	"nodb/internal/metrics"
	"nodb/internal/value"
)

// ScanSpec describes what a query needs from a raw table.
type ScanSpec struct {
	// Needed lists the attribute indexes the scan must produce, in output
	// order. The returned batch columns use this layout.
	Needed []int
	// FilterAttrs is the subset of Needed referenced by the pushed-down
	// predicate. The scan converts these first, runs Filter, and converts
	// the remaining attributes only for qualifying rows (selective tuple
	// formation).
	FilterAttrs []int
	// Filter is the pushed-down predicate over the output layout; nil keeps
	// every row. Slots of attributes outside FilterAttrs are NULL when it
	// runs. With Parallelism > 1 the predicate runs concurrently from
	// several workers and must be safe for concurrent calls (pure functions
	// over the row, the planner's compiled predicates, qualify).
	Filter func(row []value.Value) (bool, error)
	// NewBatchFilter, when non-nil alongside Filter, returns a vectorized
	// (column-at-a-time) evaluator of the same predicate for one worker's
	// exclusive use: unlike Filter, a VecEval carries per-batch scratch and
	// is not safe for concurrent calls, so each chunk worker requests its
	// own instance. The factory itself runs concurrently (workers are
	// constructed on their own goroutines) and must be safe for that. Its SelectTrue must keep exactly the rows Filter would
	// keep. Slots of attributes outside FilterAttrs hold unspecified values
	// when it runs (the predicate must not read them).
	NewBatchFilter func() *expr.VecEval
	// B receives the execution breakdown. Must be non-nil.
	B *metrics.Breakdown
	// Ctx, when non-nil, cancels the scan: NextBatch/DrainAgg return
	// Ctx.Err() at the next chunk boundary once the context is done, and the
	// parallel pipeline abandons its read-ahead promptly. Side effects of
	// chunks already committed (positional map, cache, statistics) remain —
	// they form a deterministic prefix, so a warm rerun after cancellation is
	// byte-identical to one after an uncancelled scan.
	Ctx context.Context
	// Agg, when non-nil, makes the scan fold each chunk into partial
	// aggregation states instead of serving row batches (worker-side
	// partial aggregation). Installed after NewScan via Scan.PushAgg; the
	// consumer then drives the scan with DrainAgg rather than NextBatch.
	Agg *AggPushdown
}

// Batch is the columnar unit every operator hands to the next: Cols holds
// one column per output attribute and Sel lists the live row indexes, in
// ascending order. A batch (and the values it points to) is valid only
// until the producer's next NextBatch call; consumers that retain values
// must copy. Sel may be empty when a whole chunk was filtered out, and Cols
// is empty for zero-attribute scans (COUNT(*)), where len(Sel) alone
// carries the row multiplicity. In a scan batch, columns of attributes
// outside FilterAttrs hold converted values only at the selected rows
// (selective tuple formation); the other slots are unspecified.
type Batch struct {
	Cols [][]value.Value
	Sel  []int32
}

// Scan is the in-situ scan over a raw table: it walks the table's segments
// in order, runs the chunk pipeline over each, and commits chunks strictly
// in (segment, chunk) order, so results, row order and adaptive-structure
// population are identical at any Parallelism, ShardAhead or pool size. Up
// to ShardAhead segments are open at once — the current one plus prefetched
// successors whose pipelines already process chunks — but commits, and
// hence every structure update and the aggregation merge, happen only for
// the current segment. An early Close (LIMIT, cancellation) never opens a
// segment beyond the window, and prefetched segments publish nothing. Not
// safe for concurrent use; run one goroutine per scan.
type Scan struct {
	t    *Table
	b    *metrics.Breakdown
	opts Options // the table's options when the scan opened
	spec ScanSpec

	segs []*Segment // the table's segments when the scan opened
	idx  int        // current segment
	// open is the look-ahead window: open[i] serves segment idx+i. It is
	// topped up when a segment becomes current (topped records for which one;
	// -1 until the scan is first driven), never per chunk, so a prefetch open
	// that fails is simply retried when its segment becomes current and
	// surfaces exactly as it would without look-ahead.
	open   []*pipeline
	ahead  int
	topped int

	finished  bool
	countOnly int64 // pending synthetic rows for zero-attribute scans

	closed     bool
	err        error // sticky: a failed scan stays failed
	errorsSeen int64 // malformed-input events, accumulated in commit order across segments

	cur      *chunkOut // current committed chunk, served as batch
	batch    Batch
	countSel []int32 // identity selection for synthetic count batches

	// Partial-aggregation merge state (spec.Agg != nil): groups keyed by
	// their canonical grouping key, kept in first-seen commit order. Workers
	// only build per-chunk partials; this table is touched solely at commit
	// on the consumer goroutine, so partials fold across segment boundaries
	// exactly as they fold across chunks — bitwise-identical float results.
	aggTable  map[string]*PartialGroup
	aggGroups []*PartialGroup
}

// OpenScan is the pre-segment spelling of NewScan, kept only because
// cmd/bench (frozen between benchmark PRs) calls it; the next benchmark PR
// deletes the forwarder.
func (t *Table) OpenScan(spec ScanSpec) (*Scan, error) { return t.NewScan(spec) }

// NewScan opens a scan. Close must be called when done. The first segment
// opens eagerly so a missing or unreadable file surfaces here; later ones
// open as the walk (or its look-ahead window) reaches them.
func (t *Table) NewScan(spec ScanSpec) (*Scan, error) {
	// Spec validation below reports API misuse by the caller, before any file
	// is touched — deliberately outside the faults taxonomy, which classifies
	// runtime file/scan failures for retry and quarantine policy.
	if spec.B == nil {
		//nodbvet:errtaxonomy-ok construction-time API misuse, not a scan-path fault
		return nil, fmt.Errorf("core: ScanSpec.B must be non-nil")
	}
	seen := make(map[int]bool, len(spec.Needed))
	for _, a := range spec.Needed {
		if a < 0 || a >= t.sch.Len() {
			//nodbvet:errtaxonomy-ok construction-time API misuse, not a scan-path fault
			return nil, fmt.Errorf("core: attribute %d out of range (schema has %d)", a, t.sch.Len())
		}
		if seen[a] {
			//nodbvet:errtaxonomy-ok construction-time API misuse, not a scan-path fault
			return nil, fmt.Errorf("core: attribute %d listed twice in Needed", a)
		}
		seen[a] = true
	}
	for _, a := range spec.FilterAttrs {
		if !seen[a] {
			//nodbvet:errtaxonomy-ok construction-time API misuse, not a scan-path fault
			return nil, fmt.Errorf("core: filter attribute %d not in Needed", a)
		}
	}
	segs, err := t.segments()
	if err != nil {
		return nil, err
	}
	s := &Scan{
		t:      t,
		b:      spec.B,
		opts:   t.Options(),
		spec:   spec,
		segs:   segs,
		topped: -1,
	}
	s.ahead = s.opts.ShardAhead
	if s.opts.Parallelism <= 1 {
		s.ahead = 1
	}
	first, err := s.openSegment(0)
	if err != nil {
		return nil, err
	}
	s.open = append(s.open, first)
	return s, nil
}

// openSegment opens segment i and wraps it in an idle pipeline.
func (s *Scan) openSegment(i int) (*pipeline, error) {
	seg := s.segs[i]
	reader, fp, err := seg.open()
	if err != nil {
		return nil, err
	}
	seg.noteAccess(s.spec.Needed)
	return newPipeline(s, seg, reader, fp), nil
}

// Close stops the pipelines of every open segment (discarding chunks read
// ahead but not yet returned) and releases their file handles; segments
// beyond the look-ahead window were never opened. Idempotent: repeated
// Close calls return nil, and NextBatch/DrainAgg after Close report
// faults.ErrClosed instead of scanning.
func (s *Scan) Close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	var first error
	for _, p := range s.open {
		if err := p.close(); err != nil && first == nil {
			first = err
		}
	}
	s.open = nil
	return first
}

// NextBatch returns the next chunk of qualifying rows in columnar form.
// The batch is valid until the following NextBatch call. Chunks the pushed
// filter emptied are skipped, and a batch never spans segments (a chunk
// belongs to exactly one).
func (s *Scan) NextBatch() (*Batch, bool, error) {
	if err := s.usable(); err != nil {
		return nil, false, err
	}
	for {
		if s.countOnly > 0 {
			n := s.countOnly
			if max := int64(s.opts.ChunkRows); n > max {
				n = max
			}
			s.countOnly -= n
			for len(s.countSel) < int(n) {
				s.countSel = append(s.countSel, int32(len(s.countSel)))
			}
			s.batch = Batch{Sel: s.countSel[:n]}
			return &s.batch, true, nil
		}
		if s.finished {
			return nil, false, nil
		}
		if err := s.advance(); err != nil {
			return nil, false, err
		}
		if s.cur != nil && len(s.cur.sel) > 0 {
			s.batch = Batch{Cols: s.cur.cols, Sel: s.cur.sel}
			return &s.batch, true, nil
		}
	}
}

// ctxErr reports the scan's context error, if the scan is cancellable and
// its context is done. On cancellation every open pipeline is shut down so
// read-ahead stops promptly; the error is sticky (the context stays done).
func (s *Scan) ctxErr() error {
	if s.spec.Ctx == nil {
		return nil
	}
	select {
	case <-s.spec.Ctx.Done():
		for _, p := range s.open {
			p.shutdown()
		}
		return s.spec.Ctx.Err()
	default:
		return nil
	}
}

// usable reports why the scan cannot serve: closed, or failed earlier. A
// failed scan stays failed — its worker scratch and pipeline state may be
// mid-chunk, so re-entering would serve undefined data.
func (s *Scan) usable() error {
	if s.closed {
		return faults.Closed(s.t.location)
	}
	return s.err
}

// advance commits the walk's next chunk — into s.cur, or into the
// aggregation merge table — and marks the scan finished past the last
// segment. Any error is sticky: the scan refuses further use.
func (s *Scan) advance() error {
	err := s.nextChunk()
	if err == io.EOF {
		s.finished = true
		return nil
	}
	s.err = err
	return err
}

// current returns the pipeline of segment s.idx (io.EOF past the last
// one), opening it if the look-ahead did not, and — once per segment — tops
// the window up: segments idx+1..idx+ahead-1 get opened and their pipelines
// started. The first top-up is deferred to the first drive (not NewScan) so
// PushAgg, which must precede any pipeline start, still reaches every
// segment.
func (s *Scan) current() (*pipeline, error) {
	if s.idx >= len(s.segs) {
		return nil, io.EOF
	}
	if s.topped == s.idx {
		return s.open[0], nil
	}
	if len(s.open) == 0 {
		p, err := s.openSegment(s.idx)
		if err != nil {
			return nil, err
		}
		s.open = append(s.open, p)
	}
	s.topped = s.idx
	for n := len(s.open); n < s.ahead && s.idx+n < len(s.segs); n++ {
		p, err := s.openSegment(s.idx + n)
		if err != nil {
			break
		}
		p.start()
		s.open = append(s.open, p)
	}
	return s.open[0], nil
}

// nextChunk pulls the current segment's next chunk in chunk order and
// commits it, stepping to the next segment when one is exhausted. Returns
// io.EOF when every segment is.
func (s *Scan) nextChunk() error {
	for {
		p, err := s.current()
		if err != nil {
			return err
		}
		if err := s.ctxErr(); err != nil {
			return err
		}
		if err := p.checkFile(); err != nil {
			return err
		}
		if s.cur != nil {
			// The served batch is invalid from here on per the NextBatch
			// contract: its buffers go back to the chunk tasks.
			p.recycle(s.cur)
			s.cur = nil
		}
		o, err := p.pull()
		if err == nil {
			err = s.commit(p, o)
		}
		if err != io.EOF {
			return err
		}
		s.open = s.open[1:]
		s.idx++
		if err := p.close(); err != nil {
			return err
		}
		if s.countOnly > 0 {
			// Serve the segment's synthetic rows before touching the next
			// segment, keeping the walk as lazy as for real rows.
			return nil
		}
	}
}

// commit applies one processed chunk's deferred side effects to its
// segment's structures and makes its batch current. Chunks are always
// committed in file order — by construction with the inline executor, via
// the ordered merge with the pool — so positional-map, cache and statistics
// population is deterministic regardless of worker interleaving. Returns
// io.EOF when the result ends the segment.
func (s *Scan) commit(p *pipeline, o *chunkOut) error {
	seg := p.seg
	if o.b != nil {
		s.b.Merge(o.b)
	}
	if o.err != nil {
		return o.err
	}
	if o.errFields > 0 || o.dropped > 0 {
		s.t.noteErrors(o.errFields, o.dropped)
		s.errorsSeen += o.errFields
		if s.opts.MaxErrors > 0 && s.errorsSeen > s.opts.MaxErrors {
			// Over budget: reject before applying this chunk's side effects,
			// so the committed structure state is exactly the clean prefix
			// and a warm rerun re-detects the same events in the same order.
			return faults.TooMany(seg.path, s.errorsSeen, s.opts.MaxErrors)
		}
	}
	if o.base >= 0 {
		seg.learnChunkBase(o.c, o.base)
	}
	if o.nextBase >= 0 {
		seg.learnChunkBase(o.c+1, o.nextBase)
	}
	if o.eof {
		seg.learnRowCount(p.rowsDone)
		return io.EOF
	}
	if o.countFinal >= 0 {
		n := o.countFinal - p.rowsDone
		p.rowsDone = o.countFinal
		s.countOnly += n
		s.b.RowsScanned += n
		return io.EOF
	}
	if len(o.learnDel) > 0 {
		sw := metrics.NewStopwatch(s.b)
		if seg.pm.Adopt(o.c, o.base, o.nrows, o.learnDel, o.learnPos) {
			o.learnDel, o.learnPos = nil, nil // the map's grain now
		}
		sw.Stop(metrics.NoDB)
	}
	if len(o.frags) > 0 {
		sw := metrics.NewStopwatch(s.b)
		for _, f := range o.frags {
			seg.cache.Put(f)
		}
		sw.Stop(metrics.NoDB)
	}
	if len(o.samples) > 0 {
		sw := metrics.NewStopwatch(s.b)
		for _, smp := range o.samples {
			if seg.markStatsSeen(o.c, smp.attr) {
				seg.stats.Merge(smp.attr, &smp.sum)
			}
		}
		sw.Stop(metrics.NoDB)
	}
	p.rowsDone += int64(o.nrows)
	if s.spec.Agg != nil {
		// Aggregation pushdown: the chunk's partial groups merge here, in
		// file order, and its row batch is never served. First-seen groups
		// are retained by pointer in the merge table, so the output's batch
		// buffers recycle immediately.
		s.mergePartials(o)
		p.recycle(o)
		return nil
	}
	s.cur = o
	return nil
}
