package core

import (
	"fmt"
	"io"
	"slices"
	"time"

	"nodb/internal/expr"
	"nodb/internal/faults"
	"nodb/internal/metrics"
	"nodb/internal/posmap"
	"nodb/internal/rawcache"
	"nodb/internal/rawfile"
	"nodb/internal/stats"
	"nodb/internal/value"
)

// Chunk sources: where a worker gets the bytes of the chunk it processes.
const (
	// srcFetch preads the chunk's known byte range directly (chunks whose
	// base offsets were learned earlier).
	srcFetch = iota
	// srcRaw processes a chunk already read and row-split by the pipeline's
	// step stage (territory with unknown bases).
	srcRaw
)

// chunkSrc tells a worker where one chunk's bytes come from.
type chunkSrc struct {
	kind  int
	nrows int            // expected row count, when known
	known bool           // row count known from table metadata
	ch    *rawfile.Chunk // srcRaw: the split chunk handed over by step
}

// statsSample is one attribute's sampled values, summarised by the worker
// for the commit to merge.
type statsSample struct {
	attr int
	sum  stats.Summary
}

// chunkOut is one processed chunk: the batch plus every side effect the
// scan must apply to the shared adaptive structures. Side effects are
// deferred so Scan.commit can apply them in strict chunk order — population
// of the positional map, cache and statistics is then deterministic no
// matter how parallel workers interleave, and an early-closed scan never
// publishes knowledge about chunks the consumer did not receive.
type chunkOut struct {
	pos   int // stream position
	seg   int // segment index within the scan
	c     int // chunk ID within the segment
	nrows int
	cols  [][]value.Value
	sel   []int32

	eof        bool
	countFinal int64 // >= 0: serve (countFinal - rowsDone) synthetic rows, then stop
	err        error
	b          *metrics.Breakdown // private breakdown to fold in; nil when charged directly

	// poison marks a last-resort panic result whose chunk ID cannot be
	// trusted (it may be -1 or a chunk already delivered): the ordered
	// merge treats it as terminal instead of parking it in pending.
	poison bool

	base     int64 // discovered base offset of chunk c, -1 when none
	nextBase int64 // discovered base offset of chunk c+1, -1 when none
	learnDel []int16
	learnPos []uint32
	frags    []*rawcache.Fragment
	samples  []statsSample

	// Malformed-input accounting, applied by commit in chunk order so the
	// max_errors failure point is deterministic at any Parallelism.
	errFields int64 // malformed-input events detected in this chunk
	dropped   int64 // rows excluded by on_error=skip
	dirty     bool  // chunk had events: adaptive-structure learning suppressed

	// groups holds the chunk's partial aggregation states, in first-seen
	// order, when the scan has an AggPushdown installed; the batch (cols/sel)
	// is then not served to the consumer, commit merges the groups instead.
	// Groups past len are a recycled output's, reused by nextGroup.
	groups []*PartialGroup
}

// nextSample appends a statistics sample for attr to the output, reusing a
// recycled output's summary buffers, and returns its emptied summary.
func (o *chunkOut) nextSample(attr int, kind value.Kind) *stats.Summary {
	if n := len(o.samples); n < cap(o.samples) {
		o.samples = o.samples[:n+1]
	} else {
		o.samples = append(o.samples, statsSample{})
	}
	smp := &o.samples[len(o.samples)-1]
	smp.attr = attr
	smp.sum.Reset(kind)
	return &smp.sum
}

// chunkWorker processes chunks one at a time: read (or receive) raw bytes,
// selectively tokenize, convert, filter, and collect deferred structure
// updates. A worker owns all its scratch, so the stream can run one per
// goroutine, and moves between the segments of its scan.
type chunkWorker struct {
	t    *Segment // the segment of the chunk it serves
	opts Options
	spec ScanSpec
	b    *metrics.Breakdown
	// reader is this worker's view of the raw file (stateless preads).
	reader *rawfile.Reader
	// free hands back committed outputs from the scan's consumer for
	// reuse; results in flight in the ordered merge are never touched.
	free chan *chunkOut

	ch       rawfile.Chunk // scratch chunk for srcFetch
	chunkBuf []byte        // pread buffer for srcFetch
	// span is a chunk without row bounds: the mapped byte range, or no bytes
	// at all when the cache serves every needed attribute.
	span rawfile.Chunk

	// Per-chunk scratch, reused across chunks in both modes.
	frags     []*rawcache.Fragment
	fullConv  []bool  // Needed[i] fully converted this chunk
	filterIdx []bool  // Needed[i] is a filter attribute
	delims    []int16 // needed delimiters for file-served attrs, sorted
	delimSlot []int32 // delim+1 -> index+1 into delims; 0 = absent
	learnMark []bool  // delim+1 -> learn this delimiter this chunk
	learnSlot []int32 // delim+1 -> index+1 into the chunk's learnDel
	steps     []tokenStep
	outs      []runOut // routing of every run's fields, steps index ranges
	runBuf    []uint32 // a run's field ends, when it does not fill the slab directly
	posBuf    []int32  // nrows x len(delims), data coordinates
	spanLo    []int32
	spanHi    []int32
	rangeBuf  []byte
	rowBuf    []value.Value // aggregation fold row scratch

	// filter is this worker's private evaluator of spec.Filter; identSel
	// is the identity selection it narrows.
	filter   *expr.VecEval
	identSel []int32

	// Malformed-input scratch, reset per chunk: badRows marks rows with at
	// least one event (dedup for counting; the drop set under
	// on_error=skip), nbad counts them, chunkErrs counts events.
	badRows   []bool
	nbad      int
	chunkErrs int64
	skipSel   []int32 // base selection excluding bad rows (on_error=skip)

	// Partial-aggregation scratch (spec.Agg != nil), kept for the scan:
	// the worker's key dictionary, and per dictionary id the index of its
	// partial group in the chunk's output (-1: none yet), reset through the
	// ids the chunk touched.
	aggDict    *groupDict
	aggSlot    []int32
	aggTouched []int32
	aggKeyVals []value.Value
}

// tokenStep is one entry of the per-chunk plan: the row start (from the
// loaded chunk, or from the view on a mapped range), a delimiter the map
// has, or a run of fields tokenized by one scanner call.
// Gaps that chain off each other (each starts at the delimiter the previous
// one ends at) form one run, so a cold row is one call for fields
// 0..last needed.
type tokenStep struct {
	kind int   // stepRowStart, stepViewStart, stepMapped, stepRun
	j    int   // stepRowStart, stepViewStart, stepMapped: index into delims
	d    int16 // stepMapped: the delimiter
	// stepRun: tokenize fields from+1..upto.
	from     int16 // run start delimiter (exclusive); -1 = row start
	upto     int16
	fromJ    int  // index into delims holding from's position, or -1
	fromView bool // from's position comes from the view, not posBuf
	// slab is the learned-slab column of field from+1 when the run's fields
	// fill consecutive columns, so the scanner writes them in place; -1
	// sends them through runBuf.
	slab       int
	out0, out1 int // the run's routing: outs[out0:out1]
}

const (
	stepRowStart = iota
	stepViewStart
	stepMapped
	stepRun
)

// runOut routes one field end of a run to where the chunk needs it.
type runOut struct {
	k   int32 // the field's index within the run (field from+1+k)
	j   int32 // index into delims whose posBuf entry it fills, or -1
	col int32 // learned-slab column it fills, or -1 (or the run writes the slab in place)
}

func newChunkWorker(t *Segment, opts Options, spec ScanSpec, reader *rawfile.Reader, free chan *chunkOut) *chunkWorker {
	nattrs := t.sch.Len()
	w := &chunkWorker{
		t:         t,
		opts:      opts,
		spec:      spec,
		reader:    reader,
		free:      free,
		frags:     make([]*rawcache.Fragment, len(spec.Needed)),
		fullConv:  make([]bool, len(spec.Needed)),
		filterIdx: make([]bool, len(spec.Needed)),
		delimSlot: make([]int32, nattrs+1),
		learnMark: make([]bool, nattrs+1),
		learnSlot: make([]int32, nattrs+1),
		rowBuf:    make([]value.Value, len(spec.Needed)),
	}
	for i, a := range spec.Needed {
		for _, f := range spec.FilterAttrs {
			if f == a {
				w.filterIdx[i] = true
			}
		}
	}
	if spec.Filter != nil {
		w.filter, _ = expr.CompileVec(spec.Filter)
	}
	return w
}

// resetOut clears a chunkOut for reuse, keeping buffer capacities.
func resetOut(o *chunkOut, c int) *chunkOut {
	o.c, o.nrows = c, 0
	o.sel = o.sel[:0]
	o.eof, o.err = false, nil
	o.b = nil
	o.poison = false
	o.countFinal = -1
	o.base, o.nextBase = -1, -1
	o.learnDel = o.learnDel[:0]
	o.learnPos = o.learnPos[:0]
	o.frags = o.frags[:0]
	o.samples = o.samples[:0]
	o.groups = o.groups[:0]
	o.errFields, o.dropped, o.dirty = 0, 0, false
	return o
}

// newOut prepares the output for one chunk: a committed output drawn back
// from the stream's free list, or a fresh one.
func (w *chunkWorker) newOut(c int) *chunkOut {
	select {
	case o := <-w.free:
		return resetOut(o, c)
	default:
		return terminal(c)
	}
}

// run processes chunk c from the given source into a chunkOut. Errors and
// end-of-data are reported on the result, never panicked across goroutines:
// a panic anywhere in the per-chunk path (including user predicates)
// recovers into a typed faults.ErrPanic error on the result, so the query
// fails cleanly through the ordered-commit path instead of crashing the
// process.
func (w *chunkWorker) run(c int, src chunkSrc) (out *chunkOut) {
	out = w.newOut(c)
	defer func() {
		if rec := recover(); rec != nil {
			out = terminal(c)
			out.err = faults.Panicked(w.t.path, c, rec)
		}
	}()
	if err := w.process(c, src, out); err == io.EOF {
		out.eof = true
	} else if err != nil {
		out.err = err
	}
	return out
}

// noteBadRow marks row r as containing malformed input, once, and reports
// whether this was its first mark.
func (w *chunkWorker) noteBadRow(r int) bool {
	if w.badRows[r] {
		return false
	}
	w.badRows[r] = true
	w.nbad++
	return true
}

// charge runs fn and charges its elapsed time, minus any I/O time fn
// caused, to category cat.
func (w *chunkWorker) charge(cat metrics.Category, fn func() error) error {
	return chargeBreakdown(w.b, cat, fn)
}

// chargeBreakdown runs fn and charges its elapsed time, minus any I/O time
// fn caused through b, to category cat of b.
func chargeBreakdown(b *metrics.Breakdown, cat metrics.Category, fn func() error) error {
	io0 := b.Times[metrics.IO]
	t0 := time.Now()
	err := fn()
	el := time.Since(t0)
	b.Times[cat] += el - (b.Times[metrics.IO] - io0)
	return err
}

// process is the one per-chunk path. It probes the cache for every needed
// attribute; plans the delimiters around each attribute the cache cannot
// serve; reads only the bytes that plan needs — none when the cache serves
// every needed attribute, the mapped byte range when the row count is known
// and the map has every needed delimiter, the whole chunk otherwise; fills
// posBuf with tokenizeRows; and converts through materialize. Returns io.EOF
// when the chunk is past the end of data.
func (w *chunkWorker) process(c int, src chunkSrc, out *chunkOut) error {
	nrows, known := src.nrows, src.known
	if !known {
		// The total row count is unknown (e.g. an earlier scan was cancelled
		// or closed early), but base offsets learned for this chunk and the
		// next bracket it — a full chunk of exactly ChunkRows rows. Knowing
		// the count lets the cache and the mapped range serve it, so a rerun
		// after a partial scan behaves identically to a warm scan.
		if _, ok := w.t.chunkBase(c); ok {
			if _, ok2 := w.t.chunkBase(c + 1); ok2 {
				nrows, known = w.opts.ChunkRows, true
			}
		}
	}
	if known && nrows == 0 {
		return io.EOF
	}

	// 1. Probe the cache for every needed attribute.
	for i, a := range w.spec.Needed {
		w.frags[i] = nil
		if w.opts.EnableCache && known {
			if f, ok := w.t.cache.Get(rawcache.Key{Chunk: c, Attr: a}); ok && f.Rows == nrows {
				w.frags[i] = f
			}
		}
	}

	// 2. Plan the delimiters bracketing every attribute left for the file,
	// and where the bytes come from. A chunk that needs no attribute at all
	// (COUNT(*)) still reads its rows.
	w.planDelims()
	cached := len(w.delims) == 0 && len(w.spec.Needed) > 0
	var view posmap.View
	haveView := false
	if w.opts.EnablePosMap && !cached {
		view, haveView = w.t.pm.ViewChunk(c)
	}
	mapped := haveView && known && view.Rows() == nrows && len(w.delims) > 0
	for _, d := range w.delims {
		mapped = mapped && view.Has(d)
	}

	// 3. Read only the bytes the plan needs.
	var ch *rawfile.Chunk
	var err error
	switch {
	case cached:
		w.span = rawfile.Chunk{Rows: nrows}
		ch = &w.span
		w.skipBytes(c, 0)
	case mapped:
		ch, err = w.readMappedRange(c, nrows, &view)
	default:
		ch, err = w.loadChunk(c, nrows, known, src, out)
	}
	if err != nil {
		return err // io.EOF propagates: commit learns the row count
	}
	nrows = ch.Rows
	if haveView && view.Rows() != nrows {
		haveView = false // stale view; re-learn
	}
	w.ensureBatch(nrows, out)
	w.planSteps(nrows, haveView, mapped, !cached && !mapped, &view, out)

	// 4. Fill posBuf with the one row loop. Only a loaded chunk tokenizes;
	// a mapped range only jumps, which is positional-map upkeep.
	if len(w.steps) > 0 || len(out.learnDel) > 0 {
		cat := metrics.Tokenizing
		if mapped {
			cat = metrics.NoDB
		}
		err = w.charge(cat, func() error { return w.tokenizeRows(c, ch, &view, out) })
	}
	for _, d := range out.learnDel {
		w.learnSlot[d+1] = 0
	}
	if err != nil {
		return err
	}

	// 5. Convert.
	if err := w.materialize(c, nrows, ch.Data, out); err != nil {
		return err
	}
	return w.finishChunk(nrows, out)
}

// planDelims collects, sorted, the delimiters bracketing every needed
// attribute the cache did not serve (field a spans delimiters a-1 and a),
// after clearing last chunk's delimSlot entries.
func (w *chunkWorker) planDelims() {
	for _, d := range w.delims {
		w.delimSlot[d+1] = 0
	}
	w.delims = w.delims[:0]
	for i, a := range w.spec.Needed {
		if w.frags[i] != nil {
			continue
		}
		for _, d := range [2]int16{int16(a) - 1, int16(a)} {
			if w.delimSlot[d+1] == 0 {
				w.delims = append(w.delims, d)
				w.delimSlot[d+1] = int32(len(w.delims))
			}
		}
	}
	slices.Sort(w.delims)
	for j, d := range w.delims {
		w.delimSlot[d+1] = int32(j + 1)
	}
}

// skipBytes charges the part of chunk c's byte range that was not read
// (n bytes were) to BytesSkipped, when the chunk's bounds are known.
func (w *chunkWorker) skipBytes(c, n int) {
	base, ok := w.t.chunkBase(c)
	if !ok {
		return
	}
	chunkLen := w.reader.Size() - base
	if next, ok2 := w.t.chunkBase(c + 1); ok2 {
		chunkLen = next - base
	}
	if skipped := chunkLen - int64(n); skipped > 0 {
		w.b.BytesSkipped += skipped
	}
}

// readMappedRange reads only the byte range covering the needed delimiters,
// which the view has for every row, and returns it as a chunk without row
// bounds based at the range start: tokenizeRows takes every position,
// the row start included, from the view.
func (w *chunkWorker) readMappedRange(c, nrows int, view *posmap.View) (*rawfile.Chunk, error) {
	// Positions ascend within a row, so the first and last needed
	// delimiters bound the range.
	sw := metrics.NewStopwatch(w.b)
	lo := int64(1) << 62
	var hi int64
	dFirst, dLast := w.delims[0], w.delims[len(w.delims)-1]
	for r := 0; r < nrows; r++ {
		pf, ok1 := view.Pos(r, dFirst)
		pl, ok2 := view.Pos(r, dLast)
		if !ok1 || !ok2 {
			// The map vouched for these positions when the plan chose the
			// mapped range; losing one means the structures no longer
			// describe the file (concurrent truncate/rewrite) — the
			// ErrFileChanged class, so callers retry or quarantine like any
			// stale read.
			return nil, faults.Changed(w.t.path, fmt.Sprintf("positional map lost a delimiter for row %d mid-scan", r))
		}
		lo = min(lo, pf)
		hi = max(hi, pl)
	}
	sw.Stop(metrics.NoDB)

	n := int(hi - lo)
	if cap(w.rangeBuf) < n {
		w.rangeBuf = make([]byte, n)
	}
	w.rangeBuf = w.rangeBuf[:n]
	if n > 0 {
		m, err := w.reader.ReadAt(w.rangeBuf, lo)
		if m < n && (err == nil || err == io.EOF) {
			// The map promised fields out to hi, but the file ended first:
			// it shrank since the positions were learned. A silent short
			// read here would materialize stale buffer bytes as field data.
			return nil, faults.Truncated(w.t.path,
				fmt.Sprintf("mapped range [%d,%d) cut short at byte %d", lo, hi, lo+int64(m)))
		}
		if err != nil && err != io.EOF {
			return nil, err
		}
	}
	w.skipBytes(c, n)
	w.span = rawfile.Chunk{Base: lo, Data: w.rangeBuf, Rows: nrows}
	return &w.span, nil
}

// loadChunk obtains the chunk's rows — read from the file at the learned
// base, or the chunk the pipeline's step stage already split — checks them
// against a known row count and records the base offsets they reveal.
func (w *chunkWorker) loadChunk(c, knownRows int, known bool, src chunkSrc, out *chunkOut) (*rawfile.Chunk, error) {
	ch := src.ch
	if src.kind != srcRaw {
		base, ok := w.t.chunkBase(c)
		if !ok {
			// Planner-invariant breach, not a file fault: step only yields
			// srcFetch claims for chunks whose base is recorded.
			//nodbvet:errtaxonomy-ok internal invariant violation, not an I/O-path error; a faults class would misdirect retry/quarantine policy
			return nil, fmt.Errorf("core: internal: chunk %d dispatched to a worker without a base offset", c)
		}
		limit := w.reader.Size()
		if next, ok2 := w.t.chunkBase(c + 1); ok2 {
			limit = next
		}
		err := w.charge(metrics.Tokenizing, func() error {
			var e error
			w.chunkBuf, e = rawfile.ReadChunkAt(w.reader, base, limit, w.opts.ChunkRows, w.chunkBuf, &w.ch)
			return e
		})
		if err == io.EOF && known && knownRows > 0 {
			// Structures say this chunk has rows, but the file ended first:
			// it shrank since the row count was learned.
			return nil, faults.Truncated(w.t.path,
				fmt.Sprintf("chunk %d should have %d rows, file ended first", c, knownRows))
		}
		if err != nil {
			return nil, err
		}
		ch = &w.ch
	}
	if known && ch.Rows != knownRows {
		return nil, faults.Changed(w.t.path,
			fmt.Sprintf("chunk %d has %d rows, structures say %d (file changed without Refresh?)", c, ch.Rows, knownRows))
	}
	out.base = ch.Base
	if ch.Rows == w.opts.ChunkRows {
		out.nextBase = ch.Base + int64(len(ch.Data))
	}
	return ch, nil
}

// planSteps builds the chunk's row plan: for each needed delimiter, either
// it is the row start (free on a loaded chunk, a view read on a mapped
// range), the map has it, or a gap is tokenized starting after the nearest
// tracked (or previously computed) delimiter. A gap starting where the
// previous gap ended extends that run instead of opening one. With learn
// set, everything tokenized is laid out in the output's learned-position
// slab.
func (w *chunkWorker) planSteps(nrows int, haveView, mapped, learn bool, view *posmap.View, out *chunkOut) {
	if n := nrows * len(w.delims); cap(w.posBuf) < n {
		w.posBuf = make([]int32, n)
	}
	w.posBuf = w.posBuf[:nrows*len(w.delims)]
	learn = learn && w.opts.EnablePosMap
	rowStart := stepRowStart
	if mapped {
		rowStart = stepViewStart // a mapped range has no row bounds
	}
	w.steps = w.steps[:0]
	cursor := int16(-1)
	cursorJ := -1
	chain := false // the last step is a run a gap from cursor may extend
	for j, d := range w.delims {
		switch {
		case d == -1:
			w.steps = append(w.steps, tokenStep{kind: rowStart, j: j})
			cursorJ, chain = j, false
			continue
		case haveView && view.Has(d):
			w.steps = append(w.steps, tokenStep{kind: stepMapped, j: j, d: d})
			cursor, cursorJ, chain = d, j, false
			continue
		}
		from, fromJ, fromView := cursor, cursorJ, false
		if haveView {
			if nd, ok := view.NearestDelim(d); ok && nd > from {
				from, fromJ, fromView = nd, -1, true
			}
		}
		if chain && !fromView {
			w.steps[len(w.steps)-1].upto = d
		} else {
			w.steps = append(w.steps, tokenStep{kind: stepRun, from: from, upto: d, fromJ: fromJ, fromView: fromView})
		}
		// Everything tokenized in the gap is learned (the paper: keep
		// positions for attributes tokenized along the way), thinned by
		// MapEveryNth but always keeping the needed delimiter itself.
		if learn {
			for g := from + 1; g <= d; g++ {
				if g == d || int(g)%w.opts.MapEveryNth == 0 {
					w.learnMark[g+1] = true
				}
			}
		}
		cursor, cursorJ, chain = d, j, true
	}

	// Learned slab layout: collect marked delimiters in sorted order (the
	// mark array doubles as the dedup set; it is cleared as it is drained).
	// The slab is allocated at its final size, because commit hands it to
	// the positional map as the grain whenever it can; buffers the map did
	// not take stay on the chunkOut and are reused. Commit populates the
	// positional map from the slab (when non-empty).
	learnDel := out.learnDel[:0]
	if learn {
		if !haveView || !view.Has(-1) {
			w.learnMark[0] = true
		}
		for di := range w.learnMark {
			if w.learnMark[di] {
				learnDel = append(learnDel, int16(di)-1)
				w.learnMark[di] = false
			}
		}
	}
	L := len(learnDel)
	for j, d := range learnDel {
		w.learnSlot[d+1] = int32(j + 1)
	}
	if n := nrows * L; n > 0 && cap(out.learnPos) != n {
		out.learnPos = make([]uint32, n)
	}
	out.learnDel, out.learnPos = learnDel, out.learnPos[:nrows*L]
	w.routeRuns()
}

// routeRuns decides, once per chunk, where each run's field ends go: a run
// whose fields are all learned into consecutive slab columns is scanned
// straight into the slab, and only its needed delimiters are routed to
// posBuf; any other run is scanned into runBuf and each field it needs —
// for posBuf or the slab — gets a route.
func (w *chunkWorker) routeRuns() {
	w.outs = w.outs[:0]
	width := 0
	for si := range w.steps {
		st := &w.steps[si]
		if st.kind != stepRun {
			continue
		}
		n := int(st.upto - st.from)
		width = max(width, n)
		first := w.learnSlot[st.from+2] - 1 // column of field from+1's end
		st.slab = int(first)
		for k := 0; k < n && st.slab >= 0; k++ {
			if w.learnSlot[int(st.from)+2+k]-1 != first+int32(k) {
				st.slab = -1
			}
		}
		st.out0 = len(w.outs)
		for k := 0; k < n; k++ {
			g := int(st.from) + 1 + k
			o := runOut{k: int32(k), j: w.delimSlot[g+1] - 1, col: -1}
			if st.slab < 0 {
				o.col = w.learnSlot[g+1] - 1
			}
			if o.j >= 0 || o.col >= 0 {
				w.outs = append(w.outs, o)
			}
		}
		st.out1 = len(w.outs)
	}
	if cap(w.runBuf) < width {
		w.runBuf = make([]uint32, width)
	}
}

// tokenizeRows runs the chunk's plan over every row: the row start, map
// jumps, and one scanner call per run, whose hits land in the learned slab
// (or runBuf) and from there in posBuf. Positions are relative to ch.Base;
// the row start is stored as start-1, so field a always spans (pos(a-1),
// pos(a)) exclusive of both ends. A chunk without row bounds (a mapped
// range) has no runs and learns nothing, so only the loaded chunk's rows
// read ch.Start and ch.End. Every delimiter position read from the map,
// other than the row start, counts one MapJumpFields.
//
// The per-row loop of every chunk the cache does not fully serve.
//
//nodbvet:hotpath
func (w *chunkWorker) tokenizeRows(c int, ch *rawfile.Chunk, view *posmap.View, out *chunkOut) error {
	K, L, learnPos := len(w.delims), len(out.learnDel), out.learnPos
	base := ch.Base
	sep := w.opts.Delim
	rowStartCol := int(w.learnSlot[0]) - 1
	for r := 0; r < ch.Rows; r++ {
		pos := w.posBuf[r*K : r*K+K]
		learned := learnPos[r*L : r*L+L]
		if rowStartCol >= 0 {
			learned[rowStartCol] = uint32(ch.Start[r])
		}
		for si := range w.steps {
			st := &w.steps[si]
			switch st.kind {
			case stepRowStart:
				pos[st.j] = ch.Start[r] - 1
				continue
			case stepViewStart:
				p, ok := view.Pos(r, -1)
				if !ok {
					return w.lostDelim(-1)
				}
				pos[st.j] = int32(p-base) - 1
				continue
			case stepMapped:
				p, ok := view.Pos(r, st.d)
				if !ok {
					return w.lostDelim(st.d)
				}
				pos[st.j] = int32(p - base)
				w.b.MapJumpFields++
				continue
			}
			var fromPos int32 // position of delimiter st.from
			switch {
			case st.fromView:
				p, ok := view.Pos(r, st.from)
				if !ok {
					return w.lostDelim(st.from)
				}
				fromPos = int32(p - base)
				w.b.MapNearFields++
			case st.fromJ >= 0:
				fromPos = pos[st.fromJ]
			default:
				fromPos = ch.Start[r] - 1
			}
			rowEnd := ch.End[r]
			width := int(st.upto - st.from)
			dst := w.runBuf[:width]
			if st.slab >= 0 {
				dst = learned[st.slab : st.slab+width]
			}
			n := rawfile.FieldEnds(ch.Data[:rowEnd], sep, int(fromPos)+1, dst)
			w.b.FieldsTokenized += int64(n)
			if n < width {
				// The row ran out of fields before a delimiter the query
				// needs: a ragged row. The missing fields end at the row
				// end, so they read as empty spans (NULL).
				if err := w.raggedRow(c, r, int(st.from)+1+n); err != nil {
					return err
				}
				for k := n; k < width; k++ {
					dst[k] = uint32(rowEnd)
				}
			}
			for _, o := range w.outs[st.out0:st.out1] {
				p := dst[o.k]
				if o.j >= 0 {
					pos[o.j] = int32(p)
				}
				if o.col >= 0 {
					learned[o.col] = p
				}
			}
		}
	}
	return nil
}

// lostDelim reports a delimiter the plan took from the map but the view no
// longer answers.
func (w *chunkWorker) lostDelim(d int16) error {
	return faults.Changed(w.t.path, fmt.Sprintf("positional map lost delimiter %d mid-scan", d))
}

// raggedRow handles row r of chunk c ending before field g: fail aborts the
// chunk; null and skip record the event once per row (a later run of the
// row restarts past the row end and detects it again).
func (w *chunkWorker) raggedRow(c, r, g int) error {
	if w.opts.OnError == OnErrorFail {
		return faults.Ragged(w.t.path, c,
			int64(c)*int64(w.opts.ChunkRows)+int64(r),
			fmt.Sprintf("row has no field %d", g))
	}
	if w.noteBadRow(r) {
		w.chunkErrs++
		w.b.MalformedFields++
	}
	return nil
}

// materialize converts the needed fields into the batch columns, runs the
// filter, converts projection-only attributes for qualifying rows, and
// collects cache fragments and statistics samples for deferred population.
func (w *chunkWorker) materialize(c, nrows int, data []byte, out *chunkOut) error {
	fullConverted := w.fullConv
	for i := range fullConverted {
		fullConverted[i] = false
	}

	// Phase 1: filter attributes, for every row.
	for i := range w.spec.Needed {
		if !w.filterIdx[i] {
			continue
		}
		if err := w.materializeAttr(i, nrows, nil, data, out); err != nil {
			return err
		}
		fullConverted[i] = true
	}

	if err := w.runFilter(nrows, out); err != nil {
		return err
	}

	// Phase 2: remaining attributes, only for qualifying rows (selective
	// tuple formation). When nothing was filtered out the conversion is
	// complete and cacheable.
	selAll := len(out.sel) == nrows
	phase2Bad := w.nbad
	for i := range w.spec.Needed {
		if w.filterIdx[i] {
			continue
		}
		if err := w.materializeAttr(i, nrows, out.sel, data, out); err != nil {
			return err
		}
		if selAll {
			fullConverted[i] = true
		}
	}
	// Rows that turned out bad during phase-2 conversion (under
	// on_error=skip) passed the filter already; compact them out of the
	// selection now, before aggregation folds or the batch is served.
	if w.opts.OnError == OnErrorSkip && w.nbad > phase2Bad {
		kept := out.sel[:0]
		for _, r := range out.sel {
			if !w.badRows[r] {
				kept = append(kept, r)
			}
		}
		out.sel = kept
	}

	// Cache population: fragments for fully converted file-served attrs,
	// built here and inserted at commit so insertion order is chunk order.
	if w.opts.EnableCache {
		sw := metrics.NewStopwatch(w.b)
		for i, a := range w.spec.Needed {
			if w.frags[i] != nil || !fullConverted[i] {
				continue
			}
			fb := rawcache.NewBuilder(rawcache.Key{Chunk: c, Attr: a}, w.t.sch.Col(a).Kind, nrows)
			col := out.cols[i]
			for r := 0; r < nrows; r++ {
				fb.Append(col[r])
			}
			out.frags = append(out.frags, fb.Finish())
		}
		sw.Stop(metrics.NoDB)
	}

	// Statistics: summarise the sample of every fully converted attr; commit
	// merges the summaries in chunk order. The seen check here is advisory
	// (skips the sampling work on repeat scans); commit re-checks
	// authoritatively before merging.
	if w.opts.EnableStats {
		sw := metrics.NewStopwatch(w.b)
		for i, a := range w.spec.Needed {
			if !fullConverted[i] && w.frags[i] == nil {
				continue
			}
			if w.t.statsSeenPeek(c, a) {
				continue
			}
			sum := out.nextSample(a, w.t.sch.Col(a).Kind)
			if frag := w.frags[i]; frag != nil {
				for r := 0; r < nrows; r += w.opts.StatsSampleEvery {
					sum.Add(frag.Value(r))
				}
			} else {
				col := out.cols[i]
				for r := 0; r < nrows; r += w.opts.StatsSampleEvery {
					sum.Add(col[r])
				}
			}
		}
		sw.Stop(metrics.NoDB)
	}
	return nil
}

// materializeAttr fills cols[i] for the given rows (nil = all nrows rows),
// from the cache fragment or by extracting and converting file bytes.
//
// The per-chunk convert loop: runs once per needed attribute per chunk,
// touching every selected row.
//
//nodbvet:hotpath
func (w *chunkWorker) materializeAttr(i, nrows int, rows []int32, data []byte, out *chunkOut) error {
	col := out.cols[i]
	if frag := w.frags[i]; frag != nil {
		sw := metrics.NewStopwatch(w.b)
		if rows == nil {
			for r := 0; r < nrows; r++ {
				col[r] = frag.Value(r)
			}
			w.b.CacheHitFields += int64(nrows)
		} else {
			for _, r := range rows {
				col[r] = frag.Value(int(r))
			}
			w.b.CacheHitFields += int64(len(rows))
		}
		sw.Stop(metrics.NoDB)
		return nil
	}

	// The attr's field spans the planned delimiters attr-1 and attr.
	attr := w.spec.Needed[i]
	K := len(w.delims)
	jPrev, jSelf := int(w.delimSlot[attr])-1, int(w.delimSlot[attr+1])-1

	// Extraction (Parsing): compute field spans.
	n := nrows
	if rows != nil {
		n = len(rows)
	}
	if cap(w.spanLo) < n {
		w.spanLo = make([]int32, n)
		w.spanHi = make([]int32, n)
	}
	w.spanLo = w.spanLo[:n]
	w.spanHi = w.spanHi[:n]
	sw := metrics.NewStopwatch(w.b)
	for k := 0; k < n; k++ {
		r := k
		if rows != nil {
			r = int(rows[k])
		}
		// posBuf entries hold boundary positions with the row start stored
		// as start-1, so every field spans (prev, self) exclusive.
		lo := w.posBuf[r*K+jPrev] + 1
		hi := w.posBuf[r*K+jSelf]
		if hi < lo {
			hi = lo
		}
		w.spanLo[k] = lo
		w.spanHi[k] = hi
	}
	sw.Stop(metrics.Parsing)

	// Conversion (Convert): text -> binary. A field that does not convert
	// is a malformed-input event (empty fields are legitimate NULLs, never
	// events — value.Parse accepts them): fail aborts the chunk with a
	// typed error, null serves NULL (the loader's behavior, now counted),
	// skip additionally marks the row for exclusion.
	kind := w.t.sch.Col(attr).Kind
	sw.Restart()
	for k := 0; k < n; k++ {
		r := k
		if rows != nil {
			r = int(rows[k])
		}
		v, perr := value.Parse(data[w.spanLo[k]:w.spanHi[k]], kind)
		if perr != nil {
			if w.opts.OnError == OnErrorFail {
				sw.Stop(metrics.Convert)
				return faults.Malformed(w.t.path, out.c,
					int64(out.c)*int64(w.opts.ChunkRows)+int64(r),
					w.t.sch.Col(attr).Name, fieldSnippet(data[w.spanLo[k]:w.spanHi[k]], kind))
			}
			if w.opts.OnError == OnErrorSkip {
				w.noteBadRow(r)
			}
			w.chunkErrs++
			w.b.MalformedFields++
			v = value.Null() // malformed field reads as NULL, like the loader
		}
		col[r] = v
		w.b.FieldsConverted++
	}
	sw.Stop(metrics.Convert)
	return nil
}

// fieldSnippet renders a bounded excerpt of a malformed field for error
// messages.
func fieldSnippet(b []byte, kind value.Kind) string {
	const max = 40
	s := string(b)
	if len(s) > max {
		s = s[:max] + "..."
	}
	return fmt.Sprintf("%q is not a valid %s", s, kind)
}

// runFilter evaluates the pushed-down predicate over the batch, producing
// the selection vector.
//
//nodbvet:hotpath
func (w *chunkWorker) runFilter(nrows int, out *chunkOut) error {
	sel := out.sel[:0]
	if sel == nil {
		// A nil selection reads as "all rows" in materializeAttr, so a fresh
		// output whose chunk has zero qualifying rows must still end up with
		// an empty, non-nil selection — otherwise phase-2 materialization
		// converts every projection attribute of a fully filtered-out chunk
		// (wasted work that also skewed the FieldsConverted counter between
		// sequential and parallel scans, whose fresh outputs hit this path).
		sel = make([]int32, 0, nrows)
	}
	sw := metrics.NewStopwatch(w.b)
	defer sw.Stop(metrics.Processing)
	for len(w.identSel) < nrows {
		w.identSel = append(w.identSel, int32(len(w.identSel)))
	}
	base := w.identSel[:nrows]
	// Under on_error=skip, rows already marked bad (ragged rows, malformed
	// filter attributes) are excluded before the predicate runs.
	if w.opts.OnError == OnErrorSkip && w.nbad > 0 {
		w.skipSel = w.skipSel[:0]
		for r := 0; r < nrows; r++ {
			if !w.badRows[r] {
				w.skipSel = append(w.skipSel, int32(r))
			}
		}
		base = w.skipSel
	}
	if w.filter == nil {
		out.sel = append(sel, base...)
		return nil
	}
	// Columns outside FilterAttrs hold unspecified values, which the
	// predicate does not read.
	before := w.filter.VecRows()
	sel, err := w.filter.SelectTrue(out.cols, base, sel)
	out.sel = sel
	w.b.VecRows += w.filter.VecRows() - before
	return err
}

// finishChunk records the chunk's row accounting on the worker breakdown
// and, when aggregation is pushed down, folds the chunk into partial group
// states. A chunk with malformed-input events is "dirty": its deferred
// adaptive-structure learning is discarded so warm rescans re-tokenize and
// re-detect the same events — results and error counters then agree
// between cold and warm runs under every policy. (Chunk base offsets stay:
// row boundaries are byte facts of the file, independent of policy.)
func (w *chunkWorker) finishChunk(nrows int, out *chunkOut) error {
	w.b.RowsScanned += int64(nrows)
	out.nrows = nrows
	if w.chunkErrs > 0 {
		out.errFields = w.chunkErrs
		out.dirty = true
		out.learnDel = out.learnDel[:0]
		out.learnPos = out.learnPos[:0]
		out.frags = out.frags[:0]
		out.samples = out.samples[:0]
		if w.opts.OnError == OnErrorSkip && w.nbad > 0 {
			out.dropped = int64(w.nbad)
			w.b.RowsDropped += int64(w.nbad)
		}
	}
	if w.spec.Agg != nil {
		return w.foldAgg(out)
	}
	return nil
}

// ensureBatch sizes the batch columns for nrows rows, growing the output's
// own buffers in place (fresh outputs allocate, recycled ones reuse). It is
// the single per-chunk sizing point, so the malformed-input scratch resets
// here too.
func (w *chunkWorker) ensureBatch(nrows int, out *chunkOut) {
	out.nrows = nrows
	if out.cols == nil {
		out.cols = make([][]value.Value, len(w.spec.Needed))
	}
	for i := range out.cols {
		if cap(out.cols[i]) < nrows {
			out.cols[i] = make([]value.Value, nrows)
		}
		out.cols[i] = out.cols[i][:nrows]
	}
	if cap(w.badRows) < nrows {
		w.badRows = make([]bool, nrows)
	}
	w.badRows = w.badRows[:nrows]
	for r := range w.badRows {
		w.badRows[r] = false
	}
	w.nbad = 0
	w.chunkErrs = 0
}
