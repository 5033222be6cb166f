package core

import (
	"fmt"
	"math/bits"
	"slices"
	"strings"

	"nodb/internal/expr"
	"nodb/internal/metrics"
	"nodb/internal/value"
)

// Worker-side partial aggregation.
//
// A GROUP BY over a single raw scan used to funnel every row through one
// hash-aggregation consumer, so the chunk pipeline parallelized tokenize/
// convert/filter and then serialized all grouping work in one goroutine.
// With an AggPushdown installed, each chunk worker instead folds its chunk
// into a private hash table of partial aggregate states, chunkOut carries
// those partial groups in place of a row batch, and Scan.commit merges them
// — in strict chunk order — into the scan-level result. Because the chunk
// decomposition, the per-chunk fold order and the commit order are all
// deterministic, the merged result is byte-identical at any
// Options.Parallelism (including floating-point aggregates, which are
// sensitive to summation order).

// AggCall describes one aggregate folded by the scan workers. It mirrors
// the engine's aggregation spec: Name is COUNT/SUM/AVG/MIN/MAX (upper
// case), Arg is the compiled argument over the scan's Needed layout (nil
// for COUNT(*)), and Distinct wraps the state in duplicate elimination.
type AggCall struct {
	Name     string
	Arg      expr.Node
	Star     bool
	Distinct bool
}

// AggPushdown asks a scan to fold each chunk into partial aggregation
// states instead of serving row batches. Keys are the group-key
// expressions over the scan's Needed layout; with no keys the whole input
// is one group (global aggregates). Keys and Args run concurrently from
// several workers and must be safe for concurrent calls (the planner's
// compiled expressions are).
type AggPushdown struct {
	Keys []expr.Node
	Aggs []AggCall
}

// PartialGroup is one group's partial (or, after DrainAgg, final)
// aggregation state. Key is the canonical grouping key
// (value.AppendGroupKey over KeyVals), so partials from different workers
// merge exactly when the sequential plan would have put their rows in the
// same group.
type PartialGroup struct {
	Key     string
	KeyVals []value.Value
	States  []expr.Aggregator
}

// newAggStates builds one fresh mergeable state per aggregate call.
func newAggStates(aggs []AggCall) ([]expr.Aggregator, error) {
	states := make([]expr.Aggregator, len(aggs))
	for i, a := range aggs {
		// Unknown-aggregate errors are plan-time validation of the query
		// text, not scan faults: no on_error policy should ever classify
		// them, so the untyped error is the honest shape.
		//nodbvet:errtaxonomy-ok plan-time aggregate validation, not a scan fault; surfaced as a query-compile error
		st, err := expr.NewMergeableAggregator(a.Name, a.Star, a.Distinct)
		if err != nil {
			return nil, err
		}
		states[i] = st
	}
	return states, nil
}

// PushAgg installs worker-side partial aggregation on a scan that has not
// been driven yet (its stream has not started, so every chunk worker is
// built with the pushdown in its spec). It reports false when the scan cannot
// honor the pushdown — it already produced data, or it is a zero-attribute
// COUNT(*) scan whose
// metadata fast path answers without touching rows — in which case the
// caller must aggregate the scan's rows itself.
func (s *Scan) PushAgg(spec *AggPushdown) bool {
	if spec == nil || s.st.started || s.closed {
		return false
	}
	if len(s.spec.Needed) == 0 && s.spec.Filter == nil {
		return false
	}
	s.spec.Agg = spec
	s.aggDict = newGroupDict(len(spec.Keys))
	return true
}

// DrainAgg drives a pushed-down scan to EOF and returns the merged groups
// in first-seen row order — the exact groups, group order and states the
// sequential single-consumer aggregation would have produced. Only valid
// after a successful PushAgg.
func (s *Scan) DrainAgg() ([]*PartialGroup, error) {
	if s.spec.Agg == nil {
		//nodbvet:errtaxonomy-ok API misuse by the caller, not a scan-path fault
		return nil, fmt.Errorf("core: DrainAgg without PushAgg")
	}
	if err := s.usable(); err != nil {
		return nil, err
	}
	for !s.finished {
		if err := s.advance(); err != nil {
			return nil, err
		}
	}
	return s.aggGroups, nil
}

// mergePartials folds one committed chunk's partial groups into the
// scan-level groups. Called from commit, so chunks merge in file order and
// group discovery order matches the sequential plan. A partial's states
// recycle with its chunkOut, so a key the scan sees for the first time gets
// states of its own and the partial merges into them, never adopted. Merge
// time is grouping work above the scan proper and is charged to Processing.
//
//nodbvet:hotpath
func (s *Scan) mergePartials(o *chunkOut) error {
	if len(o.groups) == 0 {
		return nil
	}
	sw := metrics.NewStopwatch(s.b)
	defer sw.Stop(metrics.Processing)
	for _, pg := range o.groups {
		id := s.aggDict.find(pg.KeyVals, pg.Key)
		if id < 0 {
			//nodbvet:hotalloc-ok first sight of a key in this scan: one scan-level group, kept to the end
			states, err := newAggStates(s.spec.Agg.Aggs)
			if err != nil {
				return err
			}
			id = s.aggDict.add(pg.KeyVals, pg.Key)
			s.aggGroups = append(s.aggGroups, &PartialGroup{Key: s.aggDict.keys[id], KeyVals: s.aggDict.vals[id], States: states})
		}
		g := s.aggGroups[id]
		for i := range g.States {
			g.States[i].Merge(pg.States[i])
		}
	}
	return nil
}

// foldAgg folds one processed chunk's qualifying rows into per-chunk
// partial groups on the chunkOut. It runs on the worker, after the filter
// and selective tuple formation, so every needed column is materialized at
// the selected rows; the grouping time lands on the worker's private
// breakdown, keeping the paper-style cost accounting honest under
// parallelism.
//
// A row's key resolves to its id in the worker's dictionary, and the id to
// the chunk's partial group through aggSlot. Partial groups, and their
// states, are the recycled output's own, so a warm fold allocates only when
// the worker meets a key for the first time.
//
//nodbvet:hotpath
func (w *chunkWorker) foldAgg(out *chunkOut) error {
	spec := w.spec.Agg
	sw := metrics.NewStopwatch(w.b)
	defer sw.Stop(metrics.Processing)
	if w.aggDict == nil {
		w.aggDict = newGroupDict(len(spec.Keys))
		w.aggKeyVals = make([]value.Value, len(spec.Keys))
	}
	// The previous chunk's slots, also when its fold stopped on an error.
	for _, id := range w.aggTouched {
		w.aggSlot[id] = -1
	}
	w.aggTouched = w.aggTouched[:0]
	for _, r := range out.sel {
		for i := range out.cols {
			w.rowBuf[i] = out.cols[i][r]
		}
		for i, k := range spec.Keys {
			v, err := k.Eval(w.rowBuf)
			if err != nil {
				return err
			}
			w.aggKeyVals[i] = v
		}
		id := w.aggDict.find(w.aggKeyVals, "")
		if id < 0 {
			//nodbvet:hotalloc-ok first sight of a key in this worker's scan: the dictionary keeps one copy of it
			id = w.aggDict.add(w.aggKeyVals, "")
			w.aggSlot = append(w.aggSlot, -1)
		}
		slot := w.aggSlot[id]
		if slot < 0 {
			g, err := out.nextGroup(spec.Aggs)
			if err != nil {
				return err
			}
			g.Key, g.KeyVals = w.aggDict.keys[id], w.aggDict.vals[id]
			slot = int32(len(out.groups) - 1)
			w.aggSlot[id] = slot
			w.aggTouched = append(w.aggTouched, id)
		}
		states := out.groups[slot].States
		for i, a := range spec.Aggs {
			var v value.Value
			if a.Star {
				v = value.Int(1) // any non-null; COUNT(*) counts rows
			} else {
				var err error
				v, err = a.Arg.Eval(w.rowBuf)
				if err != nil {
					return err
				}
			}
			states[i].Step(v)
		}
	}
	w.b.PartialGroups += int64(len(out.groups))
	return nil
}

// nextGroup appends a partial group to the output and returns it with empty
// states: a recycled output's group when it has one left, else a new one.
func (o *chunkOut) nextGroup(aggs []AggCall) (*PartialGroup, error) {
	n := len(o.groups)
	if n < cap(o.groups) {
		o.groups = o.groups[:n+1]
		if g := o.groups[n]; g != nil {
			for _, st := range g.States {
				st.Reset()
			}
			return g, nil
		}
	} else {
		o.groups = append(o.groups, nil)
	}
	states, err := newAggStates(aggs)
	if err != nil {
		o.groups = o.groups[:n]
		return nil, err
	}
	g := &PartialGroup{States: states}
	o.groups[n] = g
	return g, nil
}

// groupDict gives every distinct group key a dense id, in first-seen order,
// and owns each key's canonical encoding and values. A single INT or DATE
// key looks up in an int64 table (and a NULL key in its own slot) without
// encoding; any other key looks up by its encoding, which find builds in a
// reused buffer, so a lookup allocates nothing. The int table holds the kind
// of the first INT or DATE key it sees; keys of the other kind take the
// encoded path, so Int(2) and Date(2) stay apart.
type groupDict struct {
	nkeys   int
	intKind value.Kind // KindNull until the int table holds a kind
	ints    intTable
	null    int32 // id of the single NULL key, -1 until seen
	enc     map[string]int32
	buf     []byte

	keys []string        // id -> canonical key (value.AppendGroupKey)
	vals [][]value.Value // id -> key values
}

func newGroupDict(nkeys int) *groupDict {
	return &groupDict{nkeys: nkeys, null: -1, enc: make(map[string]int32)}
}

// intKey reports whether the single key v takes the int table, claiming the
// table for v's kind when it is still free.
func (d *groupDict) intKey(v value.Value) bool {
	if v.K != value.KindInt && v.K != value.KindDate {
		return false
	}
	if d.intKind == value.KindNull {
		d.intKind = v.K
	}
	return v.K == d.intKind
}

// find returns the id of the key vals, or -1 when it has none yet. key is
// vals' canonical encoding when the caller has it, "" to encode here.
func (d *groupDict) find(vals []value.Value, key string) int32 {
	switch {
	case d.nkeys == 0:
		if len(d.keys) == 0 {
			return -1
		}
		return 0
	case d.nkeys == 1 && vals[0].K == value.KindNull:
		return d.null
	case d.nkeys == 1 && d.intKey(vals[0]):
		return d.ints.get(vals[0].I)
	}
	var id int32
	var ok bool
	if key != "" {
		id, ok = d.enc[key]
	} else {
		d.buf = value.AppendGroupKey(d.buf[:0], vals)
		id, ok = d.enc[string(d.buf)]
	}
	if !ok {
		return -1
	}
	return id
}

// add gives the key vals, which find did not know, the next id. It keeps a
// copy of vals, text included (a TEXT value served from the cache is a
// substring of its fragment's arena, which the copy would keep alive), and
// of key ("" to encode here).
func (d *groupDict) add(vals []value.Value, key string) int32 {
	id := int32(len(d.keys))
	if key == "" && d.nkeys > 0 {
		d.buf = value.AppendGroupKey(d.buf[:0], vals)
		key = string(d.buf)
	}
	switch {
	case d.nkeys == 0:
	case d.nkeys == 1 && vals[0].K == value.KindNull:
		d.null = id
	case d.nkeys == 1 && d.intKey(vals[0]):
		d.ints.put(vals[0].I, id)
	default:
		d.enc[key] = id
	}
	kv := slices.Clone(vals)
	for i := range kv {
		kv[i].S = strings.Clone(kv[i].S)
	}
	d.keys = append(d.keys, key)
	d.vals = append(d.vals, kv)
	return id
}

// intTable maps int64 keys to ids: open addressing with linear probing over
// a power-of-two slot array kept at most half full, probed from the
// key's Fibonacci hash.
type intTable struct {
	slots []intSlot
	shift uint // 64 - log2(len(slots))
	n     int
}

type intSlot struct {
	key int64
	id  int32 // id+1; 0 marks an empty slot
}

// get returns k's id, or -1.
func (t *intTable) get(k int64) int32 {
	if t.n == 0 {
		return -1
	}
	mask := uint64(len(t.slots) - 1)
	for i := t.home(k); ; i = (i + 1) & mask {
		s := &t.slots[i]
		if s.id == 0 {
			return -1
		}
		if s.key == k {
			return s.id - 1
		}
	}
}

// put adds k, which the table does not hold, with the given id.
func (t *intTable) put(k int64, id int32) {
	if 2*(t.n+1) > len(t.slots) {
		old := t.slots
		size := max(2*len(old), 64)
		t.slots, t.shift, t.n = make([]intSlot, size), uint(64-bits.TrailingZeros(uint(size))), 0
		for _, s := range old {
			if s.id != 0 {
				t.put(s.key, s.id-1)
			}
		}
	}
	mask := uint64(len(t.slots) - 1)
	i := t.home(k)
	for t.slots[i].id != 0 {
		i = (i + 1) & mask
	}
	t.slots[i] = intSlot{key: k, id: id + 1}
	t.n++
}

func (t *intTable) home(k int64) uint64 { return (uint64(k) * 0x9E3779B97F4A7C15) >> t.shift }
