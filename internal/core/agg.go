package core

import (
	"fmt"

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
	s.aggTable = make(map[string]*PartialGroup)
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
// scan-level table. Called from commit, so chunks merge in file order and
// group discovery order matches the sequential plan. Merge time is grouping
// work above the scan proper and is charged to Processing.
func (s *Scan) mergePartials(o *chunkOut) {
	if len(o.groups) == 0 {
		return
	}
	sw := metrics.NewStopwatch(s.b)
	for _, pg := range o.groups {
		if g, ok := s.aggTable[pg.Key]; ok {
			for i := range g.States {
				g.States[i].Merge(pg.States[i])
			}
		} else {
			s.aggTable[pg.Key] = pg
			s.aggGroups = append(s.aggGroups, pg)
		}
	}
	sw.Stop(metrics.Processing)
}

// foldAgg folds one processed chunk's qualifying rows into per-chunk
// partial groups on the chunkOut. It runs on the worker, after the filter
// and selective tuple formation, so every needed column is materialized at
// the selected rows; the grouping time lands on the worker's private
// breakdown, keeping the paper-style cost accounting honest under
// parallelism.
func (w *chunkWorker) foldAgg(out *chunkOut) error {
	spec := w.spec.Agg
	sw := metrics.NewStopwatch(w.b)
	defer sw.Stop(metrics.Processing)
	if w.aggMap == nil {
		w.aggMap = make(map[string]*PartialGroup)
		w.aggKeyVals = make([]value.Value, len(spec.Keys))
	} else {
		clear(w.aggMap)
	}
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
		w.aggKeyBuf = value.AppendGroupKey(w.aggKeyBuf[:0], w.aggKeyVals)
		g := w.aggMap[string(w.aggKeyBuf)]
		if g == nil {
			states, err := newAggStates(spec.Aggs)
			if err != nil {
				return err
			}
			keyVals := make([]value.Value, len(w.aggKeyVals))
			copy(keyVals, w.aggKeyVals)
			g = &PartialGroup{Key: string(w.aggKeyBuf), KeyVals: keyVals, States: states}
			w.aggMap[g.Key] = g
			out.groups = append(out.groups, g)
		}
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
			g.States[i].Step(v)
		}
	}
	w.b.PartialGroups += int64(len(out.groups))
	return nil
}
