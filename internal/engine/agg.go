package engine

import (
	"sort"
	"time"

	"nodb/internal/core"
	"nodb/internal/expr"
	"nodb/internal/metrics"
	"nodb/internal/value"
)

// AggSpec describes one aggregate computed by HashAgg.
type AggSpec struct {
	Name     string    // COUNT, SUM, AVG, MIN, MAX (upper case)
	Arg      expr.Node // nil for COUNT(*)
	Star     bool
	Distinct bool
}

// HashAgg groups input rows by key expressions and computes aggregates.
// Output layout: group key values first, then aggregate results. With no
// keys it emits exactly one row (aggregates over the whole input, even when
// the input is empty).
//
// When the input is a single raw scan that accepts aggregation pushdown
// (TryPushdown), HashAgg becomes a merger: the scan's chunk workers fold
// partial group states in parallel, the scan's ordered commit merges them
// deterministically, and build just finalizes the merged groups. Otherwise
// it runs the classic single-consumer loop over the input's rows. Groups
// are emitted in batches of batchRows.
type HashAgg struct {
	in     Operator
	keys   []expr.Node
	aggs   []AggSpec
	b      *metrics.Breakdown
	pushed *RawScan // non-nil once the input accepted aggregation pushdown
	built  bool
	groups []*aggGroup
	pos    int
	row    []value.Value
	out    rowBatch
}

type aggGroup struct {
	keyVals []value.Value
	states  []expr.Aggregator
	order   int // first-seen order for stable output
}

// NewHashAgg constructs the aggregation operator.
func NewHashAgg(in Operator, keys []expr.Node, aggs []AggSpec, b *metrics.Breakdown) *HashAgg {
	return &HashAgg{in: in, keys: keys, aggs: aggs, b: b,
		row: make([]value.Value, len(keys)+len(aggs))}
}

// TryPushdown attempts to push the grouping and aggregation work into the
// input scan's chunk workers (worker-side partial aggregation). It reports
// whether the input accepted; on false the classic single-consumer build
// runs unchanged. Only a bare RawScan input qualifies — a residual filter,
// join or loaded-table scan below the aggregation keeps the row loop.
func (o *HashAgg) TryPushdown() bool {
	rs, ok := o.in.(*RawScan)
	if !ok {
		return false
	}
	calls := make([]core.AggCall, len(o.aggs))
	for i, a := range o.aggs {
		calls[i] = core.AggCall{Name: a.Name, Arg: a.Arg, Star: a.Star, Distinct: a.Distinct}
	}
	if !rs.sc.PushAgg(&core.AggPushdown{Keys: o.keys, Aggs: calls}) {
		return false
	}
	o.pushed = rs
	return true
}

func (o *HashAgg) build() error {
	// Charge the aggregation work (and only it) to Processing: elapsed wall
	// time minus whatever the input charged to the shared breakdown while we
	// pulled from it. Under a parallel pushed-down scan the workers' CPU
	// time can exceed the wall clock, in which case nothing extra is charged
	// here — the fold and merge stages already charged their own Processing.
	t0 := time.Now()
	inner0 := o.b.Total()
	defer func() {
		if d := time.Since(t0) - (o.b.Total() - inner0); d > 0 {
			o.b.Add(metrics.Processing, d)
		}
	}()
	if o.pushed != nil {
		parts, err := o.pushed.sc.DrainAgg()
		if err != nil {
			return err
		}
		for _, pg := range parts {
			o.groups = append(o.groups, &aggGroup{
				keyVals: pg.KeyVals, states: pg.States, order: len(o.groups)})
		}
		return o.finishBuild()
	}
	table := make(map[string]*aggGroup)
	keyBuf := make([]value.Value, len(o.keys))
	step := func(row []value.Value) error {
		for i, k := range o.keys {
			v, err := k.Eval(row)
			if err != nil {
				return err
			}
			keyBuf[i] = v
		}
		key := rowKey(keyBuf)
		g := table[key]
		if g == nil {
			g = &aggGroup{keyVals: copyRow(keyBuf), order: len(o.groups)}
			for _, a := range o.aggs {
				st, err := expr.NewAggregator(a.Name, a.Star, a.Distinct)
				if err != nil {
					return err
				}
				g.states = append(g.states, st)
			}
			table[key] = g
			o.groups = append(o.groups, g)
		}
		for i, a := range o.aggs {
			var v value.Value
			if a.Star {
				v = value.Int(1) // any non-null; COUNT(*) counts rows
			} else {
				var err error
				v, err = a.Arg.Eval(row)
				if err != nil {
					return err
				}
			}
			g.states[i].Step(v)
		}
		return nil
	}
	if err := ForEachBatchRow(o.in, step); err != nil {
		return err
	}
	return o.finishBuild()
}

// finishBuild applies the invariants shared by both build paths: a global
// aggregate over empty input still yields one (empty-state) row, and groups
// emit in first-seen order.
func (o *HashAgg) finishBuild() error {
	if len(o.keys) == 0 && len(o.groups) == 0 {
		g := &aggGroup{}
		for _, a := range o.aggs {
			st, err := expr.NewAggregator(a.Name, a.Star, a.Distinct)
			if err != nil {
				return err
			}
			g.states = append(g.states, st)
		}
		o.groups = append(o.groups, g)
	}
	sort.Slice(o.groups, func(i, j int) bool { return o.groups[i].order < o.groups[j].order })
	return nil
}

// ensureBuilt runs the build once, on the first pull.
func (o *HashAgg) ensureBuilt() error {
	if o.built {
		return nil
	}
	if err := o.build(); err != nil {
		return err
	}
	o.built = true
	return nil
}

// groupRow renders group g as an output row in the reused o.row.
func (o *HashAgg) groupRow(g *aggGroup) []value.Value {
	copy(o.row, g.keyVals)
	for i, st := range g.states {
		o.row[len(o.keys)+i] = st.Result()
	}
	return o.row
}

// NextBatch implements Operator.
func (o *HashAgg) NextBatch() (*core.Batch, bool, error) {
	if err := o.ensureBuilt(); err != nil {
		return nil, false, err
	}
	n := min(len(o.groups)-o.pos, batchRows)
	o.out.reset(len(o.row), n)
	for _, g := range o.groups[o.pos : o.pos+n] {
		o.out.add(o.groupRow(g))
	}
	o.pos += n
	return o.out.emit()
}

// Next is the row-at-a-time spelling of NextBatch, kept only because
// cmd/bench (frozen between benchmark PRs) drains a HashAgg row by row; the
// next benchmark PR deletes the forwarder.
func (o *HashAgg) Next() ([]value.Value, bool, error) {
	if err := o.ensureBuilt(); err != nil || o.pos >= len(o.groups) {
		return nil, false, err
	}
	o.pos++
	return o.groupRow(o.groups[o.pos-1]), true, nil
}

// Close implements Operator.
func (o *HashAgg) Close() error { return o.in.Close() }

// SortKey is one ORDER BY key for the Sort operator.
type SortKey struct {
	Expr expr.Node
	Desc bool
}

// Sort materializes the input and emits it ordered by the keys.
type Sort struct {
	in     Operator
	keys   []SortKey
	b      *metrics.Breakdown
	built  bool
	sorted ValuesOp
}

// NewSort constructs the sort operator.
func NewSort(in Operator, keys []SortKey, b *metrics.Breakdown) *Sort {
	return &Sort{in: in, keys: keys, b: b}
}

func (o *Sort) build() error {
	type sortable struct {
		row  []value.Value
		keys []value.Value
	}
	var items []sortable
	err := ForEachBatchRow(o.in, func(row []value.Value) error {
		cp := copyRow(row)
		kv := make([]value.Value, len(o.keys))
		for i, k := range o.keys {
			v, err := k.Expr.Eval(cp)
			if err != nil {
				return err
			}
			kv[i] = v
		}
		items = append(items, sortable{row: cp, keys: kv})
		return nil
	})
	if err != nil {
		return err
	}
	sw := metrics.NewStopwatch(o.b)
	sort.SliceStable(items, func(i, j int) bool {
		for k := range o.keys {
			c := value.Compare(items[i].keys[k], items[j].keys[k])
			if c == 0 {
				continue
			}
			if o.keys[k].Desc {
				return c > 0
			}
			return c < 0
		}
		return false
	})
	sw.Stop(metrics.Processing)
	o.sorted.Rows = make([][]value.Value, len(items))
	for i, it := range items {
		o.sorted.Rows[i] = it.row
	}
	return nil
}

// NextBatch implements Operator.
func (o *Sort) NextBatch() (*core.Batch, bool, error) {
	if !o.built {
		if err := o.build(); err != nil {
			return nil, false, err
		}
		o.built = true
	}
	return o.sorted.NextBatch()
}

// Close implements Operator.
func (o *Sort) Close() error { return o.in.Close() }
