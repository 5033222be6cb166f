package expr

import (
	"fmt"

	"nodb/internal/value"
)

// IsAggregate reports whether name (upper-case) is an aggregate function.
func IsAggregate(name string) bool {
	switch name {
	case "COUNT", "SUM", "AVG", "MIN", "MAX":
		return true
	}
	return false
}

// Aggregator accumulates values for one aggregate over one group.
type Aggregator interface {
	// Step feeds one input value. NULLs are ignored except by COUNT(*).
	Step(v value.Value)
	// Merge folds another aggregator's accumulated state into the receiver.
	// The argument must have the same (name, star, distinct) signature and,
	// for DISTINCT states, come from NewMergeableAggregator; it is consumed
	// and must not be used afterwards until it is Reset. The receiver keeps
	// no part of it, so the argument can be reset and reused. Merging
	// partial states chunk by chunk, in chunk order, yields exactly the
	// state of stepping the concatenated input — the contract the parallel
	// scan's worker-side partial aggregation relies on.
	Merge(other Aggregator)
	// Result finalizes the aggregate for the group.
	Result() value.Value
	// Reset empties the state for reuse by another group, keeping its
	// signature and any buffers it grew.
	Reset()
}

// NewAggregator builds the state machine for an aggregate call. star marks
// COUNT(*); distinct wraps the aggregator to ignore duplicate inputs.
// DISTINCT states from this constructor do not support being the Merge
// argument (they skip recording the replay order to save memory in
// single-consumer plans); build partial states that will be merged with
// NewMergeableAggregator.
func NewAggregator(name string, star, distinct bool) (Aggregator, error) {
	return newAggregator(name, star, distinct, false)
}

// NewMergeableAggregator is NewAggregator for partial-aggregation states:
// DISTINCT states additionally track their first-seen value order so Merge
// can replay them deterministically into another state.
func NewMergeableAggregator(name string, star, distinct bool) (Aggregator, error) {
	return newAggregator(name, star, distinct, true)
}

func newAggregator(name string, star, distinct, mergeable bool) (Aggregator, error) {
	var a Aggregator
	switch name {
	case "COUNT":
		a = &countAgg{star: star}
	case "SUM":
		a = &sumAgg{}
	case "AVG":
		a = &avgAgg{}
	case "MIN":
		a = &minMaxAgg{min: true}
	case "MAX":
		a = &minMaxAgg{}
	default:
		return nil, fmt.Errorf("expr: unknown aggregate %s", name)
	}
	if distinct {
		if star {
			return nil, fmt.Errorf("expr: COUNT(DISTINCT *) is not valid")
		}
		a = &distinctAgg{inner: a, seen: make(map[value.DistinctKey]bool), track: mergeable}
	}
	return a, nil
}

// AggKind returns the result kind of an aggregate given its input kind.
func AggKind(name string, argKind value.Kind) value.Kind {
	switch name {
	case "COUNT":
		return value.KindInt
	case "AVG":
		return value.KindFloat
	case "SUM":
		if argKind == value.KindFloat {
			return value.KindFloat
		}
		return value.KindInt
	default: // MIN, MAX preserve input kind
		return argKind
	}
}

type countAgg struct {
	star bool
	n    int64
}

func (a *countAgg) Step(v value.Value) {
	if a.star || !v.IsNull() {
		a.n++
	}
}
func (a *countAgg) Merge(o Aggregator)  { a.n += o.(*countAgg).n }
func (a *countAgg) Result() value.Value { return value.Int(a.n) }
func (a *countAgg) Reset()              { a.n = 0 }

type sumAgg struct {
	any   bool
	isFlt bool
	i     int64
	f     float64
}

func (a *sumAgg) Step(v value.Value) {
	if v.IsNull() {
		return
	}
	a.any = true
	if v.K == value.KindFloat || a.isFlt {
		if !a.isFlt {
			a.isFlt = true
			a.f = float64(a.i)
		}
		a.f += v.Num()
		return
	}
	a.i += v.I
}

func (a *sumAgg) Merge(o Aggregator) {
	b := o.(*sumAgg)
	if !b.any {
		return
	}
	a.any = true
	if a.isFlt || b.isFlt {
		if !a.isFlt {
			a.isFlt = true
			a.f = float64(a.i)
		}
		if b.isFlt {
			a.f += b.f
		} else {
			a.f += float64(b.i)
		}
		return
	}
	a.i += b.i
}

func (a *sumAgg) Result() value.Value {
	if !a.any {
		return value.Null()
	}
	if a.isFlt {
		return value.Float(a.f)
	}
	return value.Int(a.i)
}

func (a *sumAgg) Reset() { *a = sumAgg{} }

type avgAgg struct {
	n   int64
	sum float64
}

func (a *avgAgg) Step(v value.Value) {
	if v.IsNull() {
		return
	}
	a.n++
	a.sum += v.Num()
}

func (a *avgAgg) Merge(o Aggregator) {
	b := o.(*avgAgg)
	a.n += b.n
	a.sum += b.sum
}

func (a *avgAgg) Result() value.Value {
	if a.n == 0 {
		return value.Null()
	}
	return value.Float(a.sum / float64(a.n))
}

func (a *avgAgg) Reset() { *a = avgAgg{} }

type minMaxAgg struct {
	min  bool
	any  bool
	best value.Value
}

func (a *minMaxAgg) Step(v value.Value) {
	if v.IsNull() {
		return
	}
	if !a.any {
		a.any = true
		a.best = v
		return
	}
	c := value.Compare(v, a.best)
	if (a.min && c < 0) || (!a.min && c > 0) {
		a.best = v
	}
}

func (a *minMaxAgg) Merge(o Aggregator) {
	b := o.(*minMaxAgg)
	if b.any {
		a.Step(b.best)
	}
}

func (a *minMaxAgg) Result() value.Value {
	if !a.any {
		return value.Null()
	}
	return a.best
}

func (a *minMaxAgg) Reset() { a.any, a.best = false, value.Value{} }

// distinctAgg dedupes its input on value.Distinct, the identity the
// statistics' distinct count shares.
type distinctAgg struct {
	inner Aggregator
	seen  map[value.DistinctKey]bool
	track bool // mergeable state: record order for Merge replay
	// order holds the first-seen representative of every distinct value, in
	// arrival order, so Merge replays the other side's values
	// deterministically (map iteration order would make float sums vary).
	// Only tracked for mergeable states — single-consumer plans never merge
	// and skip the per-value retention.
	order []value.Value
}

func (a *distinctAgg) Step(v value.Value) {
	if v.IsNull() {
		return
	}
	key := v.Distinct()
	if a.seen[key] {
		return
	}
	a.seen[key] = true
	if a.track {
		a.order = append(a.order, v)
	}
	a.inner.Step(v)
}

// Merge unions the seen sets: values the receiver has not seen yet are
// replayed into it in the other side's first-seen order. The argument must
// be a mergeable state (NewMergeableAggregator) or non-empty merges are
// rejected at construction time by the panic below.
func (a *distinctAgg) Merge(o Aggregator) {
	b := o.(*distinctAgg)
	if !b.track && len(b.seen) > 0 {
		panic("expr: Merge argument is a non-mergeable DISTINCT state")
	}
	for _, v := range b.order {
		a.Step(v)
	}
}

func (a *distinctAgg) Result() value.Value { return a.inner.Result() }

func (a *distinctAgg) Reset() {
	clear(a.seen)
	clear(a.order) // drop the replayed values' text
	a.order = a.order[:0]
	a.inner.Reset()
}
