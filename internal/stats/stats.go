// Package stats implements the paper's on-the-fly statistics: per-attribute
// summaries built during in-situ scans, only for attributes that queries
// actually touch, and incrementally augmented as the workload reaches more
// of the file. The optimizer uses them for selectivity estimation exactly as
// a conventional DBMS would use post-load ANALYZE output.
//
// The collector keeps, per touched attribute: row/null counts, min/max, a
// reservoir sample, and a bounded distinct-value set (falling back to a
// sample-based NDV estimate on overflow). Estimation evaluates predicates
// directly against the reservoir sample, plus an equi-depth histogram for
// the monitoring panel.
package stats

import (
	"fmt"
	"sort"
	"sync"

	"nodb/internal/value"
)

// DefaultSampleCap is the reservoir size per attribute when unspecified.
const DefaultSampleCap = 1024

// maxDistinctTracked bounds the exact distinct set per attribute.
const maxDistinctTracked = 4096

// Collector accumulates statistics for one table. Safe for concurrent use.
type Collector struct {
	mu        sync.Mutex
	attrs     []*attrStats
	sampleCap int
	rowCount  int64   // authoritative table row count once a full scan ran
	scratch   Summary // ObserveBatch's summary, reused under mu
}

type attrStats struct {
	kind     value.Kind
	count    int64 // non-null values observed
	nulls    int64
	min, max value.Value

	sample []value.Value
	seen   int64  // total values offered to the reservoir
	rng    uint64 // xorshift state for reservoir replacement

	distinct     distinctSet
	distOverflow bool
}

// distinctSet is a set of distinct keys held in maps the runtime hashes
// fast: integral keys and float bits as int64, text as string.
type distinctSet struct {
	ints, flts map[int64]struct{}
	txts       map[string]struct{}
}

// add inserts k and reports whether it was new.
func (d *distinctSet) add(k value.DistinctKey) bool {
	switch k.K {
	case value.KindText:
		return insert(&d.txts, k.S)
	case value.KindFloat:
		return insert(&d.flts, k.I)
	default:
		return insert(&d.ints, k.I)
	}
}

func insert[K comparable](m *map[K]struct{}, k K) bool {
	if *m == nil {
		*m = make(map[K]struct{})
	}
	n := len(*m)
	(*m)[k] = struct{}{}
	return len(*m) > n
}

func (d *distinctSet) len() int { return len(d.ints) + len(d.flts) + len(d.txts) }

// Summary is one batch of observations of one attribute — a chunk's
// sampled values — reduced where it is produced, off the collector's lock:
// the null count, the non-null values in a slab of their kind (which is
// also where their distinct keys come from: the int64, the float's bits or
// the text, never a formatted string), and the indexes of the minimum and
// maximum. Merge folds it into a collector with exactly the effect of
// observing its values one by one. The zero value is not ready; call Reset
// first. A Summary keeps its buffers across Reset.
type Summary struct {
	kind  value.Kind
	nulls int64
	n     int // non-null values

	// The non-null values, in order: in the slab of kind (ints holds int,
	// date and bool values), or boxed in mixed once a value of another kind
	// arrived.
	ints  []int64
	flts  []float64
	txts  []string
	mixed []value.Value

	// min and max index the first minimum and maximum values. replay marks
	// batches whose extremes cannot be folded as a pair — a NaN or mixed
	// kinds, where Compare is not a total order — so Merge re-runs the
	// comparisons value by value.
	min, max int
	replay   bool
}

// Reset empties the summary for a batch of values of the given kind.
func (s *Summary) Reset(kind value.Kind) {
	s.kind, s.nulls, s.n = kind, 0, 0
	s.ints, s.flts, s.txts, s.mixed = s.ints[:0], s.flts[:0], s.txts[:0], nil
	s.min, s.max, s.replay = 0, 0, false
}

// Add observes one value.
//
// Runs once per sampled value of every attribute a cold scan converts.
//
//nodbvet:hotpath
func (s *Summary) Add(v value.Value) {
	if v.K == value.KindNull {
		s.nulls++
		return
	}
	if v.K != s.kind || s.mixed != nil {
		s.addMixed(v)
		return
	}
	i := s.n
	s.n++
	switch s.kind {
	case value.KindFloat:
		s.flts = append(s.flts, v.F)
		switch {
		case v.F != v.F:
			s.replay = true
		case v.F < s.flts[s.min]:
			s.min = i
		case v.F > s.flts[s.max]:
			s.max = i
		}
	case value.KindText:
		s.txts = append(s.txts, v.S)
		if v.S < s.txts[s.min] {
			s.min = i
		} else if v.S > s.txts[s.max] {
			s.max = i
		}
	default:
		s.ints = append(s.ints, v.I)
		if v.I < s.ints[s.min] {
			s.min = i
		} else if v.I > s.ints[s.max] {
			s.max = i
		}
	}
}

// addMixed observes a value whose kind differs from the summary's (or any
// value once one did): values are boxed from then on, and the extremes are
// replayed at merge.
func (s *Summary) addMixed(v value.Value) {
	if s.mixed == nil {
		boxed := make([]value.Value, 0, s.n+1)
		for i := 0; i < s.n; i++ {
			boxed = append(boxed, s.at(i))
		}
		s.mixed, s.replay = boxed, true
	}
	s.mixed = append(s.mixed, v)
	s.n++
}

// at returns the i-th non-null value.
func (s *Summary) at(i int) value.Value {
	switch {
	case s.mixed != nil:
		return s.mixed[i]
	case s.kind == value.KindFloat:
		return value.Value{K: s.kind, F: s.flts[i]}
	case s.kind == value.KindText:
		return value.Value{K: s.kind, S: s.txts[i]}
	default:
		return value.Value{K: s.kind, I: s.ints[i]}
	}
}

// NewCollector creates a collector for a table with nattrs attributes.
func NewCollector(nattrs, sampleCap int) *Collector {
	if sampleCap <= 0 {
		sampleCap = DefaultSampleCap
	}
	return &Collector{attrs: make([]*attrStats, nattrs), sampleCap: sampleCap}
}

// Clear drops all statistics (file rewritten).
func (c *Collector) Clear() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := range c.attrs {
		c.attrs[i] = nil
	}
	c.rowCount = 0
}

// SetRowCount records the table's row count (learned when a scan reaches
// EOF for the first time).
func (c *Collector) SetRowCount(n int64) {
	c.mu.Lock()
	c.rowCount = n
	c.mu.Unlock()
}

// RowCount returns the recorded row count (0 when unknown).
func (c *Collector) RowCount() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.rowCount
}

// ObserveBatch feeds a batch of sampled values for one attribute. Values
// are the converted binary values the scan produced anyway; the paper's
// point is that statistics creation rides on query execution. It
// summarises the batch and merges the summary — the one observation path.
func (c *Collector) ObserveBatch(attr int, kind value.Kind, vals []value.Value) {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := &c.scratch
	s.Reset(kind)
	for _, v := range vals {
		s.Add(v)
	}
	c.mergeLocked(attr, s)
}

// Merge folds a summary into the attribute's statistics with exactly the
// effect ObserveBatch has on the summary's values: counts add, the extremes
// fold, and the reservoir and distinct-set steps run in the values' order.
// Summaries merged in chunk order therefore leave the collector identical
// to observing the chunks' values one by one.
func (c *Collector) Merge(attr int, s *Summary) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.mergeLocked(attr, s)
}

func (c *Collector) mergeLocked(attr int, s *Summary) {
	if attr < 0 || attr >= len(c.attrs) {
		return
	}
	a := c.attrs[attr]
	if a == nil {
		a = &attrStats{
			kind: s.kind,
			rng:  uint64(attr)*2654435761 + 1,
		}
		c.attrs[attr] = a
	}
	a.nulls += s.nulls
	if s.n == 0 {
		return
	}
	a.count += int64(s.n)

	// Extremes: a batch of one kind without NaN folds as its (first)
	// minimum and maximum into extremes of that kind, which is what the
	// value-by-value comparisons would pick; anything else replays them.
	if s.replay || (!a.min.IsNull() && (a.min.K != s.kind || a.max.K != s.kind)) {
		for i := 0; i < s.n; i++ {
			a.foldMin(s.at(i))
			a.foldMax(s.at(i))
		}
	} else {
		a.foldMin(s.at(s.min))
		a.foldMax(s.at(s.max))
	}

	// Reservoir sampling (algorithm R), one step per value.
	cap := c.sampleCap
	for i := 0; i < s.n; i++ {
		a.seen++
		if len(a.sample) < cap {
			a.sample = append(a.sample, s.at(i))
			continue
		}
		a.rng ^= a.rng << 13
		a.rng ^= a.rng >> 7
		a.rng ^= a.rng << 17
		if j := a.rng % uint64(a.seen); j < uint64(cap) {
			a.sample[j] = s.at(i)
		}
	}

	// The distinct set, until it outgrows its bound.
	if a.distOverflow {
		return
	}
	for i := 0; i < s.n; i++ {
		if a.distinct.add(s.at(i).Distinct()) && a.distinct.len() > maxDistinctTracked {
			a.distOverflow, a.distinct = true, distinctSet{}
			return
		}
	}
}

func (a *attrStats) foldMin(v value.Value) {
	if a.min.IsNull() || value.Compare(v, a.min) < 0 {
		a.min = v
	}
}

func (a *attrStats) foldMax(v value.Value) {
	if a.max.IsNull() || value.Compare(v, a.max) > 0 {
		a.max = v
	}
}

// Has reports whether any statistics exist for the attribute.
func (c *Collector) Has(attr int) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return attr >= 0 && attr < len(c.attrs) && c.attrs[attr] != nil
}

// AttrSnapshot is an immutable summary of one attribute's statistics.
type AttrSnapshot struct {
	Attr       int
	Kind       value.Kind
	Count      int64 // non-null observations
	Nulls      int64
	Min, Max   value.Value
	NDV        int64 // distinct-value estimate
	SampleSize int
}

// Snapshot returns the summary for one attribute, ok=false if untouched.
func (c *Collector) Snapshot(attr int) (AttrSnapshot, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if attr < 0 || attr >= len(c.attrs) || c.attrs[attr] == nil {
		return AttrSnapshot{}, false
	}
	a := c.attrs[attr]
	return AttrSnapshot{
		Attr:       attr,
		Kind:       a.kind,
		Count:      a.count,
		Nulls:      a.nulls,
		Min:        a.min,
		Max:        a.max,
		NDV:        a.ndvLocked(),
		SampleSize: len(a.sample),
	}, true
}

func (a *attrStats) ndvLocked() int64 {
	if !a.distOverflow {
		return int64(a.distinct.len())
	}
	// Overflowed the exact set: estimate from the sample's distinct ratio.
	var seen distinctSet
	for _, v := range a.sample {
		seen.add(v.Distinct())
	}
	if len(a.sample) == 0 {
		return 0
	}
	ratio := float64(seen.len()) / float64(len(a.sample))
	est := int64(ratio * float64(a.count))
	if est < int64(seen.len()) {
		est = int64(seen.len())
	}
	return est
}

// Touched returns the attribute indexes that have statistics, in order. The
// paper's adaptivity claim: this set grows as queries reach new attributes.
func (c *Collector) Touched() []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []int
	for i, a := range c.attrs {
		if a != nil {
			out = append(out, i)
		}
	}
	return out
}

// Selectivity estimates the fraction of rows whose attribute satisfies
// `op operand` (op: = != < <= > >=), by evaluating the predicate over the
// reservoir sample. Falls back to textbook constants when no statistics
// exist (as an optimizer must before the first query touches the column).
func (c *Collector) Selectivity(attr int, op string, operand value.Value) float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if attr < 0 || attr >= len(c.attrs) || c.attrs[attr] == nil || len(c.attrs[attr].sample) == 0 {
		return defaultSelectivity(op)
	}
	a := c.attrs[attr]
	match := 0
	for _, v := range a.sample {
		cmp := value.Compare(v, operand)
		ok := false
		switch op {
		case "=":
			ok = cmp == 0
		case "!=":
			ok = cmp != 0
		case "<":
			ok = cmp < 0
		case "<=":
			ok = cmp <= 0
		case ">":
			ok = cmp > 0
		case ">=":
			ok = cmp >= 0
		default:
			return defaultSelectivity(op)
		}
		if ok {
			match++
		}
	}
	sel := float64(match) / float64(len(a.sample))
	// Account for nulls (which never satisfy a comparison).
	total := a.count + a.nulls
	if total > 0 {
		sel *= float64(a.count) / float64(total)
	}
	return sel
}

func defaultSelectivity(op string) float64 {
	switch op {
	case "=":
		return 0.05
	case "!=":
		return 0.95
	default:
		return 1.0 / 3
	}
}

// Histogram is an equi-depth histogram over the sample, for the monitoring
// panel and EXPLAIN-style output.
type Histogram struct {
	Attr    int
	Bounds  []value.Value // len = buckets+1; Bounds[i], Bounds[i+1] delimit bucket i
	Depth   int           // sample values per bucket (approximately)
	Samples int
}

// Histogram builds an equi-depth histogram with up to nbuckets buckets.
func (c *Collector) Histogram(attr, nbuckets int) (*Histogram, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if attr < 0 || attr >= len(c.attrs) || c.attrs[attr] == nil {
		return nil, fmt.Errorf("stats: no statistics for attribute %d", attr)
	}
	if nbuckets <= 0 {
		return nil, fmt.Errorf("stats: invalid bucket count %d", nbuckets)
	}
	a := c.attrs[attr]
	if len(a.sample) == 0 {
		return nil, fmt.Errorf("stats: empty sample for attribute %d", attr)
	}
	sorted := make([]value.Value, len(a.sample))
	copy(sorted, a.sample)
	sort.Slice(sorted, func(i, j int) bool { return value.Compare(sorted[i], sorted[j]) < 0 })
	if nbuckets > len(sorted) {
		nbuckets = len(sorted)
	}
	h := &Histogram{Attr: attr, Depth: len(sorted) / nbuckets, Samples: len(sorted)}
	for b := 0; b <= nbuckets; b++ {
		idx := b * (len(sorted) - 1) / nbuckets
		h.Bounds = append(h.Bounds, sorted[idx])
	}
	return h, nil
}
