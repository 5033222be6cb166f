package stats

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"nodb/internal/value"
)

func observeInts(c *Collector, attr int, vals ...int64) {
	vv := make([]value.Value, len(vals))
	for i, v := range vals {
		vv[i] = value.Int(v)
	}
	c.ObserveBatch(attr, value.KindInt, vv)
}

func TestBasicCounts(t *testing.T) {
	c := NewCollector(3, 16)
	observeInts(c, 0, 5, 1, 9, 1)
	c.ObserveBatch(0, value.KindInt, []value.Value{value.Null()})

	snap, ok := c.Snapshot(0)
	if !ok {
		t.Fatal("no snapshot")
	}
	if snap.Count != 4 || snap.Nulls != 1 {
		t.Errorf("count=%d nulls=%d", snap.Count, snap.Nulls)
	}
	if snap.Min.I != 1 || snap.Max.I != 9 {
		t.Errorf("min=%v max=%v", snap.Min, snap.Max)
	}
	if snap.NDV != 3 {
		t.Errorf("ndv=%d", snap.NDV)
	}
	if snap.SampleSize != 5-1 {
		t.Errorf("sample=%d", snap.SampleSize)
	}
	if !c.Has(0) || c.Has(1) || c.Has(-1) || c.Has(99) {
		t.Error("Has wrong")
	}
}

func TestTouchedGrowsAdaptively(t *testing.T) {
	c := NewCollector(5, 16)
	if len(c.Touched()) != 0 {
		t.Fatal("fresh collector has touched attrs")
	}
	observeInts(c, 2, 1)
	observeInts(c, 4, 1)
	got := c.Touched()
	if len(got) != 2 || got[0] != 2 || got[1] != 4 {
		t.Errorf("touched=%v", got)
	}
}

func TestRowCount(t *testing.T) {
	c := NewCollector(1, 16)
	if c.RowCount() != 0 {
		t.Error("fresh row count nonzero")
	}
	c.SetRowCount(1234)
	if c.RowCount() != 1234 {
		t.Error("row count lost")
	}
}

func TestSelectivityFromSample(t *testing.T) {
	c := NewCollector(1, 1000)
	// 0..99: selectivity of "< 50" should be ~0.5, "= 7" ~0.01.
	for i := int64(0); i < 100; i++ {
		observeInts(c, 0, i)
	}
	cases := []struct {
		op   string
		arg  int64
		want float64
		tol  float64
	}{
		{"<", 50, 0.5, 0.01},
		{"<=", 49, 0.5, 0.01},
		{">", 89, 0.1, 0.01},
		{">=", 90, 0.1, 0.01},
		{"=", 7, 0.01, 0.001},
		{"!=", 7, 0.99, 0.001},
	}
	for _, tc := range cases {
		got := c.Selectivity(0, tc.op, value.Int(tc.arg))
		if math.Abs(got-tc.want) > tc.tol {
			t.Errorf("sel(%s %d)=%f, want %f", tc.op, tc.arg, got, tc.want)
		}
	}
}

func TestSelectivityNullAdjustment(t *testing.T) {
	c := NewCollector(1, 1000)
	// Half the values are null; sel(< 100) over non-nulls is 1.0, overall 0.5.
	vals := make([]value.Value, 0, 100)
	for i := 0; i < 50; i++ {
		vals = append(vals, value.Int(int64(i)), value.Null())
	}
	c.ObserveBatch(0, value.KindInt, vals)
	got := c.Selectivity(0, "<", value.Int(100))
	if math.Abs(got-0.5) > 0.01 {
		t.Errorf("sel=%f, want 0.5", got)
	}
}

func TestSelectivityDefaults(t *testing.T) {
	c := NewCollector(1, 16)
	if got := c.Selectivity(0, "=", value.Int(1)); got != 0.05 {
		t.Errorf("default eq=%f", got)
	}
	if got := c.Selectivity(0, "!=", value.Int(1)); got != 0.95 {
		t.Errorf("default ne=%f", got)
	}
	if got := c.Selectivity(0, "<", value.Int(1)); math.Abs(got-1.0/3) > 1e-9 {
		t.Errorf("default lt=%f", got)
	}
	observeInts(c, 0, 1, 2, 3)
	if got := c.Selectivity(0, "LIKE", value.Text("x")); math.Abs(got-1.0/3) > 1e-9 {
		t.Errorf("unknown op=%f", got)
	}
}

func TestReservoirBounded(t *testing.T) {
	c := NewCollector(1, 32)
	for i := int64(0); i < 10_000; i++ {
		observeInts(c, 0, i)
	}
	snap, _ := c.Snapshot(0)
	if snap.SampleSize != 32 {
		t.Errorf("sample size=%d, want 32", snap.SampleSize)
	}
	if snap.Count != 10_000 {
		t.Errorf("count=%d", snap.Count)
	}
	if snap.Min.I != 0 || snap.Max.I != 9999 {
		t.Errorf("min/max=%v/%v", snap.Min, snap.Max)
	}
}

func TestReservoirIsRepresentative(t *testing.T) {
	c := NewCollector(1, 256)
	for i := int64(0); i < 100_000; i++ {
		observeInts(c, 0, i%1000)
	}
	// Median of the sample should be near 500.
	sel := c.Selectivity(0, "<", value.Int(500))
	if math.Abs(sel-0.5) > 0.12 {
		t.Errorf("sampled sel=%f, want ~0.5", sel)
	}
}

func TestNDVOverflowEstimate(t *testing.T) {
	c := NewCollector(1, 512)
	n := int64(3 * maxDistinctTracked)
	for i := int64(0); i < n; i++ {
		observeInts(c, 0, i) // all distinct
	}
	snap, _ := c.Snapshot(0)
	// Exact tracking overflowed; the estimate should be within 2x of truth.
	if snap.NDV < n/2 || snap.NDV > 2*n {
		t.Errorf("ndv=%d, want ~%d", snap.NDV, n)
	}
}

func TestHistogram(t *testing.T) {
	c := NewCollector(1, 1000)
	for i := int64(0); i < 100; i++ {
		observeInts(c, 0, i)
	}
	h, err := c.Histogram(0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(h.Bounds) != 5 {
		t.Fatalf("bounds=%v", h.Bounds)
	}
	if h.Bounds[0].I != 0 || h.Bounds[4].I != 99 {
		t.Errorf("extremes=%v..%v", h.Bounds[0], h.Bounds[4])
	}
	// Equi-depth on uniform data: interior bounds near quartiles.
	for i, want := range []int64{24, 49, 74} {
		if got := h.Bounds[i+1].I; math.Abs(float64(got-want)) > 2 {
			t.Errorf("bound %d=%d, want ~%d", i+1, got, want)
		}
	}
	// Errors.
	if _, err := c.Histogram(0, 0); err == nil {
		t.Error("zero buckets accepted")
	}
	if _, err := c.Histogram(5, 4); err == nil {
		t.Error("unknown attr accepted")
	}
}

func TestHistogramMoreBucketsThanSamples(t *testing.T) {
	c := NewCollector(1, 16)
	observeInts(c, 0, 3, 1, 2)
	h, err := c.Histogram(0, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(h.Bounds) != 4 { // clamped to 3 buckets
		t.Errorf("bounds=%v", h.Bounds)
	}
}

func TestClear(t *testing.T) {
	c := NewCollector(2, 16)
	observeInts(c, 0, 1, 2)
	c.SetRowCount(99)
	c.Clear()
	if c.Has(0) || c.RowCount() != 0 {
		t.Error("clear incomplete")
	}
}

func TestObserveBatchOutOfRange(t *testing.T) {
	c := NewCollector(1, 16)
	c.ObserveBatch(-1, value.KindInt, []value.Value{value.Int(1)})
	c.ObserveBatch(5, value.KindInt, []value.Value{value.Int(1)})
	if len(c.Touched()) != 0 {
		t.Error("out-of-range attr created stats")
	}
}

func TestSelectivityQuickInUnitRange(t *testing.T) {
	f := func(vals []int64, probe int64) bool {
		c := NewCollector(1, 128)
		observeInts(c, 0, vals...)
		for _, op := range []string{"=", "!=", "<", "<=", ">", ">="} {
			s := c.Selectivity(0, op, value.Int(probe))
			if s < 0 || s > 1 || math.IsNaN(s) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestMinMaxWithText(t *testing.T) {
	c := NewCollector(1, 16)
	c.ObserveBatch(0, value.KindText, []value.Value{
		value.Text("banana"), value.Text("apple"), value.Text("cherry"),
	})
	snap, _ := c.Snapshot(0)
	if snap.Min.S != "apple" || snap.Max.S != "cherry" {
		t.Errorf("min=%v max=%v", snap.Min, snap.Max)
	}
}

// refAttr is the value-at-a-time observation the collector replaced with
// summaries: each value's min/max comparisons, reservoir step and distinct
// insert, in order.
type refAttr struct {
	count, nulls int64
	min, max     value.Value
	sample       []value.Value
	seen         int64
	rng          uint64
	distinct     map[value.DistinctKey]struct{}
	overflow     bool
}

func newRefAttr(attr int) *refAttr {
	return &refAttr{rng: uint64(attr)*2654435761 + 1, distinct: map[value.DistinctKey]struct{}{}}
}

func (a *refAttr) observe(v value.Value, cap int) {
	if v.IsNull() {
		a.nulls++
		return
	}
	a.count++
	if a.min.IsNull() || value.Compare(v, a.min) < 0 {
		a.min = v
	}
	if a.max.IsNull() || value.Compare(v, a.max) > 0 {
		a.max = v
	}
	a.seen++
	if len(a.sample) < cap {
		a.sample = append(a.sample, v)
	} else {
		a.rng ^= a.rng << 13
		a.rng ^= a.rng >> 7
		a.rng ^= a.rng << 17
		if j := a.rng % uint64(a.seen); j < uint64(cap) {
			a.sample[j] = v
		}
	}
	if !a.overflow {
		a.distinct[v.Distinct()] = struct{}{}
		if len(a.distinct) > maxDistinctTracked {
			a.overflow, a.distinct = true, nil
		}
	}
}

// sameValue is bitwise identity: same kind, same payload, NaN equal to NaN.
func sameValue(a, b value.Value) bool {
	return a.K == b.K && a.I == b.I && a.S == b.S && math.Float64bits(a.F) == math.Float64bits(b.F)
}

// sameAsRef fails unless the collector's attribute state is identical to
// the reference's: counts, extremes, every reservoir slot, the reservoir's
// RNG position and the distinct set.
func sameAsRef(t *testing.T, label string, c *Collector, attr int, ref *refAttr) {
	t.Helper()
	a := c.attrs[attr]
	if a == nil {
		t.Fatalf("%s: attribute %d untouched", label, attr)
	}
	if a.count != ref.count || a.nulls != ref.nulls || a.seen != ref.seen || a.rng != ref.rng {
		t.Fatalf("%s: count/nulls/seen/rng %d/%d/%d/%d, reference %d/%d/%d/%d",
			label, a.count, a.nulls, a.seen, a.rng, ref.count, ref.nulls, ref.seen, ref.rng)
	}
	if !sameValue(a.min, ref.min) || !sameValue(a.max, ref.max) {
		t.Fatalf("%s: min/max %#v/%#v, reference %#v/%#v", label, a.min, a.max, ref.min, ref.max)
	}
	if len(a.sample) != len(ref.sample) {
		t.Fatalf("%s: sample of %d, reference %d", label, len(a.sample), len(ref.sample))
	}
	for i := range a.sample {
		if !sameValue(a.sample[i], ref.sample[i]) {
			t.Fatalf("%s: sample[%d] = %#v, reference %#v", label, i, a.sample[i], ref.sample[i])
		}
	}
	if a.distOverflow != ref.overflow || a.distinct.len() != len(ref.distinct) {
		t.Fatalf("%s: distinct overflow=%v len=%d, reference overflow=%v len=%d",
			label, a.distOverflow, a.distinct.len(), ref.overflow, len(ref.distinct))
	}
	for k := range ref.distinct {
		switch k.K {
		case value.KindText:
			_, ok := a.distinct.txts[k.S]
			if !ok {
				t.Fatalf("%s: distinct key %v missing", label, k)
			}
		case value.KindFloat:
			if _, ok := a.distinct.flts[k.I]; !ok {
				t.Fatalf("%s: distinct key %v missing", label, k)
			}
		default:
			if _, ok := a.distinct.ints[k.I]; !ok {
				t.Fatalf("%s: distinct key %v missing", label, k)
			}
		}
	}
}

// genValues draws n values of kind, with NULLs (and floats with -0.0 beside
// 0.0, which compare equal but differ); mixed adds values of other kinds and
// NaN to exercise the replay paths.
func genValues(rng *rand.Rand, kind value.Kind, n, card int, mixed bool) []value.Value {
	out := make([]value.Value, n)
	for i := range out {
		k := kind
		if mixed && rng.Intn(5) == 0 {
			k = []value.Kind{value.KindInt, value.KindFloat, value.KindText, value.KindBool, value.KindDate}[rng.Intn(5)]
		}
		x := int64(rng.Intn(card)) - int64(card/2)
		switch {
		case rng.Intn(9) == 0:
			out[i] = value.Null()
		case k == value.KindFloat:
			f := float64(x) / 4
			switch rng.Intn(12) {
			case 0:
				if mixed {
					f = math.NaN()
				}
			case 1:
				f = math.Copysign(0, -1)
			case 2:
				f = 0
			}
			out[i] = value.Float(f)
		case k == value.KindText:
			out[i] = value.Text(fmt.Sprint("t", x))
		case k == value.KindBool:
			out[i] = value.Bool(x%2 == 0)
		case k == value.KindDate:
			out[i] = value.Date(x)
		default:
			out[i] = value.Int(x)
		}
	}
	return out
}

// TestSummaryMergeMatchesValueByValue is the summaries' contract: per-chunk
// summaries merged in chunk order leave a collector identical to
// ObserveBatch called value by value over the concatenation, and both
// identical to the value-at-a-time reference — past the point the
// reservoir fills (its replacement steps), across the distinct set's
// overflow point, with NULLs, and with mixed kinds, NaN and -0.0 where the
// extremes are replayed.
func TestSummaryMergeMatchesValueByValue(t *testing.T) {
	const sampleCap = 64
	cases := []struct {
		name  string
		kind  value.Kind
		n     int
		card  int
		mixed bool
	}{
		{"ints-reservoir-full", value.KindInt, 3000, 500, false},
		{"ints-distinct-overflow", value.KindInt, 12000, 1 << 30, false},
		{"floats", value.KindFloat, 2000, 300, false},
		{"text", value.KindText, 2000, 700, false},
		{"dates", value.KindDate, 1500, 90, false},
		{"bools", value.KindBool, 500, 2, false},
		{"mixed-with-nan", value.KindFloat, 3000, 400, true},
		{"mixed-ints", value.KindInt, 3000, 400, true},
	}
	for seed := int64(1); seed <= 3; seed++ {
		for _, tc := range cases {
			rng := rand.New(rand.NewSource(seed))
			vals := genValues(rng, tc.kind, tc.n, tc.card, tc.mixed)
			label := fmt.Sprintf("%s seed=%d", tc.name, seed)

			ref := newRefAttr(2)
			for _, v := range vals {
				ref.observe(v, sampleCap)
			}
			one := NewCollector(3, sampleCap)
			for i := range vals {
				one.ObserveBatch(2, tc.kind, vals[i:i+1])
			}
			sameAsRef(t, label+" value by value", one, 2, ref)

			merged := NewCollector(3, sampleCap)
			var s Summary
			for lo := 0; lo < len(vals); {
				hi := min(len(vals), lo+1+rng.Intn(700))
				s.Reset(tc.kind)
				for _, v := range vals[lo:hi] {
					s.Add(v)
				}
				merged.Merge(2, &s)
				lo = hi
			}
			sameAsRef(t, label+" merged summaries", merged, 2, ref)
		}
	}
}

// TestSummaryExtremesFirstWins: -0.0 and 0.0 compare equal, so the first
// of them seen is the minimum and the maximum — inside a summary as across
// merged ones.
func TestSummaryExtremesFirstWins(t *testing.T) {
	neg, pos := value.Float(math.Copysign(0, -1)), value.Float(0)
	for _, chunks := range [][][]value.Value{
		{{pos, neg, neg}},
		{{neg, pos}, {pos}},
		{{value.Null(), pos}, {neg, neg, pos}},
	} {
		ref := newRefAttr(0)
		c := NewCollector(1, 16)
		var s Summary
		for _, chunk := range chunks {
			s.Reset(value.KindFloat)
			for _, v := range chunk {
				ref.observe(v, 16)
				s.Add(v)
			}
			c.Merge(0, &s)
		}
		sameAsRef(t, fmt.Sprint(chunks), c, 0, ref)
	}
}

// TestDistinctOverflowPoint pins the exact distinct set's bound: 4 096
// distinct values stay exact, the 4 097th overflows to the estimate,
// whether they arrive one batch or many.
func TestDistinctOverflowPoint(t *testing.T) {
	for _, batch := range []int{1, 100, maxDistinctTracked + 1} {
		c := NewCollector(1, 16)
		vals := make([]value.Value, maxDistinctTracked+1)
		for i := range vals {
			vals[i] = value.Int(int64(i))
		}
		feed := func(vs []value.Value) {
			for lo := 0; lo < len(vs); lo += batch {
				c.ObserveBatch(0, value.KindInt, vs[lo:min(len(vs), lo+batch)])
			}
		}
		feed(vals[:maxDistinctTracked])
		feed(vals[:10]) // repeats change nothing
		if c.attrs[0].distOverflow || c.attrs[0].distinct.len() != maxDistinctTracked {
			t.Fatalf("batch %d: at the bound: overflow=%v len=%d", batch, c.attrs[0].distOverflow, c.attrs[0].distinct.len())
		}
		feed(vals[maxDistinctTracked:])
		if !c.attrs[0].distOverflow {
			t.Fatalf("batch %d: one past the bound did not overflow", batch)
		}
	}
}

// TestDistinctCrossKind pins the statistics' distinct count to
// value.Distinct, the identity COUNT(DISTINCT) uses.
func TestDistinctCrossKind(t *testing.T) {
	cases := []struct {
		name string
		vals []value.Value
		ndv  int64
	}{
		{"int-date-float", []value.Value{value.Int(2), value.Date(2), value.Float(2.0)}, 1},
		{"bool-int", []value.Value{value.Bool(true), value.Int(1)}, 1},
		{"non-integral", []value.Value{value.Float(2.5), value.Float(2.5), value.Int(2)}, 2},
		{"beyond-int64", []value.Value{value.Float(1e19), value.Int(math.MaxInt64)}, 2},
		{"signed-zero", []value.Value{value.Float(math.Copysign(0, -1)), value.Float(0)}, 1},
	}
	for _, tc := range cases {
		c := NewCollector(1, 16)
		c.ObserveBatch(0, tc.vals[0].K, tc.vals)
		if s, _ := c.Snapshot(0); s.NDV != tc.ndv {
			t.Errorf("%s: NDV %d, want %d", tc.name, s.NDV, tc.ndv)
		}
	}
}
