package expr

import (
	"math"
	"testing"

	"nodb/internal/value"
)

// stepAll feeds vals into a fresh mergeable aggregator.
func stepAll(t *testing.T, name string, star, distinct bool, vals ...value.Value) Aggregator {
	t.Helper()
	a, err := NewMergeableAggregator(name, star, distinct)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range vals {
		a.Step(v)
	}
	return a
}

// TestMergeMatchesSequential is the partial-aggregation contract: for every
// aggregate, splitting the input into chunks, stepping each into its own
// state and merging in chunk order must produce the same result as stepping
// the concatenated input into one state.
func TestMergeMatchesSequential(t *testing.T) {
	input := []value.Value{
		value.Int(3), value.Float(1.25), value.Null(), value.Int(-2),
		value.Int(3), value.Float(7.5), value.Int(9), value.Null(),
		value.Float(1.25), value.Int(0), value.Int(9), value.Int(41),
	}
	cases := []struct {
		name     string
		star     bool
		distinct bool
	}{
		{"COUNT", true, false}, {"COUNT", false, false}, {"COUNT", false, true},
		{"SUM", false, false}, {"SUM", false, true},
		{"AVG", false, false}, {"AVG", false, true},
		{"MIN", false, false}, {"MAX", false, false},
	}
	for _, c := range cases {
		for _, split := range []int{0, 1, 5, len(input)} {
			want := stepAll(t, c.name, c.star, c.distinct, input...).Result()
			left := stepAll(t, c.name, c.star, c.distinct, input[:split]...)
			right := stepAll(t, c.name, c.star, c.distinct, input[split:]...)
			left.Merge(right)
			got := left.Result()
			if !value.Equal(got, want) || got.K != want.K {
				t.Errorf("%s(star=%v distinct=%v) split=%d: merged=%v sequential=%v",
					c.name, c.star, c.distinct, split, got, want)
			}
		}
	}
}

// TestMergeSumPromotion checks int→float promotion across the merge
// boundary in both directions.
func TestMergeSumPromotion(t *testing.T) {
	intSide := stepAll(t, "SUM", false, false, value.Int(2), value.Int(3))
	fltSide := stepAll(t, "SUM", false, false, value.Float(0.5))
	intSide.Merge(fltSide)
	if got := intSide.Result(); got.K != value.KindFloat || got.F != 5.5 {
		t.Errorf("int←float merge: %v", got)
	}

	fltSide = stepAll(t, "SUM", false, false, value.Float(0.5))
	intSide = stepAll(t, "SUM", false, false, value.Int(2))
	fltSide.Merge(intSide)
	if got := fltSide.Result(); got.K != value.KindFloat || got.F != 2.5 {
		t.Errorf("float←int merge: %v", got)
	}

	empty := stepAll(t, "SUM", false, false)
	full := stepAll(t, "SUM", false, false, value.Int(7))
	empty.Merge(full)
	if got := empty.Result(); got.K != value.KindInt || got.I != 7 {
		t.Errorf("empty←full merge: %v", got)
	}
	full.Merge(stepAll(t, "SUM", false, false))
	if got := full.Result(); got.K != value.KindInt || got.I != 7 {
		t.Errorf("full←empty merge: %v", got)
	}
}

// TestDistinctCanonicalKey is the regression test for the DISTINCT identity
// bug: the old implementation keyed every non-text kind on v.String() under
// KindInt, so Date(2) ("1970-01-03") and Int(2) ("2") counted as two
// DISTINCT values even though value.Compare deems them equal, while
// Bool(true) vs Int(1) silently diverged from value.Equal. The canonical
// key must collapse values exactly when value.Equal does (for the
// non-text/numeric mix value.Hash also canonicalizes).
func TestDistinctCanonicalKey(t *testing.T) {
	count := func(vals ...value.Value) int64 {
		return stepAll(t, "COUNT", false, true, vals...).Result().I
	}
	cases := []struct {
		name string
		vals []value.Value
		want int64
	}{
		{"date-vs-int", []value.Value{value.Date(2), value.Int(2)}, 1},
		{"bool-vs-int", []value.Value{value.Bool(true), value.Int(1), value.Bool(false), value.Int(0)}, 2},
		{"float-vs-int", []value.Value{value.Float(2), value.Int(2), value.Float(2.5)}, 2},
		{"float-vs-date", []value.Value{value.Float(3), value.Date(3)}, 1},
		{"distinct-dates", []value.Value{value.Date(1), value.Date(2), value.Int(3)}, 3},
		{"text-stays-text", []value.Value{value.Text("2"), value.Int(2)}, 2},
		{"negatives", []value.Value{value.Int(-1), value.Float(-1), value.Int(1)}, 2},
	}
	for _, c := range cases {
		if got := count(c.vals...); got != c.want {
			t.Errorf("%s: COUNT(DISTINCT)=%d, want %d", c.name, got, c.want)
		}
	}
	// Within a kind class (text with text, numerics with numerics) the
	// canonical key must collapse a pair exactly when value.Equal does.
	// Across the classes the key follows value.Hash and keeps text distinct
	// from numerics even where Compare's text coercion deems them equal.
	vals := []value.Value{
		value.Int(0), value.Int(1), value.Int(2), value.Float(2), value.Float(2.5),
		value.Date(1), value.Date(2), value.Bool(true), value.Bool(false),
		value.Text("2"), value.Text("true"),
	}
	for _, a := range vals {
		for _, b := range vals {
			if (a.K == value.KindText) != (b.K == value.KindText) {
				continue
			}
			sameKey := a.Distinct() == b.Distinct()
			if sameKey != value.Equal(a, b) {
				t.Errorf("key identity for %v vs %v: sameKey=%v Equal=%v", a, b, sameKey, value.Equal(a, b))
			}
		}
	}
}

// TestDistinctCrossKind pins value.Distinct, the identity COUNT(DISTINCT)
// shares with the statistics' distinct count, across kinds — stepped in one
// state and merged across every split point.
func TestDistinctCrossKind(t *testing.T) {
	negZero := math.Copysign(0, -1)
	cases := []struct {
		name string
		vals []value.Value
		want int64
	}{
		{"int-date-float", []value.Value{value.Int(2), value.Date(2), value.Float(2.0)}, 1},
		{"bool-int", []value.Value{value.Bool(true), value.Int(1), value.Bool(false)}, 2},
		{"non-integral", []value.Value{value.Float(2.5), value.Int(2), value.Float(2.5)}, 2},
		{"beyond-int64", []value.Value{value.Float(1e19), value.Int(math.MaxInt64), value.Float(1e19)}, 2},
		{"signed-zero", []value.Value{value.Float(negZero), value.Float(0), value.Int(0)}, 1},
	}
	for _, c := range cases {
		for split := 0; split <= len(c.vals); split++ {
			left := stepAll(t, "COUNT", false, true, c.vals[:split]...)
			left.Merge(stepAll(t, "COUNT", false, true, c.vals[split:]...))
			if got := left.Result().I; got != c.want {
				t.Errorf("%s split=%d: COUNT(DISTINCT)=%d, want %d", c.name, split, got, c.want)
			}
		}
	}
	if value.Float(negZero).Distinct() != value.Int(0).Distinct() {
		t.Error("-0.0 and 0 have different identities")
	}
	if k := value.Float(1e19).Distinct(); k.K != value.KindFloat {
		t.Errorf("1e19 keyed as %v, want its float bits", k)
	}
}

// TestDistinctMergeUnion checks the DISTINCT seen-set union: duplicates
// across the merge boundary count once, and merge order replays the other
// side's values in first-seen order (deterministic float sums).
func TestDistinctMergeUnion(t *testing.T) {
	a := stepAll(t, "COUNT", false, true, value.Int(1), value.Int(2), value.Date(2))
	b := stepAll(t, "COUNT", false, true, value.Int(2), value.Int(3), value.Bool(true))
	a.Merge(b)
	// {1, 2, 3}: Date(2) dups Int(2), Bool(true) dups Int(1).
	if got := a.Result(); got.I != 3 {
		t.Errorf("merged COUNT(DISTINCT)=%v, want 3", got)
	}

	s1 := stepAll(t, "SUM", false, true, value.Float(0.1), value.Float(0.2))
	s2 := stepAll(t, "SUM", false, true, value.Float(0.2), value.Float(0.3))
	s1.Merge(s2)
	want := stepAll(t, "SUM", false, true,
		value.Float(0.1), value.Float(0.2), value.Float(0.3)).Result()
	if got := s1.Result(); got.F != want.F {
		t.Errorf("merged SUM(DISTINCT)=%v, want %v", got, want)
	}
}

// TestResetMatchesFresh checks the reuse contract of recycled partial
// states: a state stepped, reset and stepped again ends exactly where a
// fresh state stepped once ends, and merges into another state the same.
func TestResetMatchesFresh(t *testing.T) {
	first := []value.Value{value.Int(5), value.Float(-2.5), value.Int(5)}
	second := []value.Value{value.Int(3), value.Null(), value.Int(3), value.Int(8)}
	cases := []struct {
		name     string
		star     bool
		distinct bool
	}{
		{"COUNT", true, false}, {"COUNT", false, false}, {"COUNT", false, true},
		{"SUM", false, false}, {"SUM", false, true},
		{"AVG", false, false}, {"MIN", false, false}, {"MAX", false, true},
	}
	for _, c := range cases {
		reused := stepAll(t, c.name, c.star, c.distinct, first...)
		reused.Reset()
		for _, v := range second {
			reused.Step(v)
		}
		fresh := stepAll(t, c.name, c.star, c.distinct, second...)
		if got, want := reused.Result(), fresh.Result(); !value.Equal(got, want) || got.K != want.K {
			t.Errorf("%s(star=%v distinct=%v): reset state=%v fresh=%v", c.name, c.star, c.distinct, got, want)
		}
		into := stepAll(t, c.name, c.star, c.distinct, value.Int(8))
		into.Merge(reused)
		ref := stepAll(t, c.name, c.star, c.distinct, value.Int(8))
		ref.Merge(fresh)
		if got, want := into.Result(), ref.Result(); !value.Equal(got, want) || got.K != want.K {
			t.Errorf("%s(star=%v distinct=%v): merging a reset state=%v, a fresh one=%v", c.name, c.star, c.distinct, got, want)
		}
	}
}
