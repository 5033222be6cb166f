package rawcache

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"nodb/internal/value"
)

func buildFrag(key Key, kind value.Kind, vals ...value.Value) *Fragment {
	b := NewBuilder(key, kind, len(vals))
	for _, v := range vals {
		b.Append(v)
	}
	return b.Finish()
}

func TestFragmentRoundTripKinds(t *testing.T) {
	cases := []struct {
		kind value.Kind
		vals []value.Value
	}{
		{value.KindInt, []value.Value{value.Int(1), value.Null(), value.Int(-7)}},
		{value.KindFloat, []value.Value{value.Float(1.5), value.Float(-2), value.Null()}},
		{value.KindText, []value.Value{value.Text("ab"), value.Text(""), value.Null(), value.Text("xyz")}},
		{value.KindBool, []value.Value{value.Bool(true), value.Bool(false), value.Null()}},
		{value.KindDate, []value.Value{value.Date(10), value.Null()}},
	}
	for _, c := range cases {
		f := buildFrag(Key{0, 0}, c.kind, c.vals...)
		if f.Rows != len(c.vals) {
			t.Fatalf("%v: rows=%d", c.kind, f.Rows)
		}
		for i, want := range c.vals {
			got := f.Value(i)
			if want.IsNull() {
				if !got.IsNull() {
					t.Errorf("%v[%d]=%v, want NULL", c.kind, i, got)
				}
				continue
			}
			if !value.Equal(got, want) || got.K != want.K {
				t.Errorf("%v[%d]=%v, want %v", c.kind, i, got, want)
			}
		}
	}
}

var valueSink value.Value

// TestFragmentTextValueAllocs pins the cache serve of TEXT: a value is a
// substring of the fragment's arena, so reading one allocates nothing, and
// the arena is budgeted at its byte length, as a byte slab was.
func TestFragmentTextValueAllocs(t *testing.T) {
	f := buildFrag(Key{0, 0}, value.KindText, value.Text("alpha"), value.Null(), value.Text("beta-gamma"))
	if got := testing.AllocsPerRun(100, func() { valueSink = f.Value(2) }); got != 0 {
		t.Errorf("Value of a TEXT row: %.0f allocations, want 0", got)
	}
	if valueSink.S != "beta-gamma" {
		t.Errorf("Value(2)=%q", valueSink.S)
	}
	// offsets 4×4, arena 15, null flags 3, fixed 96
	if got, want := f.SizeBytes(), int64(4*4+15+3+96); got != want {
		t.Errorf("TEXT footprint %d bytes, want %d", got, want)
	}
}

func TestFragmentNoNullsNoOverhead(t *testing.T) {
	f := buildFrag(Key{0, 0}, value.KindInt, value.Int(1), value.Int(2))
	if f.nulls != nil {
		t.Error("nulls slab allocated without nulls")
	}
}

func TestFragmentQuickRoundTrip(t *testing.T) {
	f := func(ints []int64, nullEvery uint8) bool {
		step := int(nullEvery)%7 + 2
		b := NewBuilder(Key{1, 2}, value.KindInt, len(ints))
		want := make([]value.Value, len(ints))
		for i, n := range ints {
			if nullEvery > 0 && i%step == 0 {
				want[i] = value.Null()
			} else {
				want[i] = value.Int(n)
			}
			b.Append(want[i])
		}
		frag := b.Finish()
		for i := range want {
			if !value.Equal(frag.Value(i), want[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestGetPutHitMiss(t *testing.T) {
	c := New(0)
	if _, ok := c.Get(Key{0, 0}); ok {
		t.Fatal("phantom hit")
	}
	c.Put(buildFrag(Key{0, 0}, value.KindInt, value.Int(42)))
	f, ok := c.Get(Key{0, 0})
	if !ok || f.Value(0).I != 42 {
		t.Fatal("miss after put")
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Fragments != 1 || st.Inserts != 1 {
		t.Errorf("stats=%+v", st)
	}
	if !c.Contains(Key{0, 0}) || c.Contains(Key{9, 9}) {
		t.Error("Contains wrong")
	}
}

func TestPutReplaceSameKey(t *testing.T) {
	c := New(0)
	c.Put(buildFrag(Key{0, 0}, value.KindInt, value.Int(1)))
	c.Put(buildFrag(Key{0, 0}, value.KindInt, value.Int(2)))
	f, _ := c.Get(Key{0, 0})
	if f.Value(0).I != 2 {
		t.Error("replacement not visible")
	}
	if st := c.Stats(); st.Fragments != 1 {
		t.Errorf("fragments=%d", st.Fragments)
	}
}

func TestBudgetEvictionLRU(t *testing.T) {
	mk := func(chunk int) *Fragment {
		return buildFrag(Key{chunk, 0}, value.KindInt, value.Int(1), value.Int(2), value.Int(3))
	}
	per := mk(0).SizeBytes()
	c := New(2 * per)
	c.Put(mk(0))
	c.Put(mk(1))
	c.Get(Key{0, 0}) // touch 0 so 1 is LRU
	c.Put(mk(2))
	if c.Contains(Key{1, 0}) {
		t.Error("LRU fragment survived")
	}
	if !c.Contains(Key{0, 0}) || !c.Contains(Key{2, 0}) {
		t.Error("wrong fragment evicted")
	}
	st := c.Stats()
	if st.UsedBytes > 2*per || st.Evictions != 1 {
		t.Errorf("stats=%+v", st)
	}
}

func TestOversizedFragmentRejected(t *testing.T) {
	c := New(10)
	c.Put(buildFrag(Key{0, 0}, value.KindInt, value.Int(1)))
	if c.Stats().Rejected != 1 || c.Stats().Fragments != 0 {
		t.Errorf("stats=%+v", c.Stats())
	}
}

func TestSetBudgetShrink(t *testing.T) {
	c := New(0)
	for i := 0; i < 10; i++ {
		c.Put(buildFrag(Key{i, 0}, value.KindInt, value.Int(int64(i))))
	}
	used := c.Stats().UsedBytes
	c.SetBudget(used / 3)
	if got := c.Stats().UsedBytes; got > used/3 {
		t.Errorf("used=%d > %d", got, used/3)
	}
}

func TestClear(t *testing.T) {
	c := New(0)
	c.Put(buildFrag(Key{0, 0}, value.KindInt, value.Int(1)))
	c.Clear()
	if st := c.Stats(); st.Fragments != 0 || st.UsedBytes != 0 {
		t.Errorf("after clear: %+v", st)
	}
}

func TestUtilizationAndCoverage(t *testing.T) {
	c := New(0)
	if c.Utilization() != 0 {
		t.Error("unlimited budget utilization should be 0")
	}
	c.Put(buildFrag(Key{0, 0}, value.KindInt, value.Int(1)))
	c.Put(buildFrag(Key{1, 0}, value.KindInt, value.Int(1)))
	c.Put(buildFrag(Key{0, 1}, value.KindInt, value.Int(1)))
	cov := c.Coverage(2, 2)
	if cov[0] != 1.0 || cov[1] != 0.5 {
		t.Errorf("coverage=%v", cov)
	}
	covered := c.ChunkCovered(3)
	if !covered[0] || !covered[1] || covered[2] {
		t.Errorf("chunkCovered=%v", covered)
	}
	c2 := New(1000)
	c2.Put(buildFrag(Key{0, 0}, value.KindInt, value.Int(1)))
	if u := c2.Utilization(); u <= 0 || u > 1 {
		t.Errorf("utilization=%f", u)
	}
}

func TestHeldFragmentSurvivesEviction(t *testing.T) {
	small := buildFrag(Key{0, 0}, value.KindText, value.Text("keepme"))
	c := New(small.SizeBytes())
	c.Put(small)
	f, ok := c.Get(Key{0, 0})
	if !ok {
		t.Fatal("miss")
	}
	c.Put(buildFrag(Key{1, 0}, value.KindText, value.Text("evictor")))
	if got := f.Value(0); got.S != "keepme" {
		t.Errorf("held fragment corrupted: %v", got)
	}
}

func TestBudgetInvariantQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		budget := int64(rng.Intn(4000) + 200)
		c := New(budget)
		for op := 0; op < 60; op++ {
			k := Key{Chunk: rng.Intn(6), Attr: rng.Intn(3)}
			n := rng.Intn(20) + 1
			b := NewBuilder(k, value.KindInt, n)
			for i := 0; i < n; i++ {
				b.Append(value.Int(rng.Int63()))
			}
			c.Put(b.Finish())
			if st := c.Stats(); st.UsedBytes > budget {
				return false
			}
			c.Get(Key{Chunk: rng.Intn(6), Attr: rng.Intn(3)})
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestConcurrentAccess(t *testing.T) {
	c := New(50_000)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := Key{Chunk: i % 10, Attr: g % 3}
				if f, ok := c.Get(k); ok {
					_ = f.Value(0)
				} else {
					c.Put(buildFrag(k, value.KindText, value.Text(fmt.Sprintf("v%d", i))))
				}
			}
		}(g)
	}
	wg.Wait()
	if st := c.Stats(); st.UsedBytes > 50_000 {
		t.Errorf("over budget: %+v", st)
	}
}
