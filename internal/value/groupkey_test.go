package value

import (
	"strings"
	"testing"
)

func TestAppendGroupKey(t *testing.T) {
	key := func(vals ...Value) string { return string(AppendGroupKey(nil, vals)) }

	// Identical rows → identical keys.
	if key(Int(7), Text("x")) != key(Int(7), Text("x")) {
		t.Error("identical rows differ")
	}
	// Kind participates: Int(7) vs Text("7") vs Date/Bool renderings.
	distinct := []string{
		key(Int(7)), key(Text("7")), key(Float(7.5)), key(Date(7)), key(Bool(true)), key(Null()),
	}
	seen := map[string]int{}
	for i, k := range distinct {
		if j, dup := seen[k]; dup {
			t.Errorf("values %d and %d share a key", j, i)
		}
		seen[k] = i
	}
	// Column boundaries stay unambiguous for text of any length: splitting
	// one long string differently across two columns must change the key
	// (the old 2-byte length prefix wrapped at 64 KiB and broke this).
	long := strings.Repeat("a", 1<<16)
	for _, n := range []int{0, 1, 1 << 15, 1 << 16} {
		a := key(Text(long[:n]), Text(long[n:]))
		b := key(Text(long), Text(""))
		if n != len(long) && a == b {
			t.Errorf("split at %d collides with unsplit", n)
		}
	}
	// Appending extends the buffer in place.
	buf := AppendGroupKey(nil, []Value{Int(1)})
	l := len(buf)
	buf = AppendGroupKey(buf, []Value{Int(2)})
	if len(buf) <= l {
		t.Error("append did not extend")
	}
}

// TestAppendGroupKeyAllocs: numbers and dates render into the key in place,
// with no string per value (a DATE used to go through FormatDate).
func TestAppendGroupKeyAllocs(t *testing.T) {
	buf := make([]byte, 0, 64)
	for _, v := range []Value{Int(-42), Float(2.5), Date(19000)} {
		vals := []Value{v}
		if n := testing.AllocsPerRun(100, func() { buf = AppendGroupKey(buf[:0], vals) }); n != 0 {
			t.Errorf("%v (kind %d): %.1f allocs/op, want 0", v, v.K, n)
		}
	}
}
