package value

import "testing"

func BenchmarkCompareInts(b *testing.B) {
	x, y := Int(42), Int(43)
	for i := 0; i < b.N; i++ {
		if Compare(x, y) >= 0 {
			b.Fatal("order")
		}
	}
}

func BenchmarkHashText(b *testing.B) {
	v := Text("some-moderate-length-value")
	for i := 0; i < b.N; i++ {
		_ = v.Hash()
	}
}
