// Package value defines the scalar value model shared by every layer of the
// engine: the type system, parsing from raw CSV text, comparison, hashing
// and formatting.
//
// Values are small structs passed by value. Text values reference a string;
// all other kinds are stored inline so that typical query processing over
// numeric data performs no allocation per value.
package value

import (
	"encoding/binary"
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
)

// Kind identifies the type of a Value.
type Kind uint8

// Supported value kinds.
const (
	KindNull Kind = iota
	KindInt
	KindFloat
	KindText
	KindBool
	KindDate // days since 1970-01-01, stored in I
)

// String returns the SQL-ish name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "NULL"
	case KindInt:
		return "INT"
	case KindFloat:
		return "FLOAT"
	case KindText:
		return "TEXT"
	case KindBool:
		return "BOOL"
	case KindDate:
		return "DATE"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// ParseKind converts a type name (as used in schema files and the CLI) to a
// Kind. It accepts common aliases, case-insensitively.
func ParseKind(s string) (Kind, error) {
	switch strings.ToUpper(strings.TrimSpace(s)) {
	case "INT", "INTEGER", "BIGINT", "SMALLINT", "LONG":
		return KindInt, nil
	case "FLOAT", "DOUBLE", "REAL", "NUMERIC", "DECIMAL":
		return KindFloat, nil
	case "TEXT", "VARCHAR", "CHAR", "STRING":
		return KindText, nil
	case "BOOL", "BOOLEAN":
		return KindBool, nil
	case "DATE":
		return KindDate, nil
	default:
		return KindNull, fmt.Errorf("value: unknown type name %q", s)
	}
}

// Value is a single scalar. The active representation depends on K:
//
//	KindInt, KindDate: I
//	KindBool:          I (0 or 1)
//	KindFloat:         F
//	KindText:          S
//	KindNull:          none
type Value struct {
	K Kind
	I int64
	F float64
	S string
}

// Convenience constructors.

// Null returns the SQL NULL value.
func Null() Value { return Value{K: KindNull} }

// Int returns an integer value.
func Int(i int64) Value { return Value{K: KindInt, I: i} }

// Float returns a floating-point value.
func Float(f float64) Value { return Value{K: KindFloat, F: f} }

// Text returns a text value.
func Text(s string) Value { return Value{K: KindText, S: s} }

// Bool returns a boolean value.
func Bool(b bool) Value {
	if b {
		return Value{K: KindBool, I: 1}
	}
	return Value{K: KindBool}
}

// Date returns a date value holding days since the Unix epoch.
func Date(days int64) Value { return Value{K: KindDate, I: days} }

// IsNull reports whether v is NULL.
func (v Value) IsNull() bool { return v.K == KindNull }

// IsTrue reports whether v is a non-null boolean true.
func (v Value) IsTrue() bool { return v.K == KindBool && v.I != 0 }

// Num returns the value as a float64 for arithmetic, converting integers and
// dates. The result is meaningless for text and null values.
func (v Value) Num() float64 {
	if v.K == KindFloat {
		return v.F
	}
	return float64(v.I)
}

// DateLayout is the textual date format (time.Parse layout) used by
// KindDate values everywhere: CSV fields, literals and bound parameters.
const DateLayout = "2006-01-02"

// epochDate is the zero point for KindDate values.
var epochDate = time.Date(1970, 1, 1, 0, 0, 0, 0, time.UTC)

// ParseDate parses a YYYY-MM-DD date into days since the epoch.
func ParseDate(s string) (int64, error) {
	t, err := time.Parse(DateLayout, s)
	if err != nil {
		return 0, err
	}
	return int64(t.Sub(epochDate) / (24 * time.Hour)), nil
}

// FormatDate renders days-since-epoch as YYYY-MM-DD.
func FormatDate(days int64) string {
	return epochDate.Add(time.Duration(days) * 24 * time.Hour).Format(DateLayout)
}

// Parse converts a raw field (as sliced out of a CSV line) to a Value of the
// requested kind. Empty fields parse as NULL for every kind, matching the
// loose semantics of raw CSV data. The byte slice is not retained.
func Parse(b []byte, k Kind) (Value, error) {
	if len(b) == 0 {
		return Null(), nil
	}
	switch k {
	case KindInt:
		i, err := ParseInt(b)
		if err != nil {
			return Null(), err
		}
		return Int(i), nil
	case KindFloat:
		f, err := strconv.ParseFloat(string(b), 64)
		if err != nil {
			return Null(), fmt.Errorf("value: bad float %q: %w", b, err)
		}
		return Float(f), nil
	case KindText:
		return Text(string(b)), nil
	case KindBool:
		switch len(b) {
		case 1:
			switch b[0] {
			case 't', 'T', '1', 'y', 'Y':
				return Bool(true), nil
			case 'f', 'F', '0', 'n', 'N':
				return Bool(false), nil
			}
		case 4:
			if eqFold(b, "true") {
				return Bool(true), nil
			}
		case 5:
			if eqFold(b, "false") {
				return Bool(false), nil
			}
		}
		return Null(), fmt.Errorf("value: bad bool %q", b)
	case KindDate:
		d, err := ParseDate(string(b))
		if err != nil {
			return Null(), fmt.Errorf("value: bad date %q: %w", b, err)
		}
		return Date(d), nil
	default:
		return Null(), fmt.Errorf("value: cannot parse into kind %s", k)
	}
}

// ParseInt converts decimal ASCII (with optional sign) to int64 without
// allocating. It is the hot path of the Convert phase.
func ParseInt(b []byte) (int64, error) {
	if len(b) == 0 {
		return 0, fmt.Errorf("value: empty int")
	}
	neg := false
	i := 0
	switch b[0] {
	case '-':
		neg = true
		i = 1
	case '+':
		i = 1
	}
	if i == len(b) {
		return 0, fmt.Errorf("value: bad int %q", b)
	}
	var n int64
	for ; i < len(b); i++ {
		c := b[i]
		if c < '0' || c > '9' {
			return 0, fmt.Errorf("value: bad int %q", b)
		}
		d := int64(c - '0')
		if n > (1<<63-1-d)/10 {
			return 0, fmt.Errorf("value: int overflow %q", b)
		}
		n = n*10 + d
	}
	if neg {
		return -n, nil
	}
	return n, nil
}

func eqFold(b []byte, s string) bool {
	if len(b) != len(s) {
		return false
	}
	for i := 0; i < len(b); i++ {
		c := b[i]
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		if c != s[i] {
			return false
		}
	}
	return true
}

// Infer guesses the kind of a raw field. Used by schema inference when a raw
// file is registered without an explicit schema.
func Infer(b []byte) Kind {
	if len(b) == 0 {
		return KindNull
	}
	if _, err := ParseInt(b); err == nil {
		return KindInt
	}
	if _, err := strconv.ParseFloat(string(b), 64); err == nil {
		return KindFloat
	}
	if len(b) == 10 && b[4] == '-' && b[7] == '-' {
		if _, err := ParseDate(string(b)); err == nil {
			return KindDate
		}
	}
	if eqFold(b, "true") || eqFold(b, "false") {
		return KindBool
	}
	return KindText
}

// MergeKinds combines two inferred kinds from different rows of the same
// column into the narrowest kind that can represent both.
func MergeKinds(a, b Kind) Kind {
	if a == b {
		return a
	}
	if a == KindNull {
		return b
	}
	if b == KindNull {
		return a
	}
	if (a == KindInt && b == KindFloat) || (a == KindFloat && b == KindInt) {
		return KindFloat
	}
	return KindText
}

// Compare orders two values. NULL sorts before every non-null value; numeric
// kinds (int/float/date/bool) compare numerically with each other; text
// compares lexicographically. Comparing text with a numeric kind compares the
// numeric value's formatted form, so Compare is total over all values.
func Compare(a, b Value) int {
	an, bn := a.IsNull(), b.IsNull()
	switch {
	case an && bn:
		return 0
	case an:
		return -1
	case bn:
		return 1
	}
	if a.K == KindText || b.K == KindText {
		as, bs := a.text(), b.text()
		return strings.Compare(as, bs)
	}
	// Numeric comparison. Use exact int compare when both sides are integral.
	if a.K != KindFloat && b.K != KindFloat {
		switch {
		case a.I < b.I:
			return -1
		case a.I > b.I:
			return 1
		default:
			return 0
		}
	}
	af, bf := a.Num(), b.Num()
	switch {
	case af < bf:
		return -1
	case af > bf:
		return 1
	default:
		return 0
	}
}

// Equal reports whether two values compare equal.
func Equal(a, b Value) bool { return Compare(a, b) == 0 }

func (v Value) text() string {
	if v.K == KindText {
		return v.S
	}
	return v.String()
}

// String formats the value the way the CLI and the CSV writer print it.
func (v Value) String() string {
	switch v.K {
	case KindNull:
		return ""
	case KindInt:
		return strconv.FormatInt(v.I, 10)
	case KindFloat:
		return strconv.FormatFloat(v.F, 'g', -1, 64)
	case KindText:
		return v.S
	case KindBool:
		if v.I != 0 {
			return "true"
		}
		return "false"
	case KindDate:
		return FormatDate(v.I)
	default:
		return fmt.Sprintf("<%s>", v.K)
	}
}

// Hash returns a 64-bit FNV-1a hash of the value, used by hash joins and
// hash aggregation. Values that are Equal hash identically: numeric kinds
// hash their canonical numeric form.
func (v Value) Hash() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(b byte) {
		h ^= uint64(b)
		h *= prime64
	}
	switch v.K {
	case KindNull:
		mix(0)
	case KindText:
		mix(1)
		for i := 0; i < len(v.S); i++ {
			mix(v.S[i])
		}
	case KindFloat:
		// Hash integral floats as ints so Int(2) and Float(2.0) collide,
		// matching Equal. The range guard keeps the float→int conversion off
		// the out-of-range path, whose result is implementation-specific.
		if v.F >= -(1<<63) && v.F < 1<<63 && v.F == float64(int64(v.F)) {
			return Int(int64(v.F)).Hash()
		}
		mix(2)
		bits := strconv.AppendFloat(nil, v.F, 'b', -1, 64)
		for _, b := range bits {
			mix(b)
		}
	default: // int, bool, date: canonical numeric
		mix(3)
		u := uint64(v.I)
		for i := 0; i < 8; i++ {
			mix(byte(u >> (8 * i)))
		}
	}
	return h
}

// DistinctKey is the identity under which two values count as one distinct
// value — for COUNT(DISTINCT …) and for the statistics' distinct-value
// count. It is comparable, so it keys maps directly.
type DistinctKey struct {
	K Kind   // KindInt (every integral numeric), KindFloat, KindText or KindNull
	I int64  // the integral value, or the bits of a non-integral float
	S string // text
}

// Distinct returns v's distinct identity, aligned with Hash and Equal: all
// integral numerics (int, bool, date, and floats with an integral value,
// -0.0 included) collapse onto their int64, so Int(2), Date(2), Float(2.0)
// and Bool(true)/Int(1) are one value exactly when Compare deems them equal;
// other floats key on their bits and text on its bytes. It allocates
// nothing.
func (v Value) Distinct() DistinctKey {
	switch v.K {
	case KindNull:
		return DistinctKey{}
	case KindText:
		return DistinctKey{K: KindText, S: v.S}
	case KindFloat:
		// Guard the int64 range before converting: out-of-range float→int
		// conversion is implementation-specific in Go, which would make the
		// identity differ across architectures at the 2^63 edge.
		if v.F >= -(1<<63) && v.F < 1<<63 && v.F == float64(int64(v.F)) {
			return DistinctKey{K: KindInt, I: int64(v.F)}
		}
		if v.F != v.F {
			return DistinctKey{K: KindFloat, I: int64(math.Float64bits(math.NaN()))} // one NaN, whatever its payload
		}
		return DistinctKey{K: KindFloat, I: int64(math.Float64bits(v.F))}
	default: // int, bool, date: canonical numeric form
		return DistinctKey{K: KindInt, I: v.I}
	}
}

// AppendGroupKey appends a collision-safe grouping/dedup key for vals to
// buf and returns the extended slice: per value a kind byte, a uvarint
// length prefix, and the canonical rendering. The uvarint prefix keeps the
// key unambiguous for text of any length (a fixed-width prefix would wrap
// and let values straddle column boundaries). Grouping and duplicate
// elimination across the whole engine key on this one function, so the
// worker-side partial aggregation and the single-consumer hash aggregation
// agree on group identity byte for byte.
//
// Runs once per row of every grouped query.
//
//nodbvet:hotpath
func AppendGroupKey(buf []byte, vals []Value) []byte {
	var num [32]byte // numbers render here, not into a fresh string
	for _, v := range vals {
		buf = append(buf, byte(v.K))
		var r []byte
		switch v.K {
		case KindInt:
			r = strconv.AppendInt(num[:0], v.I, 10)
		case KindFloat:
			r = strconv.AppendFloat(num[:0], v.F, 'g', -1, 64)
		default:
			s := v.String()
			buf = binary.AppendUvarint(buf, uint64(len(s)))
			buf = append(buf, s...)
			continue
		}
		buf = binary.AppendUvarint(buf, uint64(len(r)))
		buf = append(buf, r...)
	}
	return buf
}

// SizeBytes returns the approximate in-memory footprint of the value, used
// by budget accounting in the cache.
func (v Value) SizeBytes() int64 {
	if v.K == KindText {
		return int64(24 + len(v.S))
	}
	return 24
}
