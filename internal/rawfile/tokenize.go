package rawfile

import (
	"encoding/binary"
	"math/bits"
	"slices"
)

// Tokenization vocabulary: "delimiter d" is the boundary that ends field d.
// For a row with A fields, delimiter indexes run 0..A-1; delimiters 0..A-2
// are the positions of the separator byte, and delimiter A-1 is the row end.
// Delimiter -1 denotes the start of the row. Field d spans
// (pos(d-1), pos(d)) exclusive of both boundary bytes, except field 0 which
// starts at pos(-1) itself (the row start is not a separator byte).

// Word-at-a-time scanning constants: lanes holds 0x01 in every byte, low7
// holds 0x7f in every byte.
const (
	lanes = 0x0101010101010101
	low7  = 0x7f7f7f7f7f7f7f7f
)

// zeroLanes returns a mask with bit 7 of every byte lane of x that is zero
// set, and every other bit clear. The form is exact for every lane: adding
// 0x7f to the low seven bits of a lane sets its top bit unless they are all
// zero, and never carries into the next lane. (The shorter
// (x-0x01..)&^x&0x80.. is exact only for the first zero lane: its borrow
// also flags a 0x01 lane right after a zero one, so "sep+1" bytes would
// read as separators.)
func zeroLanes(x uint64) uint64 {
	return ^(((x & low7) + low7) | x | low7)
}

// indexAll is the byte scanner every row and line split goes through: it
// writes to out the offsets in b of the first len(out) bytes equal to c at
// or after start, and returns how many it found. It loads eight bytes at a
// time, marks the matching lanes with an exact zero-lane mask, and spends
// one bits.TrailingZeros64 per hit; rows shorter than a word are scanned
// byte by byte, and the last partial word is read as the row's final eight
// bytes with the lanes already scanned masked off.
//
// Runs once per row (and once per block of lines) on every cold scan.
//
//nodbvet:hotpath
func indexAll[T int32 | uint32](b []byte, c byte, start int, out []T) int {
	n := 0
	if len(out) == 0 || start >= len(b) {
		return 0
	}
	if len(b) < 8 {
		for i := start; i < len(b); i++ {
			if b[i] == c {
				out[n] = T(i)
				n++
				if n == len(out) {
					return n
				}
			}
		}
		return n
	}
	pat := uint64(c) * lanes
	i := start
	// Two words per step while they fit: sparse bytes (newlines) cost one
	// test per sixteen bytes.
	for ; i+16 <= len(b); i += 16 {
		m0 := zeroLanes(binary.LittleEndian.Uint64(b[i:]) ^ pat)
		m1 := zeroLanes(binary.LittleEndian.Uint64(b[i+8:]) ^ pat)
		if m0|m1 == 0 {
			continue
		}
		for m0 != 0 {
			out[n] = T(i + bits.TrailingZeros64(m0)>>3)
			n++
			if n == len(out) {
				return n
			}
			m0 &= m0 - 1
		}
		for m1 != 0 {
			out[n] = T(i + 8 + bits.TrailingZeros64(m1)>>3)
			n++
			if n == len(out) {
				return n
			}
			m1 &= m1 - 1
		}
	}
	for ; i+8 <= len(b); i += 8 {
		m := zeroLanes(binary.LittleEndian.Uint64(b[i:]) ^ pat)
		for m != 0 {
			out[n] = T(i + bits.TrailingZeros64(m)>>3)
			n++
			if n == len(out) {
				return n
			}
			m &= m - 1
		}
	}
	if i < len(b) {
		j := len(b) - 8
		m := zeroLanes(binary.LittleEndian.Uint64(b[j:])^pat) & (^uint64(0) << (8 * uint(i-j)))
		for m != 0 {
			out[n] = T(j + bits.TrailingZeros64(m)>>3)
			n++
			if n == len(out) {
				return n
			}
			m &= m - 1
		}
	}
	return n
}

// indexFrom returns the offset of the first c in b at or after start, or -1.
func indexFrom(b []byte, c byte, start int) int {
	var one [1]int32
	if indexAll(b, c, start, one[:]) == 0 {
		return -1
	}
	return int(one[0])
}

// FieldEnds writes to out the end boundaries of consecutive fields of row,
// the first of which starts at byte offset start: the offsets of the next
// separators, and — when the row runs out of separators first — len(row)
// as the boundary of its last field. It returns the number of entries
// written: len(out), or fewer when the row has fewer fields left (0 when
// start > len(row)). One call tokenizes as many fields of a row as a query
// needs; scanning stops at the last one.
func FieldEnds[T int32 | uint32](row []byte, sep byte, start int, out []T) int {
	if start > len(row) || len(out) == 0 {
		return 0
	}
	n := indexAll(row, sep, start, out)
	if n < len(out) {
		out[n] = T(len(row))
		n++
	}
	return n
}

// TokenizeUpTo scans row (the content bytes of one line, no terminator) for
// separator positions and appends to ends the end boundary of each field
// from field `from` up to and including field `upto`, assuming scanning
// starts at byte offset `start` within the row (the position just after
// delimiter from-1, i.e. the first byte of field `from`).
//
// It returns the extended slice; fewer entries are appended when the row has
// fewer fields. The last field's boundary is the row length. This is the
// paper's selective tokenizing: scanning aborts once `upto` is reached.
//
//nodbvet:hotpath
func TokenizeUpTo(row []byte, sep byte, from, upto, start int, ends []int32) []int32 {
	// A row has at most one field per remaining byte, plus one.
	want := min(upto-from+1, len(row)-start+1)
	if want <= 0 {
		return ends
	}
	n := len(ends)
	ends = slices.Grow(ends, want)
	return ends[:n+FieldEnds(row, sep, start, ends[n:n+want])]
}

// CountFields returns the number of fields in the row.
func CountFields(row []byte, sep byte) int {
	var buf [64]int32
	n, start := 1, 0
	for {
		k := indexAll(row, sep, start, buf[:])
		n += k
		if k < len(buf) {
			return n
		}
		start = int(buf[k-1]) + 1
	}
}

// Field slices field content out of a row given the positions of delimiter
// d-1 (prev) and delimiter d (end), following the boundary convention above.
// Pass prev = -1 for field 0.
func Field(row []byte, prev, end int32) []byte {
	start := prev + 1
	if prev < 0 {
		start = 0
	}
	if int(end) > len(row) {
		end = int32(len(row))
	}
	if start > end {
		return nil
	}
	return row[start:end]
}

// SplitAll tokenizes a whole row into fields (reference implementation used
// by the loader, schema inference, and property tests).
func SplitAll(row []byte, sep byte) [][]byte {
	ends := make([]int32, CountFields(row, sep))
	FieldEnds(row, sep, 0, ends)
	out := make([][]byte, len(ends))
	prev := int32(-1)
	for i, e := range ends {
		out[i] = row[prev+1 : e]
		prev = e
	}
	return out
}

// SplitQuoted tokenizes one CSV row honoring double-quoted fields with ""
// escapes (RFC-4180 style, single line). It allocates only when a field
// contains escaped quotes. Used by the loader when quoting is enabled; the
// in-situ fast path assumes separator bytes do not occur inside fields.
func SplitQuoted(row []byte, sep byte) [][]byte {
	var out [][]byte
	i := 0
	for {
		if i >= len(row) {
			out = append(out, nil)
			return out
		}
		if row[i] == '"' {
			// Quoted field.
			var buf []byte
			j := i + 1
			fieldStart := j
			escaped := false
			for j < len(row) {
				if row[j] == '"' {
					if j+1 < len(row) && row[j+1] == '"' {
						if !escaped {
							buf = append(buf, row[fieldStart:j]...)
							escaped = true
						} else {
							buf = append(buf, row[fieldStart:j]...)
						}
						buf = append(buf, '"')
						j += 2
						fieldStart = j
						continue
					}
					break
				}
				j++
			}
			var field []byte
			if escaped {
				field = append(buf, row[fieldStart:j]...)
			} else {
				field = row[i+1 : j]
			}
			out = append(out, field)
			j++ // closing quote
			if j >= len(row) {
				return out
			}
			// skip separator
			if row[j] == sep {
				i = j + 1
				continue
			}
			i = j
			continue
		}
		k := indexFrom(row, sep, i)
		if k < 0 {
			out = append(out, row[i:])
			return out
		}
		out = append(out, row[i:k])
		i = k + 1
	}
}
