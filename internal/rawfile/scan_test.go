package rawfile

import (
	"bytes"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// refTokenizeUpTo is the byte-at-a-time reference for TokenizeUpTo: one
// field end per step, the row length for the last field, nothing once the
// scan starts past the row.
func refTokenizeUpTo(row []byte, sep byte, from, upto, start int, ends []int32) []int32 {
	pos := start
	for f := from; f <= upto; f++ {
		if pos > len(row) {
			break
		}
		i := pos
		for i < len(row) && row[i] != sep {
			i++
		}
		if i == len(row) {
			return append(ends, int32(len(row)))
		}
		ends = append(ends, int32(i))
		pos = i + 1
	}
	return ends
}

// FuzzTokenizeUpTo checks the word-at-a-time scanner against the reference
// over arbitrary row bytes, separators, field ranges and start offsets: as
// TokenizeUpTo over the row alone, and as FieldEnds over the row embedded
// in a chunk buffer after other bytes (how scans call it), where the
// scanner's last-word load reads bytes before the row's start.
func FuzzTokenizeUpTo(f *testing.F) {
	add := func(row string, sep byte, from, upto uint8, start uint16) {
		f.Add([]byte(row), sep, from, upto, start, []byte(",-,\x80,7,"))
	}
	for _, sep := range []byte{',', '|', '\t', ';', 0x00, 0x7f, 0x80, 0xfe, 0xff} {
		// sep+1 (for ',' that is '-': every negative number) right after a
		// separator, inside one word and across words.
		next := string([]byte{sep + 1})
		row := "1" + string(sep) + next + "2" + string(sep) + next + next + string(sep) + next
		add(row, sep, 0, 9, 0)
		add(row+row+row, sep, 1, 30, 2)
	}
	add("-1,-2,-3,-4,-5,-6,-7,-8,-9", ',', 0, 8, 0)
	add("\x80,\x81,\xff,\xfe\xfd,\xc3\xa9,\x80\x80\x80\x80\x80\x80\x80\x80,z", ',', 0, 7, 0)
	add("\x80\xff\x80\xff\x80\xff\x80\xff\x80", 0xff, 0, 9, 0)
	add("abcdefg,,hijklmn,opq", ',', 0, 5, 0) // separators at offsets 7 and 8
	add("abcdefgh,ijklmnop,q", ',', 0, 3, 0)
	add("a,b", ',', 0, 3, 0) // shorter than a word
	add("a,b,c,d", ',', 2, 2, 4)
	add("", ',', 0, 0, 0)                           // empty row
	add("abcdefghijklmnopqrstuvwxyz", ',', 0, 3, 0) // no separator
	add("abc", ',', 0, 0, 3)                        // start == len(row)
	add("abc,def", ',', 0, 1, 9)                    // start > len(row)
	add("a,b,c,", ',', 0, 9, 0)                     // trailing separator
	add("0123456789,0123456789,0123456789,", ',', 0, 9, 11)
	add("x,y", ',', 1, 0, 0) // from > upto: nothing to tokenize
	add(strings.Repeat("1,", 70), ',', 0, 47, 0)

	f.Fuzz(func(t *testing.T, row []byte, sep byte, from, upto uint8, start uint16, before []byte) {
		fr := int(from) % 16
		up := int(upto) % 48
		st := int(start) % (len(row) + 3) // covers start == len(row) and start > len(row)
		prefix := []int32{-7}
		got := TokenizeUpTo(row, sep, fr, up, st, prefix[:1:1])
		want := refTokenizeUpTo(row, sep, fr, up, st, []int32{-7})
		if !equalInt32(got, want) {
			t.Fatalf("TokenizeUpTo(%q, %q, %d, %d, %d) = %v, reference %v", row, sep, fr, up, st, got, want)
		}

		// FieldEnds over the row at the end of a chunk buffer, in data
		// coordinates, into a uint32 slab.
		if up < fr {
			return
		}
		data := append(append([]byte(nil), before...), row...)
		dst := make([]uint32, up-fr+1)
		n := FieldEnds(data, sep, len(before)+st, dst)
		ref := want[1:]
		if n != len(ref) {
			t.Fatalf("FieldEnds after %d bytes: %d ends, reference %d", len(before), n, len(ref))
		}
		for i := 0; i < n; i++ {
			if int(dst[i]) != len(before)+int(ref[i]) {
				t.Fatalf("FieldEnds after %d bytes: end %d at %d, reference %d", len(before), i, dst[i], len(before)+int(ref[i]))
			}
		}

		// The whole-row helpers agree with the reference too, and so does
		// an unbounded field range.
		all := refTokenizeUpTo(row, sep, 0, len(row), 0, nil)
		if got := TokenizeUpTo(row, sep, 0, math.MaxInt32, 0, nil); !equalInt32(got, all) {
			t.Fatalf("TokenizeUpTo(%q, %q, 0, MaxInt32, 0) = %v, reference %v", row, sep, got, all)
		}
		if c := CountFields(row, sep); c != len(all) {
			t.Fatalf("CountFields(%q) = %d, reference %d", row, c, len(all))
		}
		fields := SplitAll(row, sep)
		prev := int32(-1)
		for i, e := range all {
			if !bytes.Equal(fields[i], row[prev+1:e]) {
				t.Fatalf("SplitAll(%q)[%d] = %q, reference %q", row, i, fields[i], row[prev+1:e])
			}
			prev = e
		}
	})
}

func equalInt32(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// refChunk is one chunk as the reference splitter cuts it.
type refChunk struct {
	base, end  int   // file bytes [base, end) the chunk consumes
	start, fin []int // per row: content start and end, file coordinates
}

// refSplitLines is the line-at-a-time reference for NextChunk over a whole
// file: up to maxRows non-empty lines per chunk, a trailing \r trimmed, a
// final line without \n kept, blank lines skipped (and consumed by the
// chunk they precede).
func refSplitLines(data []byte, maxRows int) []refChunk {
	var out []refChunk
	base := 0
	for {
		c := refChunk{base: base}
		lineStart := base
		for len(c.start) < maxRows {
			nl := bytes.IndexByte(data[lineStart:], '\n')
			end := len(data)
			if nl >= 0 {
				end = lineStart + nl
			} else if lineStart == len(data) {
				break
			}
			fin := end
			if fin > lineStart && data[fin-1] == '\r' {
				fin--
			}
			if fin > lineStart {
				c.start = append(c.start, lineStart)
				c.fin = append(c.fin, fin)
			}
			if nl < 0 {
				lineStart = len(data)
				break
			}
			lineStart = end + 1
		}
		if len(c.start) == 0 {
			return out
		}
		c.end = lineStart
		out = append(out, c)
		base = lineStart
	}
}

// FuzzSplitLines checks the line splitter of NextChunk (with blocks small
// enough that rows span several fills) and of ReadChunkAt (on each chunk's
// byte range) against the reference.
func FuzzSplitLines(f *testing.F) {
	f.Add([]byte("a,1\r\nb,2\r\n"), uint8(2), uint8(3))
	f.Add([]byte("a\n\n\r\nb\n\n"), uint8(1), uint8(1))
	f.Add([]byte("a,1\nb,2\nlast"), uint8(5), uint8(4))
	f.Add([]byte("0123456789abcdefghijklmnopqrstuvwxyz,0123456789\nshort\n"), uint8(1), uint8(7))
	f.Add([]byte("\r\n\r\n\n"), uint8(3), uint8(2))
	f.Add([]byte("x\ry\r\rz\n\r"), uint8(2), uint8(5))
	f.Add([]byte(""), uint8(1), uint8(1))

	f.Fuzz(func(t *testing.T, data []byte, maxRows, block uint8) {
		rows := int(maxRows)%9 + 1
		path := filepath.Join(t.TempDir(), "f.csv")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		r, err := Open(path, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		want := refSplitLines(data, rows)

		cr := NewChunkReader(r, int(block)%24+1)
		var ch Chunk
		for i := 0; ; i++ {
			err := cr.NextChunk(rows, &ch)
			if err == io.EOF {
				if i != len(want) {
					t.Fatalf("NextChunk: %d chunks, reference %d", i, len(want))
				}
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			if i >= len(want) {
				t.Fatalf("NextChunk: more than the reference's %d chunks", len(want))
			}
			sameChunk(t, "NextChunk", &ch, want[i])
			if got := cr.Offset(); got != int64(want[i].end) {
				t.Fatalf("NextChunk chunk %d: offset after it %d, reference %d", i, got, want[i].end)
			}
		}

		var buf []byte
		for i, w := range want {
			limit := int64(len(data))
			if i+1 < len(want) {
				limit = int64(want[i+1].base)
			}
			buf, err = ReadChunkAt(r, int64(w.base), limit, rows, buf, &ch)
			if err != nil {
				t.Fatalf("ReadChunkAt chunk %d: %v", i, err)
			}
			sameChunk(t, "ReadChunkAt", &ch, w)
		}
	})
}

func sameChunk(t *testing.T, label string, ch *Chunk, w refChunk) {
	t.Helper()
	if ch.Base != int64(w.base) || ch.Rows != len(w.start) || len(ch.Data) != w.end-w.base {
		t.Fatalf("%s: chunk base %d, %d rows, %d bytes; reference base %d, %d rows, %d bytes",
			label, ch.Base, ch.Rows, len(ch.Data), w.base, len(w.start), w.end-w.base)
	}
	for i := range w.start {
		if int(ch.Start[i]) != w.start[i]-w.base || int(ch.End[i]) != w.fin[i]-w.base {
			t.Fatalf("%s: row %d spans [%d,%d), reference [%d,%d)", label, i,
				ch.Start[i], ch.End[i], w.start[i]-w.base, w.fin[i]-w.base)
		}
	}
}
