package main

import (
	"bufio"
	"bytes"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"regexp"
	"strconv"
)

// digest summarises a query result independently of row order: the row
// count, a column-weighted sum of the integer cells, the sum of the float
// cells and a column-weighted sum of FNV-1a hashes of the text cells. The
// reference computes it with strconv over the raw CSV; the client computes it
// from the rows it drains; a query passes when the two agree.
type digest struct {
	rows   int64
	ints   int64
	floats float64
	text   uint64
}

func (d *digest) addInt(col int, v int64)     { d.ints += int64(col+1) * v }
func (d *digest) addFloat(col int, v float64) { d.floats += float64(col+1) * v }
func (d *digest) addText(col int, s string)   { d.text += uint64(col+1) * fnvString(s) }

func fnvString(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

func (d digest) plus(o digest) digest {
	return digest{d.rows + o.rows, d.ints + o.ints, d.floats + o.floats, d.text + o.text}
}

func (d digest) String() string {
	return fmt.Sprintf("rows=%d ints=%d floats=%g text=%x", d.rows, d.ints, d.floats, d.text)
}

// equal compares exactly, except the float sum: the engine and the reference
// add in different orders, so that is held to a relative 1e-9.
func (d digest) equal(o digest) bool {
	tol := 1e-9 * math.Max(1, math.Max(math.Abs(d.floats), math.Abs(o.floats)))
	return d.rows == o.rows && d.ints == o.ints && d.text == o.text && math.Abs(d.floats-o.floats) <= tol
}

// intsEval is the naive evaluation of one query over the integer table: row
// is called once per CSV line with the parsed attributes, done returns the
// expected digest.
type intsEval struct {
	row  func(a []int64)
	done func() digest
}

// mixedRow is one parsed line of the mixed table (the columns queries use).
type mixedRow struct {
	user  string
	score float64
	grp   int64
}

type mixedEval struct {
	row  func(r *mixedRow)
	done func() digest
}

// selectInts evaluates SELECT <exprs> FROM t WHERE pred: one output row per
// qualifying line, each expr an integer cell.
func selectInts(pred func(a []int64) bool, exprs ...func(a []int64) int64) intsEval {
	var d digest
	return intsEval{
		row: func(a []int64) {
			if !pred(a) {
				return
			}
			d.rows++
			for c, e := range exprs {
				d.addInt(c, e(a))
			}
		},
		done: func() digest { return d },
	}
}

// aggInts evaluates a global aggregate query: each agg folds the qualifying
// lines into one integer, the result is a single row.
func aggInts(pred func(a []int64) bool, aggs ...func(a []int64) int64) intsEval {
	acc := make([]int64, len(aggs))
	return intsEval{
		row: func(a []int64) {
			if !pred(a) {
				return
			}
			for i, g := range aggs {
				acc[i] += g(a)
			}
		},
		done: func() digest {
			d := digest{rows: 1}
			for c, v := range acc {
				d.addInt(c, v)
			}
			return d
		},
	}
}

func col(i int) func(a []int64) int64 { return func(a []int64) int64 { return a[i] } }
func one(a []int64) int64             { return 1 }
func all(a []int64) bool              { return true }

// groupCountSumInts evaluates SELECT key, count(*), sum(arg) ... GROUP BY key.
func groupCountSumInts(key, arg int) intsEval {
	type st struct{ n, sum int64 }
	groups := map[int64]*st{}
	return intsEval{
		row: func(a []int64) {
			g := groups[a[key]]
			if g == nil {
				g = &st{}
				groups[a[key]] = g
			}
			g.n++
			g.sum += a[arg]
		},
		done: func() digest {
			var d digest
			for k, g := range groups {
				d.rows++
				d.addInt(0, k)
				d.addInt(1, g.n)
				d.addInt(2, g.sum)
			}
			return d
		},
	}
}

var shiftingRE = regexp.MustCompile(`^SELECT a(\d+), a(\d+) FROM t WHERE a(\d+) < (\d+)$`)

// shiftingEval evaluates one query of workload.ShiftingWindows, whose text
// is always SELECT ax, ay FROM t WHERE az < n.
func shiftingEval(sql string) intsEval {
	m := shiftingRE.FindStringSubmatch(sql)
	if m == nil {
		// Only a change to workload.ShiftingWindows can get here.
		panic(fmt.Sprintf("reference: unexpected shifting-window query %q", sql))
	}
	var n [4]int64
	for i := range n {
		n[i], _ = strconv.ParseInt(m[i+1], 10, 64) // digits by the regexp
	}
	x, y, z, limit := int(n[0]), int(n[1]), int(n[2]), n[3]
	return selectInts(func(a []int64) bool { return a[z] < limit }, col(x), col(y))
}

// scanInts makes one pass over an integer CSV and feeds every eval.
func scanInts(path string, nattrs int, evals []intsEval) error {
	a := make([]int64, nattrs) // reused: evals read it and keep nothing
	return scanLines(path, func(line []byte) error {
		fields := bytes.Split(line, []byte{','})
		if len(fields) != nattrs {
			return fmt.Errorf("reference: %s: line has %d fields, want %d", path, len(fields), nattrs)
		}
		for i, f := range fields {
			v, err := strconv.ParseInt(string(f), 10, 64)
			if err != nil {
				return fmt.Errorf("reference: %s: %w", path, err)
			}
			a[i] = v
		}
		for _, e := range evals {
			e.row(a)
		}
		return nil
	})
}

// scanMixed makes one pass over a mixed CSV (id, user, score, grp, note).
func scanMixed(path string, evals []mixedEval) error {
	return scanLines(path, func(line []byte) error {
		fields := bytes.Split(line, []byte{','})
		if len(fields) != 5 {
			return fmt.Errorf("reference: %s: line has %d fields, want 5", path, len(fields))
		}
		score, err := strconv.ParseFloat(string(fields[2]), 64)
		if err != nil {
			return fmt.Errorf("reference: %s: %w", path, err)
		}
		grp, err := strconv.ParseInt(string(fields[3]), 10, 64)
		if err != nil {
			return fmt.Errorf("reference: %s: %w", path, err)
		}
		r := mixedRow{user: string(fields[1]), score: score, grp: grp}
		for _, e := range evals {
			e.row(&r)
		}
		return nil
	})
}

func scanLines(path string, fn func(line []byte) error) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("reference: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if err := fn(sc.Bytes()); err != nil {
			return err
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("reference: %s: %w", path, err)
	}
	return nil
}
