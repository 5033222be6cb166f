package expr

import (
	"testing"

	"nodb/internal/sql"
	"nodb/internal/value"
)

// FuzzVecEval generates random expressions and random batches (NULLs,
// empty batches, empty/narrowed selections) from the fuzz input and
// cross-checks the vectorized evaluator against row-at-a-time evaluation:
// identical values for every selected row, an identical TRUE-selection,
// and errors on one path exactly when the other path errors.
//
// CI runs this with a short -fuzztime as a smoke test; without -fuzz it
// still executes the seed corpus as a regular test.
func FuzzVecEval(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	f.Add([]byte("vectorized-vs-row differential seed"))
	seed := make([]byte, 256)
	for i := range seed {
		seed[i] = byte(i * 17)
	}
	f.Add(seed)
	for i := range seed {
		seed[i] = byte(255 - i)
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		g := &fz{data: data}
		env, rows, cols := g.batch()
		sel := g.sel(len(rows))

		var e sql.Expr
		if g.b()%4 == 0 {
			e = g.num(3) // projection-style numeric expression
		} else {
			e = g.boolean(3)
		}
		n, err := Compile(e, env)
		if err != nil {
			return // generator produced an expression the compiler rejects
		}
		ve, _ := CompileVec(n)

		// Row-at-a-time reference, stopping at the first error like the
		// batch operators do.
		var want []value.Value
		var wantTrue []int32
		var rowErr error
		for _, r := range sel {
			v, err := n.Eval(rows[r])
			if err != nil {
				rowErr = err
				break
			}
			want = append(want, v)
			if v.IsTrue() {
				wantTrue = append(wantTrue, r)
			}
		}

		out := make([]value.Value, len(sel))
		vecErr := ve.EvalInto(cols, sel, out)
		if (rowErr != nil) != (vecErr != nil) {
			t.Fatalf("expr %s: row err %v, vec err %v", e.String(), rowErr, vecErr)
		}
		if rowErr != nil {
			return // both error; which row surfaces first may differ
		}
		for k := range sel {
			if out[k] != want[k] {
				t.Fatalf("expr %s row %d: vec=%#v row=%#v", e.String(), sel[k], out[k], want[k])
			}
		}
		got, selErr := ve.SelectTrue(cols, sel, nil)
		if selErr != nil {
			t.Fatalf("expr %s: SelectTrue err %v after clean EvalInto", e.String(), selErr)
		}
		if len(got) != len(wantTrue) {
			t.Fatalf("expr %s: SelectTrue=%v want %v", e.String(), got, wantTrue)
		}
		for i := range got {
			if got[i] != wantTrue[i] {
				t.Fatalf("expr %s: SelectTrue=%v want %v", e.String(), got, wantTrue)
			}
		}
	})
}

// fz drives generation from the fuzz input; an exhausted stream yields
// zeros, keeping every input valid.
type fz struct {
	data []byte
	pos  int
}

func (g *fz) b() byte {
	if g.pos >= len(g.data) {
		return 0
	}
	v := g.data[g.pos]
	g.pos++
	return v
}

// batch builds the fuzz environment (ai, bi int; fa float; sa text; ba
// bool; da date) and a random batch over it.
func (g *fz) batch() (*Env, [][]value.Value, [][]value.Value) {
	env := NewEnv()
	env.Add("", "ai", value.KindInt)
	env.Add("", "bi", value.KindInt)
	env.Add("", "fa", value.KindFloat)
	env.Add("", "sa", value.KindText)
	env.Add("", "ba", value.KindBool)
	env.Add("", "da", value.KindDate)

	texts := []string{"", "a", "ab", "abc", "ba", "v1x", "hello", "%"}
	nrows := int(g.b() % 33) // includes empty batches
	rows := make([][]value.Value, nrows)
	for r := range rows {
		row := make([]value.Value, env.Len())
		for c := range row {
			if g.b()%5 == 0 {
				row[c] = value.Null()
				continue
			}
			switch env.Col(c).Kind {
			case value.KindInt:
				row[c] = value.Int(int64(int8(g.b())))
			case value.KindFloat:
				row[c] = value.Float(float64(int8(g.b())) / 2)
			case value.KindText:
				row[c] = value.Text(texts[int(g.b())%len(texts)])
			case value.KindBool:
				row[c] = value.Bool(g.b()%2 == 0)
			case value.KindDate:
				row[c] = value.Date(int64(g.b() % 100))
			}
		}
		rows[r] = row
	}
	// Real engine batches always carry one (possibly empty) column per
	// environment slot, so build them at full width even for zero rows.
	cols := make([][]value.Value, env.Len())
	for c := range cols {
		cols[c] = make([]value.Value, nrows)
		for r := range rows {
			cols[c][r] = rows[r][c]
		}
	}
	return env, rows, cols
}

// sel picks a selection shape: all rows, none, evens, or a random subset.
func (g *fz) sel(n int) []int32 {
	var sel []int32
	switch g.b() % 4 {
	case 0:
		for i := 0; i < n; i++ {
			sel = append(sel, int32(i))
		}
	case 1: // empty (all rows filtered upstream)
	case 2:
		for i := 0; i < n; i += 2 {
			sel = append(sel, int32(i))
		}
	default:
		for i := 0; i < n; i++ {
			if g.b()%3 != 0 {
				sel = append(sel, int32(i))
			}
		}
	}
	return sel
}

// num generates a numeric-kinded expression.
func (g *fz) num(d int) sql.Expr {
	c := g.b() % 11
	if d <= 0 {
		c %= 6
	}
	switch c {
	case 0:
		return sql.ColumnRef{Name: "ai"}
	case 1:
		return sql.ColumnRef{Name: "bi"}
	case 2:
		return sql.ColumnRef{Name: "fa"}
	case 3:
		return sql.IntLit{V: int64(int8(g.b()))}
	case 4:
		return sql.FloatLit{V: float64(int8(g.b())) / 4}
	case 5:
		return sql.NullLit{}
	case 6:
		return sql.UnaryExpr{Op: "-", X: g.num(d - 1)}
	case 7:
		return sql.FuncCall{Name: "ABS", Args: []sql.Expr{g.num(d - 1)}}
	case 8:
		return sql.FuncCall{Name: "LENGTH", Args: []sql.Expr{g.str(d - 1)}}
	case 9:
		return sql.FuncCall{Name: "COALESCE", Args: []sql.Expr{g.num(d - 1), g.num(d - 1)}}
	default:
		ops := []string{sql.OpAdd, sql.OpSub, sql.OpMul, sql.OpDiv, sql.OpMod}
		return sql.BinaryExpr{Op: ops[int(g.b())%len(ops)], Left: g.num(d - 1), Right: g.num(d - 1)}
	}
}

// str generates a text-kinded expression.
func (g *fz) str(d int) sql.Expr {
	texts := []string{"", "a", "ab", "abc", "hello", "v1x"}
	c := g.b() % 6
	if d <= 0 {
		c %= 3
	}
	switch c {
	case 0:
		return sql.ColumnRef{Name: "sa"}
	case 1:
		return sql.StringLit{V: texts[int(g.b())%len(texts)]}
	case 2:
		return sql.NullLit{}
	case 3:
		name := "UPPER"
		if g.b()%2 == 0 {
			name = "LOWER"
		}
		return sql.FuncCall{Name: name, Args: []sql.Expr{g.str(d - 1)}}
	case 4:
		args := []sql.Expr{g.str(d - 1), g.num(d - 1)}
		if g.b()%2 == 0 {
			args = append(args, g.num(d-1))
		}
		return sql.FuncCall{Name: "SUBSTR", Args: args}
	default:
		return sql.FuncCall{Name: "COALESCE", Args: []sql.Expr{g.str(d - 1), g.str(d - 1)}}
	}
}

// pattern generates a LIKE pattern literal.
func (g *fz) pattern() sql.Expr {
	chars := []byte{'a', 'b', '%', '_', 'h', 'v'}
	n := int(g.b() % 5)
	p := make([]byte, n)
	for i := range p {
		p[i] = chars[int(g.b())%len(chars)]
	}
	return sql.StringLit{V: string(p)}
}

// boolean generates a boolean-kinded expression.
func (g *fz) boolean(d int) sql.Expr {
	cmps := []string{sql.OpEq, sql.OpNe, sql.OpLt, sql.OpLe, sql.OpGt, sql.OpGe}
	c := g.b() % 12
	if d <= 0 {
		c %= 3
	}
	switch c {
	case 0:
		return sql.ColumnRef{Name: "ba"}
	case 1:
		return sql.BoolLit{V: g.b()%2 == 0}
	case 2:
		return sql.NullLit{}
	case 3:
		return sql.BinaryExpr{Op: cmps[int(g.b())%len(cmps)], Left: g.num(d - 1), Right: g.num(d - 1)}
	case 4:
		return sql.BinaryExpr{Op: cmps[int(g.b())%len(cmps)], Left: g.str(d - 1), Right: g.str(d - 1)}
	case 5: // mixed text-vs-numeric comparison (generic mode)
		return sql.BinaryExpr{Op: cmps[int(g.b())%len(cmps)], Left: g.num(d - 1), Right: g.str(d - 1)}
	case 6:
		op := sql.OpAnd
		if g.b()%2 == 0 {
			op = sql.OpOr
		}
		return sql.BinaryExpr{Op: op, Left: g.boolean(d - 1), Right: g.boolean(d - 1)}
	case 7:
		return sql.UnaryExpr{Op: "NOT", X: g.boolean(d - 1)}
	case 8:
		return sql.IsNullExpr{X: g.any(d - 1), Not: g.b()%2 == 0}
	case 9:
		nitems := 1 + int(g.b()%4)
		items := make([]sql.Expr, nitems)
		for i := range items {
			if g.b()%6 == 0 {
				items[i] = sql.NullLit{}
			} else {
				items[i] = sql.IntLit{V: int64(int8(g.b()))}
			}
		}
		return sql.InExpr{X: g.num(d - 1), List: items, Not: g.b()%2 == 0}
	case 10:
		return sql.BetweenExpr{X: g.num(d - 1), Lo: g.num(d - 1), Hi: g.num(d - 1), Not: g.b()%2 == 0}
	default:
		return sql.LikeExpr{X: g.str(d - 1), Pattern: g.pattern(), Not: g.b()%2 == 0}
	}
}

// any generates an expression of a random kind.
func (g *fz) any(d int) sql.Expr {
	switch g.b() % 3 {
	case 0:
		return g.num(d)
	case 1:
		return g.str(d)
	default:
		return g.boolean(d)
	}
}
