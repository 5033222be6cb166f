// Vectorized (column-at-a-time) expression evaluation over engine batches.
//
// CompileVec translates a compiled row Node into a VecEval that evaluates
// whole batch columns per operator instead of assembling a scratch row per
// selected index. Each node owns a typed output vector (int64/float64/string
// slabs plus a validity slice) reused across batches, so a warm filter or
// projection runs tight monomorphic loops with no per-row interface
// dispatch and no steady-state allocation. Logical AND/OR evaluate their
// right side only over the rows the left side left undecided
// (selection-vector narrowing), which reproduces the row evaluator's
// short-circuit semantics exactly — including which rows can raise runtime
// errors such as division by zero.
//
// VecEval is the one way operators evaluate an expression. Kernels cover
// expressions per node; for an expression with a node outside them
// (today: negation of non-numeric operands, IN over non-constant lists,
// COALESCE over mixed argument kinds, and any Node defined outside this
// package) CompileVec reports ok=false and returns an evaluator that runs
// the row evaluator over every batch, exactly as a kernel batch does when
// it meets a value outside the static type model. Kernel results are
// byte-identical to row evaluation; a query errors under one evaluator
// exactly when it errors under the other (possibly with a different row's
// error surfacing first). The differential property suite and FuzzVecEval
// assert both.
package expr

import (
	"errors"
	"fmt"
	"strings"

	"nodb/internal/sql"
	"nodb/internal/value"
)

// errVecBail signals that a batch holds a value whose runtime kind differs
// from the column's static kind, so the typed kernels cannot represent it,
// or that the expression has no kernels. VecEval falls back to
// row-at-a-time evaluation for the whole batch; the error never escapes
// the package.
var errVecBail = errors.New("expr: batch value outside the static type model")

// Arithmetic runtime errors, shared by the row and vector evaluators so the
// hot kernels return a preallocated value instead of formatting per failure
// (and the two paths stay byte-identical on the error message).
var (
	errDivZero = errors.New("expr: division by zero")
	errModZero = errors.New("expr: modulo by zero")
)

// VecEval is a compiled batch evaluator. It carries per-node scratch
// vectors reused across batches and is therefore NOT safe for concurrent
// use; callers that evaluate from several goroutines (the parallel scan's
// chunk workers) must compile one VecEval each.
type VecEval struct {
	root    vecNode // nil: no kernel, every batch takes the row fallback
	row     Node    // original row node, for the row fallback
	rowBuf  []value.Value
	vecRows int64
}

// VecRows returns the cumulative number of row evaluations this evaluator
// served through its typed kernels. Rows diverted to the row fallback are
// not counted, so callers charging metrics from deltas of this counter
// report only genuinely column-at-a-time work.
func (e *VecEval) VecRows() int64 { return e.vecRows }

// CompileVec translates a compiled row expression into a batch evaluator.
// It always returns a working evaluator; ok=false means some node has no
// vector kernel, and the evaluator then runs the row evaluator over every
// batch.
func CompileVec(n Node) (*VecEval, bool) {
	vn, ok := compileVecNode(n)
	if !ok {
		return &VecEval{row: n}, false
	}
	return &VecEval{root: vn, row: n}, true
}

// Kind returns the statically inferred result type: the kernels' when
// there are any, else the row node's.
func (e *VecEval) Kind() value.Kind {
	if e.root == nil {
		return e.row.Kind()
	}
	return e.root.kind()
}

// eval runs the kernels, or reports errVecBail when there are none.
func (e *VecEval) eval(cols [][]value.Value, sel []int32) (*vec, error) {
	if e.root == nil {
		return nil, errVecBail
	}
	return e.root.eval(cols, sel)
}

// SelectTrue evaluates the expression as a predicate over rows sel of cols
// (cols indexed by environment slot, sel listing live row indexes) and
// appends to dst the rows for which it is TRUE — the same rows a
// row-at-a-time loop keeping v.IsTrue() would. Returns the extended dst.
func (e *VecEval) SelectTrue(cols [][]value.Value, sel []int32, dst []int32) ([]int32, error) {
	v, err := e.eval(cols, sel)
	if err == errVecBail {
		return e.selectTrueRows(cols, sel, dst)
	}
	if err != nil {
		return dst, err
	}
	e.vecRows += int64(len(sel))
	if v.kind != value.KindBool {
		return dst, nil // non-boolean predicate is never TRUE
	}
	for k, r := range sel {
		if !v.null[k] && v.i[k] != 0 {
			dst = append(dst, r)
		}
	}
	return dst, nil
}

// EvalInto evaluates the expression over rows sel of cols, writing the
// results densely into out (out[k] is the value for row sel[k]). len(out)
// must be len(sel).
func (e *VecEval) EvalInto(cols [][]value.Value, sel []int32, out []value.Value) error {
	v, err := e.eval(cols, sel)
	if err == errVecBail {
		return e.evalRows(cols, sel, out)
	}
	if err != nil {
		return err
	}
	e.vecRows += int64(len(sel))
	for k := range sel {
		out[k] = v.value(k)
	}
	return nil
}

// selectTrueRows is the row fallback: evaluate the original row node per
// selected row.
func (e *VecEval) selectTrueRows(cols [][]value.Value, sel []int32, dst []int32) ([]int32, error) {
	for _, r := range sel {
		v, err := e.row.Eval(e.fillRow(cols, r))
		if err != nil {
			return dst, err
		}
		if v.IsTrue() {
			dst = append(dst, r)
		}
	}
	return dst, nil
}

func (e *VecEval) evalRows(cols [][]value.Value, sel []int32, out []value.Value) error {
	for k, r := range sel {
		v, err := e.row.Eval(e.fillRow(cols, r))
		if err != nil {
			return err
		}
		out[k] = v
	}
	return nil
}

func (e *VecEval) fillRow(cols [][]value.Value, r int32) []value.Value {
	if cap(e.rowBuf) < len(cols) {
		e.rowBuf = make([]value.Value, len(cols))
	}
	e.rowBuf = e.rowBuf[:len(cols)]
	for i, col := range cols {
		e.rowBuf[i] = col[r]
	}
	return e.rowBuf
}

// vec is one node's columnar result: entry k corresponds to row sel[k] of
// the evaluated selection. null[k] marks SQL NULL; the typed slab active
// for the kind holds the non-null entries (bool and date reuse i).
type vec struct {
	kind value.Kind
	null []bool
	i    []int64
	f    []float64
	s    []string
}

// size prepares the vec for n results of the given kind. Slab contents are
// not cleared; kernels write every entry (or its null flag).
func (v *vec) size(kind value.Kind, n int) {
	v.kind = kind
	if cap(v.null) < n {
		v.null = make([]bool, n)
	}
	v.null = v.null[:n]
	switch kind {
	case value.KindInt, value.KindBool, value.KindDate:
		if cap(v.i) < n {
			v.i = make([]int64, n)
		}
		v.i = v.i[:n]
	case value.KindFloat:
		if cap(v.f) < n {
			v.f = make([]float64, n)
		}
		v.f = v.f[:n]
	case value.KindText:
		if cap(v.s) < n {
			v.s = make([]string, n)
		}
		v.s = v.s[:n]
	}
}

// value reassembles entry k as a value.Value.
func (v *vec) value(k int) value.Value {
	if v.null[k] {
		return value.Null()
	}
	switch v.kind {
	case value.KindInt:
		return value.Int(v.i[k])
	case value.KindFloat:
		return value.Float(v.f[k])
	case value.KindText:
		return value.Text(v.s[k])
	case value.KindBool:
		return value.Value{K: value.KindBool, I: v.i[k]}
	case value.KindDate:
		return value.Date(v.i[k])
	default:
		return value.Null()
	}
}

// num returns entry k as a float64 (value.Value.Num semantics).
func (v *vec) num(k int) float64 {
	if v.kind == value.KindFloat {
		return v.f[k]
	}
	return float64(v.i[k])
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// vecNode is one node of the vectorized plan. eval computes the node over
// rows sel of cols into a vec owned by the node, valid until its next eval.
type vecNode interface {
	kind() value.Kind
	eval(cols [][]value.Value, sel []int32) (*vec, error)
}

// compileVecNode builds the vector kernel tree. ok=false for any node
// without a kernel.
func compileVecNode(n Node) (vecNode, bool) {
	switch x := n.(type) {
	case constNode:
		return &vecConst{v: x.v}, true
	case colNode:
		return &vecCol{slot: x.slot, k: x.kind}, true
	case cmpNode:
		l, ok := compileVecNode(x.l)
		if !ok {
			return nil, false
		}
		r, ok := compileVecNode(x.r)
		if !ok {
			return nil, false
		}
		truth, ok := cmpTruth(x.op)
		if !ok {
			return nil, false
		}
		return &vecCmp{l: l, r: r, mode: cmpMode(l.kind(), r.kind()), truth: truth}, true
	case arithNode:
		l, ok := compileVecNode(x.l)
		if !ok {
			return nil, false
		}
		r, ok := compileVecNode(x.r)
		if !ok {
			return nil, false
		}
		op, ok := arithOpcode(x.op)
		if !ok {
			return nil, false
		}
		mode := modeFloat
		if l.kind() == value.KindNull || r.kind() == value.KindNull {
			mode = modeNull
		} else if x.kind == value.KindInt {
			mode = modeInt
		}
		return &vecArith{op: op, l: l, r: r, k: x.kind, mode: mode}, true
	case logicNode:
		l, ok := compileVecNode(x.l)
		if !ok {
			return nil, false
		}
		r, ok := compileVecNode(x.r)
		if !ok {
			return nil, false
		}
		return &vecLogic{
			and: x.op == sql.OpAnd, l: l, r: r,
			lBool: l.kind() == value.KindBool, rBool: r.kind() == value.KindBool,
		}, true
	case notNode:
		c, ok := compileVecNode(x.x)
		if !ok {
			return nil, false
		}
		return &vecNot{x: c, xBool: c.kind() == value.KindBool}, true
	case negNode:
		c, ok := compileVecNode(x.x)
		if !ok {
			return nil, false
		}
		switch c.kind() {
		case value.KindInt, value.KindFloat, value.KindNull:
			return &vecNeg{x: c, k: c.kind()}, true
		default:
			// Row evaluation raises "cannot negate" at run time for text,
			// bool and date operands; keep that path.
			return nil, false
		}
	case isNullNode:
		c, ok := compileVecNode(x.x)
		if !ok {
			return nil, false
		}
		return &vecIsNull{x: c, not: x.not}, true
	case inNode:
		c, ok := compileVecNode(x.x)
		if !ok {
			return nil, false
		}
		// Only constant lists vectorize: a non-constant item is evaluated
		// lazily (and may error) per row in the row path, which a
		// column-at-a-time pass cannot reproduce.
		items := make([]value.Value, len(x.list))
		for i, it := range x.list {
			cn, isConst := it.(constNode)
			if !isConst {
				return nil, false
			}
			items[i] = cn.v
		}
		return &vecIn{x: c, items: items, not: x.not}, true
	case betweenNode:
		xv, ok := compileVecNode(x.x)
		if !ok {
			return nil, false
		}
		lo, ok := compileVecNode(x.lo)
		if !ok {
			return nil, false
		}
		hi, ok := compileVecNode(x.hi)
		if !ok {
			return nil, false
		}
		return &vecBetween{
			x: xv, lo: lo, hi: hi, not: x.not,
			modeLo: cmpMode(xv.kind(), lo.kind()),
			modeHi: cmpMode(xv.kind(), hi.kind()),
		}, true
	case likeNode:
		xv, ok := compileVecNode(x.x)
		if !ok {
			return nil, false
		}
		pv, ok := compileVecNode(x.pat)
		if !ok {
			return nil, false
		}
		return &vecLike{x: xv, pat: pv, not: x.not}, true
	case scalarFuncNode:
		args := make([]vecNode, len(x.args))
		for i, a := range x.args {
			va, ok := compileVecNode(a)
			if !ok {
				return nil, false
			}
			args[i] = va
		}
		// COALESCE returns its first non-null argument unchanged, so its
		// runtime kind tracks whichever argument fires; the typed output
		// vector can only represent that when every argument that can
		// produce a value shares the static kind.
		if x.name == "COALESCE" {
			for _, a := range args {
				if k := a.kind(); k != value.KindNull && k != x.kind {
					return nil, false
				}
			}
		}
		return &vecFunc{
			name: x.name, args: args, k: x.kind,
			avs:     make([]*vec, len(args)),
			scratch: make([]value.Value, len(args)),
		}, true
	default:
		return nil, false
	}
}

// vecConst broadcasts a literal. The fill is incremental: entries survive
// across batches, so steady state refills nothing.
type vecConst struct {
	v     value.Value
	out   vec
	ready int
}

func (n *vecConst) kind() value.Kind { return n.v.K }

//nodbvet:hotpath
func (n *vecConst) eval(_ [][]value.Value, sel []int32) (*vec, error) {
	m := len(sel)
	if m > cap(n.out.null) {
		n.ready = 0 // size is about to reallocate; refill from scratch
	}
	n.out.size(n.v.K, m)
	for k := n.ready; k < m; k++ {
		switch n.v.K {
		case value.KindNull:
			n.out.null[k] = true
		case value.KindFloat:
			n.out.null[k] = false
			n.out.f[k] = n.v.F
		case value.KindText:
			n.out.null[k] = false
			n.out.s[k] = n.v.S
		default: // int, bool, date
			n.out.null[k] = false
			n.out.i[k] = n.v.I
		}
	}
	if m > n.ready {
		n.ready = m
	}
	return &n.out, nil
}

// vecCol gathers one batch column into a typed vector, loading only the
// fields its kind needs.
type vecCol struct {
	slot int
	k    value.Kind
	out  vec
}

func (n *vecCol) kind() value.Kind { return n.k }

//nodbvet:hotpath
func (n *vecCol) eval(cols [][]value.Value, sel []int32) (*vec, error) {
	n.out.size(n.k, len(sel))
	if len(sel) == 0 {
		return &n.out, nil // nothing to read; mirror the row path, which never evaluates
	}
	if n.slot >= len(cols) {
		// Planner/engine contract breach, reached at most once per query.
		//nodbvet:hotalloc-ok error path terminates the query; never allocates in steady state
		return nil, fmt.Errorf("expr: batch has %d columns, need %d", len(cols), n.slot+1)
	}
	col := cols[n.slot]
	switch n.k {
	case value.KindFloat:
		for k, r := range sel {
			switch col[r].K {
			case value.KindFloat:
				n.out.null[k] = false
				n.out.f[k] = col[r].F
			case value.KindNull:
				n.out.null[k] = true
			default:
				return nil, errVecBail
			}
		}
	case value.KindText:
		for k, r := range sel {
			switch col[r].K {
			case value.KindText:
				n.out.null[k] = false
				n.out.s[k] = col[r].S
			case value.KindNull:
				n.out.null[k] = true
			default:
				return nil, errVecBail
			}
		}
	case value.KindNull: // all-empty inferred column: values must be NULL
		for k, r := range sel {
			if col[r].K != value.KindNull {
				return nil, errVecBail
			}
			n.out.null[k] = true
		}
	default: // int, bool, date share the I slab
		for k, r := range sel {
			switch col[r].K {
			case n.k:
				n.out.null[k] = false
				n.out.i[k] = col[r].I
			case value.KindNull:
				n.out.null[k] = true
			default:
				return nil, errVecBail
			}
		}
	}
	return &n.out, nil
}

// Comparison modes, decided once at compile time from static operand kinds
// (batch values always match their column's static kind, or are NULL — the
// kernels bail otherwise, so the mode never lies about runtime data).
const (
	modeNull    = iota // some operand is statically NULL: result is NULL
	modeInt            // both operands integral (int/bool/date): exact int64
	modeFloat          // numeric with a float side: compare as float64
	modeText           // both text: string compare
	modeGeneric        // text vs numeric: value.Compare's formatted-form rule
)

func cmpMode(lk, rk value.Kind) int {
	switch {
	case lk == value.KindNull || rk == value.KindNull:
		return modeNull
	case lk == value.KindText && rk == value.KindText:
		return modeText
	case lk == value.KindText || rk == value.KindText:
		return modeGeneric
	case lk == value.KindFloat || rk == value.KindFloat:
		return modeFloat
	default:
		return modeInt
	}
}

// cmpAt orders entry lk of l against entry rk of r under a non-null mode,
// mirroring value.Compare for the operand kinds the mode encodes.
func cmpAt(mode int, l *vec, lk int, r *vec, rk int) int {
	switch mode {
	case modeInt:
		a, b := l.i[lk], r.i[rk]
		switch {
		case a < b:
			return -1
		case a > b:
			return 1
		default:
			return 0
		}
	case modeFloat:
		a, b := l.num(lk), r.num(rk)
		switch {
		case a < b:
			return -1
		case a > b:
			return 1
		default:
			return 0
		}
	case modeText:
		return strings.Compare(l.s[lk], r.s[rk])
	default: // modeGeneric
		return value.Compare(l.value(lk), r.value(rk))
	}
}

// cmpTruth maps a comparison operator to its truth table indexed by the
// compare sign + 1 (-1, 0, +1).
func cmpTruth(op string) ([3]bool, bool) {
	switch op {
	case sql.OpEq:
		return [3]bool{false, true, false}, true
	case sql.OpNe:
		return [3]bool{true, false, true}, true
	case sql.OpLt:
		return [3]bool{true, false, false}, true
	case sql.OpLe:
		return [3]bool{true, true, false}, true
	case sql.OpGt:
		return [3]bool{false, false, true}, true
	case sql.OpGe:
		return [3]bool{false, true, true}, true
	default:
		return [3]bool{}, false
	}
}

type vecCmp struct {
	l, r  vecNode
	mode  int
	truth [3]bool
	out   vec
}

func (n *vecCmp) kind() value.Kind { return value.KindBool }

//nodbvet:hotpath
func (n *vecCmp) eval(cols [][]value.Value, sel []int32) (*vec, error) {
	lv, err := n.l.eval(cols, sel)
	if err != nil {
		return nil, err
	}
	rv, err := n.r.eval(cols, sel)
	if err != nil {
		return nil, err
	}
	m := len(sel)
	n.out.size(value.KindBool, m)
	if n.mode == modeNull {
		for k := 0; k < m; k++ {
			n.out.null[k] = true
		}
		return &n.out, nil
	}
	for k := 0; k < m; k++ {
		if lv.null[k] || rv.null[k] {
			n.out.null[k] = true
			continue
		}
		n.out.null[k] = false
		n.out.i[k] = b2i(n.truth[cmpAt(n.mode, lv, k, rv, k)+1])
	}
	return &n.out, nil
}

// Arithmetic opcodes.
const (
	opAdd = iota
	opSub
	opMul
	opDiv
	opMod
)

func arithOpcode(op string) (int, bool) {
	switch op {
	case sql.OpAdd:
		return opAdd, true
	case sql.OpSub:
		return opSub, true
	case sql.OpMul:
		return opMul, true
	case sql.OpDiv:
		return opDiv, true
	case sql.OpMod:
		return opMod, true
	default:
		return 0, false
	}
}

type vecArith struct {
	op   int
	l, r vecNode
	k    value.Kind // static result kind (KindInt or KindFloat)
	mode int        // modeNull, modeInt or modeFloat
	out  vec
}

func (n *vecArith) kind() value.Kind { return n.k }

//nodbvet:hotpath
func (n *vecArith) eval(cols [][]value.Value, sel []int32) (*vec, error) {
	lv, err := n.l.eval(cols, sel)
	if err != nil {
		return nil, err
	}
	rv, err := n.r.eval(cols, sel)
	if err != nil {
		return nil, err
	}
	m := len(sel)
	n.out.size(n.k, m)
	switch n.mode {
	case modeNull:
		for k := 0; k < m; k++ {
			n.out.null[k] = true
		}
	case modeInt:
		for k := 0; k < m; k++ {
			if lv.null[k] || rv.null[k] {
				n.out.null[k] = true
				continue
			}
			n.out.null[k] = false
			a, b := lv.i[k], rv.i[k]
			switch n.op {
			case opAdd:
				n.out.i[k] = a + b
			case opSub:
				n.out.i[k] = a - b
			case opMul:
				n.out.i[k] = a * b
			case opDiv:
				if b == 0 {
					return nil, errDivZero
				}
				n.out.i[k] = a / b
			case opMod:
				if b == 0 {
					return nil, errModZero
				}
				n.out.i[k] = a % b
			}
		}
	default: // modeFloat
		for k := 0; k < m; k++ {
			if lv.null[k] || rv.null[k] {
				n.out.null[k] = true
				continue
			}
			n.out.null[k] = false
			a, b := lv.num(k), rv.num(k)
			switch n.op {
			case opAdd:
				n.out.f[k] = a + b
			case opSub:
				n.out.f[k] = a - b
			case opMul:
				n.out.f[k] = a * b
			case opDiv:
				if b == 0 {
					return nil, errDivZero
				}
				n.out.f[k] = a / b
			case opMod: // compile guarantees integer mod; mirror the row error
				//nodbvet:hotalloc-ok unreachable compile-contract breach; terminates the query
				return nil, fmt.Errorf("expr: bad arithmetic op %q", sql.OpMod)
			}
		}
	}
	return &n.out, nil
}

// vecLogic implements three-valued AND/OR. The right side is evaluated
// only over the rows the left side leaves undecided (selection-vector
// narrowing), which is exactly the set of rows the row evaluator's
// short-circuit would evaluate it for — so runtime errors (division by
// zero and friends) surface for the same rows under both evaluators.
type vecLogic struct {
	and          bool
	l, r         vecNode
	lBool, rBool bool // static: operand kind is BOOL (IsTrue can hold)
	out          vec
	sub          []int32 // rows needing the right side
	ks           []int32 // their dense positions in sel
}

func (n *vecLogic) kind() value.Kind { return value.KindBool }

//nodbvet:hotpath
func (n *vecLogic) eval(cols [][]value.Value, sel []int32) (*vec, error) {
	lv, err := n.l.eval(cols, sel)
	if err != nil {
		return nil, err
	}
	m := len(sel)
	n.sub = n.sub[:0]
	n.ks = n.ks[:0]
	for k, r := range sel {
		decided := false
		if n.lBool && !lv.null[k] {
			if n.and {
				decided = lv.i[k] == 0 // FALSE AND … = FALSE
			} else {
				decided = lv.i[k] != 0 // TRUE OR … = TRUE
			}
		}
		if !decided {
			n.sub = append(n.sub, r)
			n.ks = append(n.ks, int32(k))
		}
	}
	var rv *vec
	if len(n.sub) > 0 {
		rv, err = n.r.eval(cols, n.sub)
		if err != nil {
			return nil, err
		}
	}
	n.out.size(value.KindBool, m)
	for k := 0; k < m; k++ {
		n.out.null[k] = false
		n.out.i[k] = b2i(!n.and) // value when the left side decided
	}
	for j, k32 := range n.ks {
		k := int(k32)
		lnull := lv.null[k]
		ltrue := n.lBool && !lnull && lv.i[k] != 0
		rnull := rv.null[j]
		rtrue := n.rBool && !rnull && rv.i[j] != 0
		rfalse := n.rBool && !rnull && rv.i[j] == 0
		if n.and {
			switch {
			case rfalse:
				n.out.i[k] = 0
			case lnull || rnull:
				n.out.null[k] = true
			default:
				n.out.i[k] = b2i(ltrue && rtrue)
			}
		} else {
			switch {
			case rtrue:
				n.out.i[k] = 1
			case lnull || rnull:
				n.out.null[k] = true
			default:
				n.out.i[k] = 0
			}
		}
	}
	return &n.out, nil
}

type vecNot struct {
	x     vecNode
	xBool bool
	out   vec
}

func (n *vecNot) kind() value.Kind { return value.KindBool }

//nodbvet:hotpath
func (n *vecNot) eval(cols [][]value.Value, sel []int32) (*vec, error) {
	cv, err := n.x.eval(cols, sel)
	if err != nil {
		return nil, err
	}
	m := len(sel)
	n.out.size(value.KindBool, m)
	for k := 0; k < m; k++ {
		if cv.null[k] {
			n.out.null[k] = true
			continue
		}
		n.out.null[k] = false
		n.out.i[k] = b2i(!(n.xBool && cv.i[k] != 0))
	}
	return &n.out, nil
}

type vecNeg struct {
	x   vecNode
	k   value.Kind // int, float or null (others fall back at compile)
	out vec
}

func (n *vecNeg) kind() value.Kind { return n.k }

//nodbvet:hotpath
func (n *vecNeg) eval(cols [][]value.Value, sel []int32) (*vec, error) {
	cv, err := n.x.eval(cols, sel)
	if err != nil {
		return nil, err
	}
	m := len(sel)
	n.out.size(n.k, m)
	switch n.k {
	case value.KindInt:
		for k := 0; k < m; k++ {
			if cv.null[k] {
				n.out.null[k] = true
				continue
			}
			n.out.null[k] = false
			n.out.i[k] = -cv.i[k]
		}
	case value.KindFloat:
		for k := 0; k < m; k++ {
			if cv.null[k] {
				n.out.null[k] = true
				continue
			}
			n.out.null[k] = false
			n.out.f[k] = -cv.f[k]
		}
	default: // KindNull
		for k := 0; k < m; k++ {
			n.out.null[k] = true
		}
	}
	return &n.out, nil
}

type vecIsNull struct {
	x   vecNode
	not bool
	out vec
}

func (n *vecIsNull) kind() value.Kind { return value.KindBool }

//nodbvet:hotpath
func (n *vecIsNull) eval(cols [][]value.Value, sel []int32) (*vec, error) {
	cv, err := n.x.eval(cols, sel)
	if err != nil {
		return nil, err
	}
	m := len(sel)
	n.out.size(value.KindBool, m)
	for k := 0; k < m; k++ {
		n.out.null[k] = false
		n.out.i[k] = b2i(cv.null[k] != n.not)
	}
	return &n.out, nil
}

type vecIn struct {
	x     vecNode
	items []value.Value // constants only
	not   bool
	out   vec
}

func (n *vecIn) kind() value.Kind { return value.KindBool }

//nodbvet:hotpath
func (n *vecIn) eval(cols [][]value.Value, sel []int32) (*vec, error) {
	xv, err := n.x.eval(cols, sel)
	if err != nil {
		return nil, err
	}
	m := len(sel)
	n.out.size(value.KindBool, m)
	for k := 0; k < m; k++ {
		if xv.null[k] {
			n.out.null[k] = true
			continue
		}
		v := xv.value(k)
		matched, sawNull := false, false
		for _, it := range n.items {
			if it.IsNull() {
				sawNull = true
				continue
			}
			if value.Equal(v, it) {
				matched = true
				break
			}
		}
		switch {
		case matched:
			n.out.null[k] = false
			n.out.i[k] = b2i(!n.not)
		case sawNull:
			n.out.null[k] = true
		default:
			n.out.null[k] = false
			n.out.i[k] = b2i(n.not)
		}
	}
	return &n.out, nil
}

type vecBetween struct {
	x, lo, hi      vecNode
	not            bool
	modeLo, modeHi int
	out            vec
}

func (n *vecBetween) kind() value.Kind { return value.KindBool }

//nodbvet:hotpath
func (n *vecBetween) eval(cols [][]value.Value, sel []int32) (*vec, error) {
	xv, err := n.x.eval(cols, sel)
	if err != nil {
		return nil, err
	}
	lov, err := n.lo.eval(cols, sel)
	if err != nil {
		return nil, err
	}
	hiv, err := n.hi.eval(cols, sel)
	if err != nil {
		return nil, err
	}
	m := len(sel)
	n.out.size(value.KindBool, m)
	for k := 0; k < m; k++ {
		if xv.null[k] || lov.null[k] || hiv.null[k] {
			n.out.null[k] = true
			continue
		}
		in := cmpAt(n.modeLo, xv, k, lov, k) >= 0 && cmpAt(n.modeHi, xv, k, hiv, k) <= 0
		n.out.null[k] = false
		n.out.i[k] = b2i(in != n.not)
	}
	return &n.out, nil
}

type vecLike struct {
	x, pat vecNode
	not    bool
	out    vec
}

func (n *vecLike) kind() value.Kind { return value.KindBool }

//nodbvet:hotpath
func (n *vecLike) eval(cols [][]value.Value, sel []int32) (*vec, error) {
	xv, err := n.x.eval(cols, sel)
	if err != nil {
		return nil, err
	}
	pv, err := n.pat.eval(cols, sel)
	if err != nil {
		return nil, err
	}
	m := len(sel)
	n.out.size(value.KindBool, m)
	for k := 0; k < m; k++ {
		if xv.null[k] || pv.null[k] {
			n.out.null[k] = true
			continue
		}
		n.out.null[k] = false
		n.out.i[k] = b2i(Like(vecStr(xv, k), vecStr(pv, k)) != n.not)
	}
	return &n.out, nil
}

// vecStr renders entry k the way the row path's v.String() would.
func vecStr(v *vec, k int) string {
	if v.kind == value.KindText {
		return v.s[k]
	}
	return v.value(k).String()
}

// vecFunc evaluates a scalar function column-at-a-time through the same
// applyScalarFunc the row evaluator uses, but with the per-row argument
// slice reused — the row path allocates it for every tuple, which is
// exactly the per-tuple cost vectorization amortizes away.
type vecFunc struct {
	name    string
	args    []vecNode
	k       value.Kind
	avs     []*vec
	scratch []value.Value
	out     vec
}

func (n *vecFunc) kind() value.Kind { return n.k }

//nodbvet:hotpath
func (n *vecFunc) eval(cols [][]value.Value, sel []int32) (*vec, error) {
	for i, a := range n.args {
		av, err := a.eval(cols, sel)
		if err != nil {
			return nil, err
		}
		n.avs[i] = av
	}
	m := len(sel)
	n.out.size(n.k, m)
	for k := 0; k < m; k++ {
		for i, av := range n.avs {
			n.scratch[i] = av.value(k)
		}
		v, err := applyScalarFunc(n.name, n.scratch)
		if err != nil {
			return nil, err
		}
		switch {
		case v.IsNull():
			n.out.null[k] = true
		case v.K == n.k:
			n.out.null[k] = false
			switch n.k {
			case value.KindFloat:
				n.out.f[k] = v.F
			case value.KindText:
				n.out.s[k] = v.S
			default:
				n.out.i[k] = v.I
			}
		default:
			// Runtime kind drifted from the static kind (possible for ABS
			// over loosely typed data): divert the batch to the row path.
			return nil, errVecBail
		}
	}
	return &n.out, nil
}
