package engine

import (
	"nodb/internal/core"
	"nodb/internal/expr"
	"nodb/internal/metrics"
	"nodb/internal/value"
)

// HashJoin performs an equi-join: it materializes the right (build) side
// into a hash table keyed by the build key expressions, then walks each
// left (probe) batch's selection in place. Output rows are the
// concatenation left ++ right, batchRows per output batch. With LeftOuter
// set, unmatched left rows are emitted padded with NULLs.
type HashJoin struct {
	left, right          Operator
	probeKeys, buildKeys []expr.Node
	residual             expr.Node // extra non-equi ON conjuncts; may be nil
	leftOuter            bool
	rightWidth           int
	b                    *metrics.Breakdown

	built   bool
	table   map[string][][]value.Value
	keyVals []value.Value
	key     []byte

	probe   *core.Batch     // current probe batch; nil once the left side ends
	pi      int             // next position in probe.Sel
	row     []value.Value   // current probe row ++ candidate build row
	lw      int             // probe (left) width
	matches [][]value.Value // build rows for the current probe row
	mi      int
	current bool // a probe row is in row and not yet finished
	matched bool
	out     rowBatch
}

// NewHashJoin constructs a hash join. rightWidth is the arity of the build
// side (needed for NULL padding in outer joins).
func NewHashJoin(left, right Operator, probeKeys, buildKeys []expr.Node, residual expr.Node, leftOuter bool, rightWidth int, b *metrics.Breakdown) *HashJoin {
	return &HashJoin{
		left: left, right: right,
		probeKeys: probeKeys, buildKeys: buildKeys,
		residual: residual, leftOuter: leftOuter,
		rightWidth: rightWidth, b: b,
		keyVals: make([]value.Value, len(probeKeys)),
	}
}

// NewNLJoin constructs a nested-loop join for CROSS joins and non-equi ON
// conditions: a hash join without keys, so every build row sits in the one
// bucket and on (nil for CROSS) runs as the residual over the concatenated
// row.
func NewNLJoin(left, right Operator, on expr.Node, leftOuter bool, rightWidth int, b *metrics.Breakdown) *HashJoin {
	return NewHashJoin(left, right, nil, nil, on, leftOuter, rightWidth, b)
}

// build hashes the right side and pulls the first probe batch, which fixes
// the output width.
func (o *HashJoin) build() error {
	o.table = make(map[string][][]value.Value)
	keyBuf := make([]value.Value, len(o.buildKeys))
	err := ForEachBatchRow(o.right, func(row []value.Value) error {
		for i, k := range o.buildKeys {
			v, err := k.Eval(row)
			if err != nil {
				return err
			}
			if v.IsNull() {
				return nil // NULL keys never join
			}
			keyBuf[i] = v
		}
		key := rowKey(keyBuf)
		o.table[key] = append(o.table[key], copyRow(row))
		return nil
	})
	if err != nil {
		return err
	}
	return o.nextProbe()
}

// nextProbe pulls the next probe batch; o.probe is nil once there is none.
func (o *HashJoin) nextProbe() error {
	b, ok, err := o.left.NextBatch()
	if err != nil {
		return err
	}
	o.probe, o.pi = nil, 0
	if ok {
		o.probe = b
		if o.row == nil {
			o.lw = len(b.Cols)
			o.row = make([]value.Value, o.lw+o.rightWidth)
		}
	}
	return nil
}

// lookup returns the build rows matching the probe row in o.row.
func (o *HashJoin) lookup() ([][]value.Value, error) {
	for i, k := range o.probeKeys {
		v, err := k.Eval(o.row)
		if err != nil {
			return nil, err
		}
		if v.IsNull() {
			return nil, nil // NULL keys never join
		}
		o.keyVals[i] = v
	}
	o.key = value.AppendGroupKey(o.key[:0], o.keyVals)
	return o.table[string(o.key)], nil
}

// NextBatch implements Operator.
func (o *HashJoin) NextBatch() (*core.Batch, bool, error) {
	if !o.built {
		if err := o.build(); err != nil {
			return nil, false, err
		}
		o.built = true
	}
	o.out.reset(len(o.row), 0)
	for o.out.n < batchRows {
		if o.mi < len(o.matches) {
			copy(o.row[o.lw:], o.matches[o.mi])
			o.mi++
			if o.residual != nil {
				v, err := o.residual.Eval(o.row)
				if err != nil {
					return nil, false, err
				}
				if !v.IsTrue() {
					continue
				}
			}
			o.matched = true
			o.out.add(o.row)
			continue
		}
		if o.current && o.leftOuter && !o.matched {
			for i := o.lw; i < len(o.row); i++ {
				o.row[i] = value.Null()
			}
			o.out.add(o.row)
		}
		o.current = false
		if o.probe == nil {
			break
		}
		if o.pi >= len(o.probe.Sel) {
			if err := o.nextProbe(); err != nil {
				return nil, false, err
			}
			continue
		}
		r := o.probe.Sel[o.pi]
		o.pi++
		for i, col := range o.probe.Cols {
			o.row[i] = col[r]
		}
		m, err := o.lookup()
		if err != nil {
			return nil, false, err
		}
		o.matches, o.mi, o.matched, o.current = m, 0, false, true
	}
	return o.out.emit()
}

// Close implements Operator.
func (o *HashJoin) Close() error {
	err1 := o.left.Close()
	err2 := o.right.Close()
	if err1 != nil {
		return err1
	}
	return err2
}

// ValuesOp replays a fixed set of rows, batchRows per batch; used by tests
// and for results that need no execution (EXPLAIN, catalog listings).
type ValuesOp struct {
	Rows [][]value.Value
	pos  int
	out  rowBatch
}

// NextBatch implements Operator.
func (o *ValuesOp) NextBatch() (*core.Batch, bool, error) {
	n := min(len(o.Rows)-o.pos, batchRows)
	if n == 0 {
		return nil, false, nil
	}
	o.out.reset(len(o.Rows[o.pos]), n)
	for _, r := range o.Rows[o.pos : o.pos+n] {
		o.out.add(r)
	}
	o.pos += n
	return o.out.emit()
}

// Close implements Operator.
func (o *ValuesOp) Close() error { return nil }
