// Package planner turns parsed SELECT statements into operator trees. It
// performs name resolution, predicate pushdown into scans (the enabler of
// the paper's selective tokenizing/parsing/tuple formation), stats-driven
// access-path selection for loaded tables, aggregation rewriting, and
// ORDER BY/LIMIT planning.
//
// The planner treats all three access modes uniformly above the leaf: only
// the scan construction differs, mirroring PostgresRaw's "override the scan
// operator, keep the rest of the plan" design.
package planner

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"nodb/internal/core"
	"nodb/internal/engine"
	"nodb/internal/expr"
	"nodb/internal/metrics"
	"nodb/internal/sched"
	"nodb/internal/schema"
	"nodb/internal/sql"
	"nodb/internal/stats"
	"nodb/internal/storage"
	"nodb/internal/value"
)

// indexScanMaxSelectivity is the estimated selectivity above which a heap
// scan is preferred over an index scan for loaded tables.
const indexScanMaxSelectivity = 0.25

// OutputCol describes one result column.
type OutputCol struct {
	Name string
	Kind value.Kind
}

// Plan is an executable query plan.
type Plan struct {
	Root    engine.Operator
	Columns []OutputCol
	// ExplainText is the rendered operator tree (EXPLAIN output).
	ExplainText string
}

// Close releases plan resources.
func (p *Plan) Close() error { return p.Root.Close() }

// Build compiles a parsed SELECT against the catalog. All scan and operator
// costs are charged to b.
func Build(sel *sql.Select, cat *schema.Catalog, b *metrics.Breakdown) (*Plan, error) {
	pb := &builder{cat: cat, b: b}
	return pb.build(sel)
}

// tableSrc is one resolved FROM/JOIN table.
type tableSrc struct {
	qual   string // alias or name, lower case
	entry  *schema.Table
	refSet map[int]bool
	refs   []int // referenced attrs, sorted (scan output order)
	slotLo int   // first slot in the combined env
}

type builder struct {
	cat    *schema.Catalog
	b      *metrics.Breakdown
	ctx    context.Context // nil = not cancellable; wired into leaf scans
	noVec  bool            // hide vector kernels (Prepared.DisableVec)
	tables []*tableSrc
	env    *expr.Env // combined env over all tables' referenced columns

	// Aggregation state (set by buildAggregation).
	aggKeys   []sql.Expr
	aggCalls  []sql.FuncCall
	aggPushed bool // aggregation pushed into the raw scan's chunk workers
}

// rowOnly hides a node's vector kernels: CompileVec has none for a Node
// type defined outside expr, so operators evaluate it row-at-a-time.
type rowOnly struct{ expr.Node }

// evalNode is n as the plan's Filter, Project and pushed-down scan filter
// evaluate it: behind rowOnly when the statement forces row-at-a-time
// evaluation, the row evaluator differential tests compare against.
func (pb *builder) evalNode(n expr.Node) expr.Node {
	if pb.noVec {
		return rowOnly{n}
	}
	return n
}

func (pb *builder) build(sel *sql.Select) (*Plan, error) {
	if err := pb.resolveTables(sel); err != nil {
		return nil, err
	}
	items, err := pb.expandStars(sel.Items)
	if err != nil {
		return nil, err
	}
	// Output names come from the pre-rewrite expressions (aggregates render
	// as their call text, e.g. "COUNT(*)", even after the planner rewrites
	// them into references over the aggregation operator).
	names := make([]string, len(items))
	for i, it := range items {
		names[i] = outputName(it)
	}
	return pb.buildResolved(sel, items, names)
}

// buildResolved is the planning pipeline after table resolution and star
// expansion — the part that must rerun per execution of a prepared
// statement (bound parameter values feed pushdown, selectivity estimation
// and access-path choice; operators are stateful and single-use).
func (pb *builder) buildResolved(sel *sql.Select, items []sql.SelectItem, names []string) (*Plan, error) {
	if err := pb.collectRefs(sel, items); err != nil {
		return nil, err
	}
	pb.buildEnv()

	// Split WHERE into per-table pushdown conjuncts and residual conjuncts.
	conjuncts := splitAnd(sel.Where)
	pushed := make([][]sql.Expr, len(pb.tables))
	var residual []sql.Expr
	for _, c := range conjuncts {
		ti, single := pb.singleTable(c)
		if single && ti >= 0 {
			pushed[ti] = append(pushed[ti], c)
		} else {
			residual = append(residual, c)
		}
	}

	// Leaf + join chain.
	root, etree, err := pb.buildScan(0, pushed[0])
	if err != nil {
		return nil, err
	}
	for j, join := range sel.Joins {
		ti := j + 1
		right, rtree, err := pb.buildScan(ti, pushed[ti])
		if err != nil {
			closeQuiet(root)
			return nil, err
		}
		root, etree, err = pb.buildJoin(root, right, etree, rtree, ti, join)
		if err != nil {
			closeQuiet(root)
			closeQuiet(right)
			return nil, err
		}
	}

	// Residual WHERE conjuncts above the joins.
	if len(residual) > 0 {
		pred, err := expr.Compile(andAll(residual), pb.env)
		if err != nil {
			closeQuiet(root)
			return nil, err
		}
		f := engine.NewFilter(root, pb.evalNode(pred), pb.b)
		root = f
		etree = wrap("Filter("+andAll(residual).String()+")"+vecMark(f), etree)
	}

	// Aggregation.
	curEnv := pb.env
	hasAgg := len(sel.GroupBy) > 0 || anyAggregate(items, sel)
	if hasAgg {
		root, curEnv, items, err = pb.buildAggregation(root, sel, items)
		if err != nil {
			closeQuiet(root)
			return nil, err
		}
		partial := ""
		if pb.aggPushed {
			partial = ", partial=workers"
		}
		etree = wrap(fmt.Sprintf("HashAgg(keys=[%s], aggs=[%s]%s)",
			exprList(pb.aggKeys), exprList(pb.aggCalls), partial), etree)
		// HAVING over the aggregation output.
		if sel.Having != nil {
			h := rewriteOverAgg(sel.Having, pb.aggKeys, pb.aggCalls)
			pred, err := expr.Compile(h, curEnv)
			if err != nil {
				closeQuiet(root)
				return nil, err
			}
			f := engine.NewFilter(root, pb.evalNode(pred), pb.b)
			root = f
			etree = wrap("Filter(HAVING "+sel.Having.String()+")"+vecMark(f), etree)
		}
	} else if sel.Having != nil {
		closeQuiet(root)
		return nil, fmt.Errorf("planner: HAVING requires GROUP BY or aggregates")
	}

	// Projection (+ hidden ORDER BY columns), sort, distinct, limit.
	return pb.finish(root, etree, curEnv, sel, items, names, hasAgg)
}

func closeQuiet(op engine.Operator) {
	if op != nil {
		op.Close()
	}
}

// vecMark renders the EXPLAIN " vec" marker for operators whose
// expressions evaluate column-at-a-time.
func vecMark(op interface{ Vectorized() bool }) string {
	if op.Vectorized() {
		return " vec"
	}
	return ""
}

// resolveTables looks up FROM and JOIN tables.
func (pb *builder) resolveTables(sel *sql.Select) error {
	add := func(ref sql.TableRef) error {
		entry, ok := pb.cat.Lookup(ref.Name)
		if !ok {
			return fmt.Errorf("planner: unknown table %q", ref.Name)
		}
		qual := strings.ToLower(ref.AliasOrName())
		for _, t := range pb.tables {
			if t.qual == qual {
				return fmt.Errorf("planner: duplicate table name/alias %q", qual)
			}
		}
		pb.tables = append(pb.tables, &tableSrc{qual: qual, entry: entry, refSet: map[int]bool{}})
		return nil
	}
	if err := add(sel.From); err != nil {
		return err
	}
	for _, j := range sel.Joins {
		if err := add(j.Table); err != nil {
			return err
		}
	}
	return nil
}

// expandStars replaces * select items with explicit column references.
func (pb *builder) expandStars(items []sql.SelectItem) ([]sql.SelectItem, error) {
	var out []sql.SelectItem
	for _, it := range items {
		if _, isStar := it.Expr.(sql.Star); !isStar {
			out = append(out, it)
			continue
		}
		if it.Alias != "" {
			return nil, fmt.Errorf("planner: cannot alias *")
		}
		for _, t := range pb.tables {
			sch := t.entry.Schema
			for i := 0; i < sch.Len(); i++ {
				out = append(out, sql.SelectItem{
					Expr: sql.ColumnRef{Table: t.qual, Name: sch.Col(i).Name},
				})
			}
		}
	}
	return out, nil
}

// noteRef records a column reference against its table.
func (pb *builder) noteRef(c sql.ColumnRef) error {
	qual := strings.ToLower(c.Table)
	name := strings.ToLower(c.Name)
	if strings.HasPrefix(name, "#") { // synthetic; resolved later
		return nil
	}
	found := -1
	attr := -1
	for ti, t := range pb.tables {
		if qual != "" && t.qual != qual {
			continue
		}
		if i := t.entry.Schema.Index(name); i >= 0 {
			if found >= 0 {
				return fmt.Errorf("planner: ambiguous column %q", c.Name)
			}
			found, attr = ti, i
		}
	}
	if found < 0 {
		return fmt.Errorf("planner: unknown column %q", c.String())
	}
	pb.tables[found].refSet[attr] = true
	return nil
}

// collectRefs walks every expression in the query, recording referenced
// columns per table.
func (pb *builder) collectRefs(sel *sql.Select, items []sql.SelectItem) error {
	var all []sql.ColumnRef
	for _, it := range items {
		all = expr.Columns(it.Expr, all)
	}
	if sel.Where != nil {
		all = expr.Columns(sel.Where, all)
	}
	for _, g := range sel.GroupBy {
		all = expr.Columns(g, all)
	}
	if sel.Having != nil {
		all = expr.Columns(sel.Having, all)
	}
	for _, o := range sel.OrderBy {
		all = expr.Columns(o.Expr, all)
	}
	for _, j := range sel.Joins {
		if j.On != nil {
			all = expr.Columns(j.On, all)
		}
	}
	for _, c := range all {
		if err := pb.noteRef(c); err != nil {
			// ORDER BY may reference select aliases; tolerate unknown
			// columns here when they match an alias (checked at finish).
			if matchesAlias(c, items) {
				continue
			}
			return err
		}
	}
	for _, t := range pb.tables {
		t.refs = t.refs[:0]
		for a := range t.refSet {
			t.refs = append(t.refs, a)
		}
		sort.Ints(t.refs)
	}
	return nil
}

func matchesAlias(c sql.ColumnRef, items []sql.SelectItem) bool {
	if c.Table != "" {
		return false
	}
	for _, it := range items {
		if it.Alias != "" && strings.EqualFold(it.Alias, c.Name) {
			return true
		}
	}
	return false
}

// buildEnv lays out the combined environment: each table's referenced
// columns, in table order.
func (pb *builder) buildEnv() {
	pb.env = expr.NewEnv()
	for _, t := range pb.tables {
		t.slotLo = pb.env.Len()
		for _, a := range t.refs {
			col := t.entry.Schema.Col(a)
			pb.env.Add(t.qual, col.Name, col.Kind)
		}
	}
}

// scanEnv builds the environment local to one table's scan output.
func (pb *builder) scanEnv(ti int) *expr.Env {
	t := pb.tables[ti]
	env := expr.NewEnv()
	for _, a := range t.refs {
		col := t.entry.Schema.Col(a)
		env.Add(t.qual, col.Name, col.Kind)
	}
	return env
}

// singleTable reports whether e references exactly zero or one table; the
// returned index is -1 for constant expressions.
func (pb *builder) singleTable(e sql.Expr) (int, bool) {
	cols := expr.Columns(e, nil)
	found := -1
	for _, c := range cols {
		qual := strings.ToLower(c.Table)
		name := strings.ToLower(c.Name)
		ti := -1
		for i, t := range pb.tables {
			if qual != "" && t.qual != qual {
				continue
			}
			if t.entry.Schema.Index(name) >= 0 {
				ti = i
				break
			}
		}
		if ti < 0 {
			return 0, false // unknown (alias?) — keep residual
		}
		if found >= 0 && found != ti {
			return 0, false
		}
		found = ti
	}
	if len(cols) == 0 {
		return -1, false
	}
	return found, true
}

// splitAnd flattens an AND tree into conjuncts.
func splitAnd(e sql.Expr) []sql.Expr {
	if e == nil {
		return nil
	}
	if be, ok := e.(sql.BinaryExpr); ok && be.Op == sql.OpAnd {
		return append(splitAnd(be.Left), splitAnd(be.Right)...)
	}
	return []sql.Expr{e}
}

// andAll combines conjuncts back into one expression.
func andAll(cs []sql.Expr) sql.Expr {
	e := cs[0]
	for _, c := range cs[1:] {
		e = sql.BinaryExpr{Op: sql.OpAnd, Left: e, Right: c}
	}
	return e
}

// estimator returns the stats collector for a table, if any.
func (pb *builder) estimator(ti int) *stats.Collector {
	switch h := pb.tables[ti].entry.Handle.(type) {
	case *storage.Table:
		return h.Stats()
	case *core.Table:
		return h.StatsCollector()
	default:
		return nil
	}
}

// conjunctShape extracts `col op literal` (normalizing literal op col), for
// selectivity estimation and index selection. ok=false for other shapes.
func (pb *builder) conjunctShape(ti int, e sql.Expr) (attr int, op string, operand value.Value, ok bool) {
	be, isBin := e.(sql.BinaryExpr)
	if !isBin {
		return 0, "", value.Null(), false
	}
	switch be.Op {
	case sql.OpEq, sql.OpNe, sql.OpLt, sql.OpLe, sql.OpGt, sql.OpGe:
	default:
		return 0, "", value.Null(), false
	}
	col, colOK := be.Left.(sql.ColumnRef)
	lit := be.Right
	op = be.Op
	if !colOK {
		col, colOK = be.Right.(sql.ColumnRef)
		lit = be.Left
		op = flipOp(be.Op)
	}
	if !colOK {
		return 0, "", value.Null(), false
	}
	if len(expr.Columns(lit, nil)) != 0 {
		return 0, "", value.Null(), false
	}
	t := pb.tables[ti]
	attr = t.entry.Schema.Index(col.Name)
	if attr < 0 {
		return 0, "", value.Null(), false
	}
	node, err := expr.Compile(lit, expr.NewEnv())
	if err != nil {
		return 0, "", value.Null(), false
	}
	v, err := node.Eval(nil)
	if err != nil {
		return 0, "", value.Null(), false
	}
	return attr, op, v, true
}

func flipOp(op string) string {
	switch op {
	case sql.OpLt:
		return sql.OpGt
	case sql.OpLe:
		return sql.OpGe
	case sql.OpGt:
		return sql.OpLt
	case sql.OpGe:
		return sql.OpLe
	default:
		return op
	}
}

// orderBySelectivity sorts pushdown conjuncts most-selective-first using the
// table's statistics — the paper's on-the-fly statistics feeding the
// optimizer.
func (pb *builder) orderBySelectivity(ti int, conjuncts []sql.Expr) []sql.Expr {
	est := pb.estimator(ti)
	if est == nil || len(conjuncts) < 2 {
		return conjuncts
	}
	type ranked struct {
		e   sql.Expr
		sel float64
	}
	rs := make([]ranked, len(conjuncts))
	for i, c := range conjuncts {
		sel := 0.5
		if attr, op, v, ok := pb.conjunctShape(ti, c); ok {
			sel = est.Selectivity(attr, op, v)
		}
		rs[i] = ranked{e: c, sel: sel}
	}
	sort.SliceStable(rs, func(i, j int) bool { return rs[i].sel < rs[j].sel })
	out := make([]sql.Expr, len(rs))
	for i, r := range rs {
		out[i] = r.e
	}
	return out
}

// buildScan constructs the leaf operator for table ti with its pushdown
// conjuncts, plus its EXPLAIN node.
func (pb *builder) buildScan(ti int, conjuncts []sql.Expr) (engine.Operator, *enode, error) {
	t := pb.tables[ti]
	conjuncts = pb.orderBySelectivity(ti, conjuncts)
	switch h := t.entry.Handle.(type) {
	case *storage.Table:
		return pb.buildLoadedScan(ti, h, conjuncts)
	case *core.Table:
		return pb.buildRawScan(ti, h, conjuncts)
	default:
		return nil, nil, fmt.Errorf("planner: table %q has no storage handle", t.qual)
	}
}

// buildRawScan wires pushdown into the in-situ scan spec.
func (pb *builder) buildRawScan(ti int, h *core.Table, conjuncts []sql.Expr) (engine.Operator, *enode, error) {
	t := pb.tables[ti]
	spec := core.ScanSpec{Needed: t.refs, B: pb.b, Ctx: pb.ctx}
	if len(conjuncts) > 0 {
		env := pb.scanEnv(ti)
		pred, err := expr.Compile(andAll(conjuncts), env)
		if err != nil {
			return nil, nil, err
		}
		// Filter attributes: schema attrs referenced by the conjuncts.
		fset := map[int]bool{}
		for _, c := range conjuncts {
			for _, cr := range expr.Columns(c, nil) {
				if a := t.entry.Schema.Index(cr.Name); a >= 0 {
					fset[a] = true
				}
			}
		}
		for a := range fset {
			spec.FilterAttrs = append(spec.FilterAttrs, a)
		}
		sort.Ints(spec.FilterAttrs)
		spec.Filter = pb.evalNode(pred)
	}
	op, err := engine.NewRawScan(h, spec)
	if err != nil {
		return nil, nil, err
	}
	label := fmt.Sprintf("RawScan(%s mode=%s attrs=%s", t.qual, t.entry.Mode, attrNames(t))
	// Segment layout, from discovered facts only: bounds of a byte-range
	// layout are found lazily and rendering a plan label must not probe the
	// file, so an undiscovered table shows "?" instead of a count.
	switch n := h.NumSegments(); {
	case h.PartitionBytes() > 0 && n == 0:
		label += " partitions=?"
	case h.PartitionBytes() > 0:
		label += fmt.Sprintf(" partitions=%d", n)
	case n > 1:
		label += fmt.Sprintf(" shards=%d", n)
	}
	hopts := h.Options()
	// Static scheduler facts only: pool telemetry (queue depths, steals) is
	// timing-dependent and stays out of the plan text.
	if hopts.Parallelism > 1 {
		pool := hopts.Scheduler
		if pool == nil {
			pool = sched.Default()
		}
		label += fmt.Sprintf(" parallel=%d pool=%d", hopts.Parallelism, pool.Stats().MaxWorkers)
	}
	// Non-default error policy is part of the plan's observable behavior
	// (it changes result rows), so EXPLAIN surfaces it; defaults stay quiet.
	if hopts.OnError != core.OnErrorNull || hopts.MaxErrors > 0 {
		label += " on_error=" + hopts.OnError.String()
		if hopts.MaxErrors > 0 {
			label += fmt.Sprintf(" max_errors=%d", hopts.MaxErrors)
		}
	}
	if len(conjuncts) > 0 {
		label += " filter=" + andAll(conjuncts).String()
		if _, ok := expr.CompileVec(spec.Filter); ok {
			label += " vec"
		}
	}
	label += ")"
	return op, en(label), nil
}

// attrNames renders a table's referenced attribute names.
func attrNames(t *tableSrc) string {
	names := make([]string, len(t.refs))
	for i, a := range t.refs {
		names[i] = t.entry.Schema.Col(a).Name
	}
	return "[" + strings.Join(names, " ") + "]"
}

// buildLoadedScan picks index vs heap scan for a load-first table.
func (pb *builder) buildLoadedScan(ti int, h *storage.Table, conjuncts []sql.Expr) (engine.Operator, *enode, error) {
	t := pb.tables[ti]
	est := h.Stats()

	// Try an index-driven access path on the first usable conjunct.
	for ci, c := range conjuncts {
		attr, op, v, ok := pb.conjunctShape(ti, c)
		if !ok || op == sql.OpNe {
			continue
		}
		ix, has := h.Index(attr)
		if !has {
			continue
		}
		sel := 0.1
		if est != nil {
			sel = est.Selectivity(attr, op, v)
		}
		if sel > indexScanMaxSelectivity {
			continue
		}
		var rids []storage.RID
		switch op {
		case sql.OpEq:
			rids = ix.SearchEq(v)
		case sql.OpLt:
			rids = ix.SearchRange(value.Null(), v, true, false)
		case sql.OpLe:
			rids = ix.SearchRange(value.Null(), v, true, true)
		case sql.OpGt:
			rids = ix.SearchRange(v, value.Null(), false, true)
		case sql.OpGe:
			rids = ix.SearchRange(v, value.Null(), true, true)
		}
		ixs := engine.NewIndexScan(h, rids, t.refs, pb.b)
		ixs.SetContext(pb.ctx)
		var op2 engine.Operator = ixs
		node := en(fmt.Sprintf("IndexScan(%s attrs=%s key=%s sel=%.3f rids=%d)",
			t.qual, attrNames(t), c.String(), sel, len(rids)))
		rest := append(append([]sql.Expr{}, conjuncts[:ci]...), conjuncts[ci+1:]...)
		if len(rest) > 0 {
			pred, err := expr.Compile(andAll(rest), pb.scanEnv(ti))
			if err != nil {
				return nil, nil, err
			}
			f := engine.NewFilter(op2, pb.evalNode(pred), pb.b)
			op2 = f
			node = wrap("Filter("+andAll(rest).String()+")"+vecMark(f), node)
		}
		return op2, node, nil
	}

	hs := engine.NewHeapScan(h, t.refs, pb.b)
	hs.SetContext(pb.ctx)
	var op engine.Operator = hs
	node := en(fmt.Sprintf("HeapScan(%s attrs=%s)", t.qual, attrNames(t)))
	if len(conjuncts) > 0 {
		pred, err := expr.Compile(andAll(conjuncts), pb.scanEnv(ti))
		if err != nil {
			return nil, nil, err
		}
		f := engine.NewFilter(op, pb.evalNode(pred), pb.b)
		op = f
		node = wrap("Filter("+andAll(conjuncts).String()+")"+vecMark(f), node)
	}
	return op, node, nil
}

// buildJoin attaches table ti to the left-deep chain.
func (pb *builder) buildJoin(left, right engine.Operator, ltree, rtree *enode, ti int, join sql.Join) (engine.Operator, *enode, error) {
	t := pb.tables[ti]
	rightWidth := len(t.refs)
	// Environment covering all tables up to and including ti.
	combined := expr.NewEnv()
	for _, tt := range pb.tables[:ti+1] {
		for _, a := range tt.refs {
			col := tt.entry.Schema.Col(a)
			combined.Add(tt.qual, col.Name, col.Kind)
		}
	}

	if join.Kind == sql.JoinCross {
		return engine.NewNLJoin(left, right, nil, false, rightWidth, pb.b),
			en("NLJoin(cross)", ltree, rtree), nil
	}

	// Partition ON conjuncts into equi keys and residual.
	var probeKeys, buildKeys []expr.Node
	var residual []sql.Expr
	leftEnv := expr.NewEnv()
	for _, tt := range pb.tables[:ti] {
		for _, a := range tt.refs {
			col := tt.entry.Schema.Col(a)
			leftEnv.Add(tt.qual, col.Name, col.Kind)
		}
	}
	rightEnv := pb.scanEnv(ti)

	for _, c := range splitAnd(join.On) {
		be, ok := c.(sql.BinaryExpr)
		if ok && be.Op == sql.OpEq {
			l, lok := pb.sideOf(be.Left, ti)
			r, rok := pb.sideOf(be.Right, ti)
			if lok && rok && l != r {
				leftExpr, rightExpr := be.Left, be.Right
				if l == 1 { // swap so leftExpr belongs to the probe side
					leftExpr, rightExpr = be.Right, be.Left
				}
				pk, err := expr.Compile(leftExpr, leftEnv)
				if err != nil {
					return nil, nil, err
				}
				bk, err := expr.Compile(rightExpr, rightEnv)
				if err != nil {
					return nil, nil, err
				}
				probeKeys = append(probeKeys, pk)
				buildKeys = append(buildKeys, bk)
				continue
			}
		}
		residual = append(residual, c)
	}

	leftOuter := join.Kind == sql.JoinLeft
	kind := "inner"
	if leftOuter {
		kind = "left-outer"
	}
	if len(probeKeys) > 0 {
		var res expr.Node
		if len(residual) > 0 {
			n, err := expr.Compile(andAll(residual), combined)
			if err != nil {
				return nil, nil, err
			}
			res = n
		}
		label := fmt.Sprintf("HashJoin(%s on=%s)", kind, join.On.String())
		return engine.NewHashJoin(left, right, probeKeys, buildKeys, res, leftOuter, rightWidth, pb.b),
			en(label, ltree, rtree), nil
	}
	var on expr.Node
	if join.On != nil {
		n, err := expr.Compile(join.On, combined)
		if err != nil {
			return nil, nil, err
		}
		on = n
	}
	label := fmt.Sprintf("NLJoin(%s", kind)
	if join.On != nil {
		label += " on=" + join.On.String()
	}
	label += ")"
	return engine.NewNLJoin(left, right, on, leftOuter, rightWidth, pb.b),
		en(label, ltree, rtree), nil
}

// sideOf reports which side of join ti an expression's columns belong to:
// 0 = earlier tables (probe), 1 = table ti (build).
func (pb *builder) sideOf(e sql.Expr, ti int) (int, bool) {
	cols := expr.Columns(e, nil)
	if len(cols) == 0 {
		return 0, false
	}
	side := -1
	for _, c := range cols {
		qual := strings.ToLower(c.Table)
		name := strings.ToLower(c.Name)
		s := -1
		for i, t := range pb.tables[:ti+1] {
			if qual != "" && t.qual != qual {
				continue
			}
			if t.entry.Schema.Index(name) >= 0 {
				if i == ti {
					s = 1
				} else {
					s = 0
				}
				break
			}
		}
		if s < 0 {
			return 0, false
		}
		if side >= 0 && side != s {
			return 0, false
		}
		side = s
	}
	return side, true
}
