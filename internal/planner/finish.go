package planner

import (
	"fmt"
	"strings"

	"nodb/internal/engine"
	"nodb/internal/expr"
	"nodb/internal/sql"
)

// finish plans projection, DISTINCT, ORDER BY (with hidden sort columns),
// and LIMIT/OFFSET on top of the current operator. names carries the output
// column names derived from the pre-rewrite select items.
func (pb *builder) finish(root engine.Operator, etree *enode, curEnv *expr.Env, sel *sql.Select, items []sql.SelectItem, names []string, hasAgg bool) (*Plan, error) {
	// Compile the projection.
	var projNodes []expr.Node
	var outCols []OutputCol
	for i, it := range items {
		n, err := expr.Compile(it.Expr, curEnv)
		if err != nil {
			closeQuiet(root)
			return nil, err
		}
		projNodes = append(projNodes, pb.evalNode(n))
		outCols = append(outCols, OutputCol{Name: names[i], Kind: n.Kind()})
	}

	// ORDER BY keys: references to select aliases (or positions) sort on the
	// projected column; anything else becomes a hidden projection column.
	type sortPlan struct {
		slot int // slot in the extended projection
		desc bool
	}
	var sorts []sortPlan
	var hidden []expr.Node
	for _, o := range sel.OrderBy {
		oe := o.Expr
		if hasAgg {
			oe = rewriteOverAgg(oe, pb.aggKeys, pb.aggCalls)
		}
		if slot, ok := aliasSlot(oe, items); ok {
			sorts = append(sorts, sortPlan{slot: slot, desc: o.Desc})
			continue
		}
		if lit, ok := oe.(sql.IntLit); ok { // ORDER BY 2 (1-based position)
			if lit.V < 1 || lit.V > int64(len(items)) {
				closeQuiet(root)
				return nil, fmt.Errorf("planner: ORDER BY position %d out of range", lit.V)
			}
			sorts = append(sorts, sortPlan{slot: int(lit.V) - 1, desc: o.Desc})
			continue
		}
		n, err := expr.Compile(oe, curEnv)
		if err != nil {
			closeQuiet(root)
			return nil, err
		}
		sorts = append(sorts, sortPlan{slot: len(projNodes) + len(hidden), desc: o.Desc})
		hidden = append(hidden, pb.evalNode(n))
	}

	if sel.Distinct && len(hidden) > 0 {
		closeQuiet(root)
		return nil, fmt.Errorf("planner: with DISTINCT, ORDER BY must reference select list columns")
	}

	// Extended projection env (synthetic names, collision-free).
	extEnv := expr.NewEnv()
	for i, n := range projNodes {
		extEnv.Add("", fmt.Sprintf("#out%d", i), n.Kind())
	}
	for i, n := range hidden {
		extEnv.Add("", fmt.Sprintf("#hid%d", i), n.Kind())
	}

	op := engine.NewProject(root, append(append([]expr.Node{}, projNodes...), hidden...), pb.b)
	var cur engine.Operator = op
	etree = wrap("Project("+strings.Join(names, ", ")+")"+vecMark(op), etree)

	if sel.Distinct {
		cur = engine.NewDistinct(cur, pb.b)
		etree = wrap("Distinct", etree)
	}
	if len(sorts) > 0 {
		keys := make([]engine.SortKey, len(sorts))
		var labels []string
		for i, s := range sorts {
			keys[i] = engine.SortKey{Expr: expr.Slot(extEnv, s.slot), Desc: s.desc}
			dir := "asc"
			if s.desc {
				dir = "desc"
			}
			labels = append(labels, fmt.Sprintf("%s %s", sel.OrderBy[i].Expr, dir))
		}
		cur = engine.NewSort(cur, keys, pb.b)
		etree = wrap("Sort("+strings.Join(labels, ", ")+")", etree)
	}
	if len(hidden) > 0 {
		// Cut the hidden columns back off.
		cut := make([]expr.Node, len(projNodes))
		for i := range projNodes {
			cut[i] = pb.evalNode(expr.Slot(extEnv, i))
		}
		cur = engine.NewProject(cur, cut, pb.b)
	}
	if sel.Limit >= 0 || sel.Offset > 0 {
		cur = engine.NewLimit(cur, sel.Offset, sel.Limit)
		if sel.Limit >= 0 {
			etree = wrap(fmt.Sprintf("Limit(%d offset %d)", sel.Limit, sel.Offset), etree)
		} else {
			etree = wrap(fmt.Sprintf("Offset(%d)", sel.Offset), etree)
		}
	}
	return &Plan{Root: cur, Columns: outCols, ExplainText: etree.String()}, nil
}

// outputName derives a result column name from a select item.
func outputName(it sql.SelectItem) string {
	if it.Alias != "" {
		return it.Alias
	}
	if cr, ok := it.Expr.(sql.ColumnRef); ok {
		return cr.Name
	}
	return it.Expr.String()
}

// aliasSlot matches a bare column reference against select-item aliases and
// output column names, returning the projection slot.
func aliasSlot(e sql.Expr, items []sql.SelectItem) (int, bool) {
	cr, ok := e.(sql.ColumnRef)
	if !ok || cr.Table != "" {
		return 0, false
	}
	// Prefer explicit aliases.
	for i, it := range items {
		if it.Alias != "" && strings.EqualFold(it.Alias, cr.Name) {
			return i, true
		}
	}
	// Then exact projection matches (ORDER BY a when SELECT a).
	for i, it := range items {
		if pc, ok := it.Expr.(sql.ColumnRef); ok && strings.EqualFold(pc.Name, cr.Name) {
			return i, true
		}
	}
	return 0, false
}
