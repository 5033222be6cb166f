// Package floatdet protects the bitwise SUM/AVG parity contract: float
// addition is not associative, so the engine confines float accumulation
// to the scopes whose evaluation order is pinned — aggregate Step/Merge/
// Result in expr (per-chunk folds and the file-order merge) and the
// ordered-commit paths in core/engine. A running float total anywhere
// else picks up scheduling order and breaks the byte-identical-at-any-
// parallelism differential tests.
//
// Accumulation is recognized syntactically: op-assign (+= -= *= /=) on a
// float, and the x = x + y self-reference form. The check is
// cross-package through the "floatdet.accum" fact: a function anywhere in
// the module that accumulates floats (transitively) exports it, and a
// call from an unsanctioned scope in the checked packages is flagged.
package floatdet

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"nodb/internal/analysis/nodbvet"
)

// AccumFact marks a function that (transitively) accumulates floats
// outside a sanctioned ordered scope.
const AccumFact = "floatdet.accum"

// Roots names, per checked package, the sanctioned accumulation scopes:
// everything reachable from them has pinned evaluation order.
var Roots = map[string]map[string]bool{
	"expr":   {"Step": true, "Merge": true, "Result": true},
	"core":   {"commit": true, "mergePartials": true, "DrainAgg": true},
	"engine": {"NextBatch": true},
}

// Analyzer is the floatdet check.
var Analyzer = &nodbvet.Analyzer{
	Name:      "floatdet",
	Directive: "floatdet-ok",
	Doc: "float accumulation outside Aggregator Step/Merge/Result and the ordered-commit paths is " +
		"flagged: float addition is not associative, so an unordered running total leaks the " +
		"parallel schedule into SUM/AVG bits",
	Run: run,
}

func run(pass *nodbvet.Pass) error {
	g := nodbvet.BuildCallGraph(pass)
	var allowed map[*types.Func]bool
	roots, checked := Roots[pass.Pkg.Name()]
	if checked {
		allowed = g.ReachableFrom(roots)
	}

	// Direct accumulation sites per declared function.
	direct := map[*types.Func][]token.Pos{}
	for fn, decl := range g.Decls() {
		ast.Inspect(decl.Body, func(n ast.Node) bool {
			if pos, ok := accumPos(pass, n); ok {
				direct[fn] = append(direct[fn], pos)
			}
			return true
		})
	}

	// Report: direct accumulation and fact-carrying calls from
	// unsanctioned functions of the checked packages.
	if checked {
		type finding struct {
			pos token.Pos
			msg string
		}
		var found []finding
		for fn, decl := range g.Decls() {
			if allowed[fn] {
				continue
			}
			for _, pos := range direct[fn] {
				found = append(found, finding{pos,
					"float accumulation in " + fn.Name() + " outside the ordered-merge scope; float " +
						"addition is not associative, so the accumulation order leaks into SUM/AVG bits — " +
						"move it into Step/Merge or the ordered-commit path, or suppress with " +
						"//nodbvet:floatdet-ok <why>"})
			}
			_ = decl
			for _, site := range g.Sites(fn) {
				if _, declared := g.Decl(site.Callee); declared {
					continue // local accumulation reports at its own site
				}
				if pass.Deps.FuncHas(nodbvet.FuncID(site.Callee), AccumFact) {
					found = append(found, finding{site.Pos,
						"call to " + nodbvet.ShortName(site.Callee) + " accumulates floats " +
							"(floatdet.accum fact) outside the ordered-merge scope — move the call into " +
							"Step/Merge or the ordered-commit path, or suppress with //nodbvet:floatdet-ok <why>"})
				}
			}
		}
		sort.Slice(found, func(i, j int) bool { return found[i].pos < found[j].pos })
		for _, f := range found {
			pass.Reportf(f.pos, "%s", f.msg)
		}
	}

	// Facts: unsanctioned functions with unsuppressed direct accumulation,
	// closed over local calls and imported carriers. Sanctioned functions
	// export nothing — they ARE the blessed scope.
	tainted := map[*types.Func]bool{}
	for fn, sites := range direct {
		if allowed[fn] {
			continue
		}
		for _, pos := range sites {
			if !pass.SuppressedAt(pos) {
				tainted[fn] = true
				break
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for fn := range g.Decls() {
			if tainted[fn] || allowed[fn] {
				continue
			}
			for _, site := range g.Sites(fn) {
				if tainted[site.Callee] {
					tainted[fn] = true
					changed = true
					break
				}
				if _, declared := g.Decl(site.Callee); !declared &&
					pass.Deps.FuncHas(nodbvet.FuncID(site.Callee), AccumFact) &&
					!pass.SuppressedAt(site.Pos) {
					tainted[fn] = true
					changed = true
					break
				}
			}
		}
	}
	for fn := range tainted {
		pass.Out.AddFunc(nodbvet.FuncID(fn), AccumFact)
	}
	return nil
}

// accumPos recognizes one float accumulation statement.
func accumPos(pass *nodbvet.Pass, n ast.Node) (token.Pos, bool) {
	switch n := n.(type) {
	case *ast.AssignStmt:
		if len(n.Lhs) != 1 || len(n.Rhs) != 1 {
			return token.NoPos, false
		}
		if !isFloat(pass, n.Lhs[0]) {
			return token.NoPos, false
		}
		switch n.Tok {
		case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
			return n.TokPos, true
		case token.ASSIGN:
			// x = x + y (or y + x): the self-reference running-total form.
			bin, ok := n.Rhs[0].(*ast.BinaryExpr)
			if !ok {
				return token.NoPos, false
			}
			switch bin.Op {
			case token.ADD, token.SUB, token.MUL, token.QUO:
			default:
				return token.NoPos, false
			}
			lhs := types.ExprString(n.Lhs[0])
			if types.ExprString(bin.X) == lhs || types.ExprString(bin.Y) == lhs {
				return n.TokPos, true
			}
		}
	case *ast.IncDecStmt:
		if isFloat(pass, n.X) {
			return n.TokPos, true
		}
	}
	return token.NoPos, false
}

func isFloat(pass *nodbvet.Pass, e ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	basic, ok := tv.Type.Underlying().(*types.Basic)
	return ok && basic.Info()&types.IsFloat != 0
}
