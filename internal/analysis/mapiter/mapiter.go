// Package mapiter flags map iteration on the engine's deterministic paths.
//
// The ordered-commit contract (PRs 1-2) promises that results, adaptive
// structure contents and counters are byte-identical at any parallelism.
// Go's map iteration order is deliberately randomized, so a `range` over a
// map anywhere on an ordered-commit / result-emission path is a
// nondeterminism bug of exactly the grouping-key class fixed in PR 2 —
// unless the keys are collected and sorted first, or the site carries a
// //nodbvet:unordered-ok justification (e.g. the loop only folds into an
// order-insensitive accumulator).
//
// The check is cross-package: every module package exports the
// "mapiter.ranges" fact for functions that (transitively) iterate an
// unsorted map, and a call to such a carrier from an ordered path in the
// checked packages is flagged at the call site — a posmap helper that
// ranges its shard map is just as nondeterministic when core's commit
// calls it as a local loop would be.
package mapiter

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"nodb/internal/analysis/nodbvet"
)

// RangesFact marks a function that (transitively) iterates an unsorted
// map.
const RangesFact = "mapiter.ranges"

// Roots names, per package, the entry points of ordered-commit and
// result-emission paths; every package function reachable from them is
// checked. Matching is by bare function/method name, so "NextBatch" covers
// every operator's NextBatch method.
var Roots = map[string]map[string]bool{
	// internal/core: chunk commit/merge and the scan's serving surface.
	"core": {"commit": true, "mergePartials": true, "NextBatch": true, "DrainAgg": true},
	// internal/engine: operator output.
	"engine": {"NextBatch": true},
	// internal/expr: aggregate state merge and finalization.
	"expr": {"Merge": true, "Result": true},
}

// Analyzer is the mapiter check.
var Analyzer = &nodbvet.Analyzer{
	Name:      "mapiter",
	Directive: "unordered-ok",
	Doc: "flags range-over-map in functions reachable from ordered-commit/result-emission paths " +
		"(core commit/merge, engine operator output, expr aggregate merge); map order is randomized, " +
		"so such loops break the byte-identical-at-any-parallelism contract unless keys are sorted first",
	Run: run,
}

func run(pass *nodbvet.Pass) error {
	g := nodbvet.BuildCallGraph(pass)
	roots, checked := Roots[pass.Pkg.Name()]
	var reach map[*types.Func]bool
	if checked {
		reach = g.ReachableFrom(roots)
	}

	// Direct unsorted-map-range sites per declared function.
	direct := map[*types.Func][]token.Pos{}
	for fn, decl := range g.Decls() {
		fn, decl := fn, decl
		ast.Inspect(decl.Body, func(n ast.Node) bool {
			rng, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			tv, ok := pass.TypesInfo.Types[rng.X]
			if !ok {
				return true
			}
			if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
				return true
			}
			if collectsSortedKeys(pass, rng, decl) {
				return true
			}
			direct[fn] = append(direct[fn], rng.Pos())
			return true
		})
	}

	// Report in checked packages: direct ranges and imported fact carriers
	// called from root-reachable functions.
	if checked {
		type finding struct {
			pos token.Pos
			msg string
		}
		var found []finding
		for fn := range reach {
			if _, declared := g.Decl(fn); !declared {
				continue
			}
			for _, pos := range direct[fn] {
				found = append(found, finding{pos,
					"range over map in " + fn.Name() + ", which is reachable from an ordered-commit/" +
						"result-emission root; map order is randomized — iterate sorted keys, keep a " +
						"first-seen order slice, or suppress with //nodbvet:unordered-ok <why>"})
			}
			for _, site := range g.Sites(fn) {
				if _, declared := g.Decl(site.Callee); declared {
					continue // local ranges report at their own site
				}
				if pass.Deps.FuncHas(nodbvet.FuncID(site.Callee), RangesFact) {
					found = append(found, finding{site.Pos,
						"call to " + nodbvet.ShortName(site.Callee) + " iterates an unsorted map " +
							"(mapiter.ranges fact) on an ordered-commit/result-emission path — have the " +
							"callee iterate sorted keys, or suppress with //nodbvet:unordered-ok <why>"})
				}
			}
		}
		sort.Slice(found, func(i, j int) bool { return found[i].pos < found[j].pos })
		for _, f := range found {
			pass.Reportf(f.pos, "%s", f.msg)
		}
	}

	// Facts: functions with an unsuppressed unsorted map range, closed over
	// local calls and imported carriers, exported from every package.
	tainted := map[*types.Func]bool{}
	for fn, sites := range direct {
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
			if tainted[fn] {
				continue
			}
			for _, site := range g.Sites(fn) {
				if tainted[site.Callee] {
					tainted[fn] = true
					changed = true
					break
				}
				if _, declared := g.Decl(site.Callee); !declared &&
					pass.Deps.FuncHas(nodbvet.FuncID(site.Callee), RangesFact) &&
					!pass.SuppressedAt(site.Pos) {
					tainted[fn] = true
					changed = true
					break
				}
			}
		}
	}
	for fn := range tainted {
		pass.Out.AddFunc(nodbvet.FuncID(fn), RangesFact)
	}
	return nil
}

// collectsSortedKeys recognizes the one blessed shape of map iteration on
// an ordered path: a loop whose body only appends the key (or value) to a
// slice that the same function later sorts.
//
//	for k := range m { keys = append(keys, k) }
//	sort.Strings(keys)            // or sort.Slice(keys, ...), slices.Sort(keys)
func collectsSortedKeys(pass *nodbvet.Pass, rng *ast.RangeStmt, decl *ast.FuncDecl) bool {
	if len(rng.Body.List) != 1 {
		return false
	}
	assign, ok := rng.Body.List[0].(*ast.AssignStmt)
	if !ok || len(assign.Lhs) != 1 || len(assign.Rhs) != 1 {
		return false
	}
	dst, ok := assign.Lhs[0].(*ast.Ident)
	if !ok {
		return false
	}
	call, ok := assign.Rhs[0].(*ast.CallExpr)
	if !ok {
		return false
	}
	if fun, ok := call.Fun.(*ast.Ident); !ok || fun.Name != "append" {
		return false
	}
	dstObj := pass.TypesInfo.ObjectOf(dst)
	if dstObj == nil {
		return false
	}
	// The collected slice must be sorted somewhere in the same function:
	// a call like sort.X(dst, ...) or slices.Sort(dst).
	sorted := false
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 || sorted {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		pkg, ok := sel.X.(*ast.Ident)
		if !ok {
			return true
		}
		if pkgName, ok := pass.TypesInfo.Uses[pkg].(*types.PkgName); !ok ||
			(pkgName.Imported().Path() != "sort" && pkgName.Imported().Path() != "slices") {
			return true
		}
		if arg, ok := call.Args[0].(*ast.Ident); ok && pass.TypesInfo.ObjectOf(arg) == dstObj {
			sorted = true
		}
		return true
	})
	return sorted
}
