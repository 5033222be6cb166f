// Package commitscope statically enforces the dirty-chunk determinism
// rule: the adaptive structures — positional map, raw cache, statistics
// collector — may only be mutated from the ordered-commit scope
// (Scan.commit and its helpers) or a refresh (Table.Refresh looping over
// Segment.Refresh). Anywhere else, a Populate/Adopt/Put/ObserveBatch/
// Merge/SetRowCount call races the commit order and breaks the
// byte-identical-at-any-parallelism contract the differential tests pin.
//
// The check is cross-package: a function that (transitively) mutates an
// adaptive structure exports a "commitscope.mutates" fact, so a caller in
// another package is flagged even though the mutation is out of sight.
// Sanctioned scope is computed per package as everything reachable from a
// function named commit or Refresh; the packages defining the structures
// (posmap, rawcache, stats) are exempt — mutation is their job.
package commitscope

import (
	"go/types"
	"path"
	"sort"

	"nodb/internal/analysis/nodbvet"
)

// MutatesFact marks a function that (transitively) mutates an adaptive
// structure outside commit scope.
const MutatesFact = "commitscope.mutates"

// Roots are the bare names whose reachable set forms the sanctioned
// mutation scope in every package.
var Roots = map[string]bool{"commit": true, "Refresh": true}

// Packages names the packages where violations are reported: the ones that
// own scan machinery and must respect commit ordering. Lifecycle surfaces
// (the nodb root's Load/Register, drivers, examples) legitimately build
// adaptive structures outside any scan, so facts still flow through them
// but no diagnostics fire there.
var Packages = map[string]bool{"core": true, "engine": true, "planner": true}

// mutators maps a defining package's base name to the mutating methods.
// Matching by base name keeps the analyzer honest on both the real tree
// (nodb/internal/posmap) and fixtures (a local "posmap" stand-in).
var mutators = map[string]map[string]bool{
	"posmap":   {"Populate": true, "Adopt": true},
	"rawcache": {"Put": true},
	"stats":    {"ObserveBatch": true, "Merge": true, "SetRowCount": true},
}

// Analyzer is the commitscope check.
var Analyzer = &nodbvet.Analyzer{
	Name:      "commitscope",
	Directive: "commitscope-ok",
	Doc: "adaptive structures (posmap/rawcache/stats) may only be mutated from ordered-commit scope " +
		"(Scan.commit, Table.Refresh); a Populate/Adopt/Put/ObserveBatch/Merge/SetRowCount call reachable from " +
		"anywhere else races the commit order and breaks byte-identical-at-any-parallelism",
	Run: run,
}

func isMutator(fn *types.Func) bool {
	pkg := fn.Pkg()
	if pkg == nil {
		return false
	}
	return mutators[path.Base(pkg.Path())][fn.Name()]
}

func run(pass *nodbvet.Pass) error {
	if _, defining := mutators[path.Base(pass.Pkg.Path())]; defining {
		return nil
	}
	g := nodbvet.BuildCallGraph(pass)
	sanctioned := g.ReachableFrom(Roots)

	// A site is "mutating" when its callee is a structure mutator or a
	// fact-carrying function from a dependency. Suppressed sites are
	// settled: they neither report nor propagate.
	mutating := func(site nodbvet.CallSite) bool {
		if pass.SuppressedAt(site.Pos) {
			return false
		}
		return isMutator(site.Callee) || pass.Deps.FuncHas(nodbvet.FuncID(site.Callee), MutatesFact)
	}

	var flagged []nodbvet.CallSite
	if Packages[pass.Pkg.Name()] {
		for fn := range g.Decls() {
			if sanctioned[fn] {
				continue
			}
			for _, site := range g.Sites(fn) {
				if mutating(site) {
					flagged = append(flagged, site)
				}
			}
		}
	}
	sort.Slice(flagged, func(i, j int) bool { return flagged[i].Pos < flagged[j].Pos })
	for _, site := range flagged {
		what := "mutates an adaptive structure"
		if isMutator(site.Callee) {
			what = "mutates the " + path.Base(site.Callee.Pkg().Path()) + " adaptive structure"
		}
		pass.Reportf(site.Pos,
			"call to %s %s outside commit scope; adaptive structures may only change under "+
				"Scan.commit/Table.Refresh ordering — route the mutation through the commit path "+
				"or suppress with //nodbvet:commitscope-ok <why>",
			nodbvet.ShortName(site.Callee), what)
	}

	// Export the taint so dependents see through this package: any
	// function outside the sanctioned scope that reaches an unsuppressed
	// mutating site carries the fact.
	tainted := g.Transitive(func(site nodbvet.CallSite) bool {
		if fn := enclosing(g, site); fn != nil && sanctioned[fn] {
			return false
		}
		return mutating(site)
	})
	for fn := range tainted {
		if !sanctioned[fn] {
			pass.Out.AddFunc(nodbvet.FuncID(fn), MutatesFact)
		}
	}
	return nil
}

// enclosing finds the declared function whose body contains the site.
func enclosing(g *nodbvet.CallGraph, site nodbvet.CallSite) *types.Func {
	for fn, decl := range g.Decls() {
		if decl.Body != nil && decl.Body.Pos() <= site.Pos && site.Pos <= decl.Body.End() {
			return fn
		}
	}
	return nil
}
