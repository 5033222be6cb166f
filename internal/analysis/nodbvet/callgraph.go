package nodbvet

import (
	"go/ast"
	"go/token"
	"go/types"
)

// CallSite is one reference from a declared function to a callee — called,
// deferred, launched with go, passed as a value, or used as a method
// value. The callee may live in another package: cross-package sites are
// what the fact-consuming analyzers match against Pass.Deps.
type CallSite struct {
	Callee *types.Func
	Pos    token.Pos
}

// CallGraph is a conservative reference graph over one package's declared
// functions: an edge A -> B exists when A's body mentions function/method
// B at all. Over-approximating references as calls errs toward checking
// more code, which is the right direction for an invariant checker.
// Unlike the PR-7 version, edges to functions of other packages are
// recorded too (with positions), so analyzers can consult imported facts
// at the call site.
type CallGraph struct {
	decls map[*types.Func]*ast.FuncDecl
	sites map[*types.Func][]CallSite
}

// BuildCallGraph indexes every function declaration of the pass's package.
func BuildCallGraph(pass *Pass) *CallGraph {
	g := &CallGraph{
		decls: map[*types.Func]*ast.FuncDecl{},
		sites: map[*types.Func][]CallSite{},
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			obj, ok := pass.TypesInfo.Defs[fn.Name].(*types.Func)
			if !ok {
				continue
			}
			g.decls[obj] = fn
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				id, ok := n.(*ast.Ident)
				if !ok {
					return true
				}
				callee, ok := pass.TypesInfo.Uses[id].(*types.Func)
				if !ok {
					return true
				}
				g.sites[obj] = append(g.sites[obj], CallSite{Callee: callee, Pos: id.Pos()})
				return true
			})
		}
	}
	return g
}

// Decl returns the declaration of fn, if it is declared in this package.
func (g *CallGraph) Decl(fn *types.Func) (*ast.FuncDecl, bool) {
	d, ok := g.decls[fn]
	return d, ok
}

// Decls returns the declared-function index (iterate with care: map order
// is unspecified, so reports must not depend on iteration order alone).
func (g *CallGraph) Decls() map[*types.Func]*ast.FuncDecl { return g.decls }

// Sites returns every reference fn's body makes, in source order.
func (g *CallGraph) Sites(fn *types.Func) []CallSite { return g.sites[fn] }

// ReachableFrom returns the set of functions reachable from any declared
// function whose bare name is in roots (methods match by method name, so
// "NextBatch" covers every operator's NextBatch). Recursion follows only
// edges to functions declared in this package; external callees appear in
// the result set but are not expanded.
func (g *CallGraph) ReachableFrom(roots map[string]bool) map[*types.Func]bool {
	seen := map[*types.Func]bool{}
	var visit func(fn *types.Func)
	visit = func(fn *types.Func) {
		if seen[fn] {
			return
		}
		seen[fn] = true
		for _, site := range g.sites[fn] {
			if _, declared := g.decls[site.Callee]; declared {
				visit(site.Callee)
			} else {
				seen[site.Callee] = true
			}
		}
	}
	for fn := range g.decls {
		if roots[fn.Name()] {
			visit(fn)
		}
	}
	return seen
}

// Transitive computes the declared functions that reach a seed call site,
// directly or through any chain of same-package calls: fn is in the
// result when some site of fn satisfies seed, or references a declared
// function already in the result. Analyzers use it to export transitive
// facts ("this function eventually mutates X") with per-site control —
// the seed predicate typically excludes sites carrying a justified
// suppression, so a settled finding does not propagate to dependents.
func (g *CallGraph) Transitive(seed func(CallSite) bool) map[*types.Func]bool {
	tainted := map[*types.Func]bool{}
	for changed := true; changed; {
		changed = false
		for fn := range g.decls {
			if tainted[fn] {
				continue
			}
			for _, site := range g.sites[fn] {
				if seed(site) || tainted[site.Callee] {
					tainted[fn] = true
					changed = true
					break
				}
			}
		}
	}
	return tainted
}
