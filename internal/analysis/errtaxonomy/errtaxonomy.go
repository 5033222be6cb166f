// Package errtaxonomy keeps the scan boundary typed: every error built on
// a scan path in internal/core and internal/rawfile must speak the
// internal/faults taxonomy, so callers can switch on errors.Is classes and
// the per-table on_error policies can act on them without parsing message
// strings.
//
// Flagged: bare errors.New anywhere in scope, and fmt.Errorf that does not
// verifiably wrap the faults package — i.e. its arguments contain no
// faults sentinel, faults constructor call or *faults.ScanError, or its
// format has no %w verb. Construction-time validation helpers that are not
// reachable from the scan-serving surface are out of scope.
//
// The check is cross-package through the "errtaxonomy.untyped" fact: every
// module package (except faults itself) exports it for functions that
// build an untyped error AND let it flow to a return, and a scan-path
// function that returns such a carrier's error is flagged at the call
// site. A helper that builds an untyped error but handles it locally
// exports nothing — the taxonomy only cares about errors that escape.
package errtaxonomy

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"path"
	"sort"
	"strings"

	"nodb/internal/analysis/nodbvet"
)

// UntypedFact marks a function that (transitively) returns an untyped
// error: one built by errors.New or a non-%w-wrapping fmt.Errorf.
const UntypedFact = "errtaxonomy.untyped"

// Roots names, per package, the scan-path entry points. In rawfile the
// whole package is scan substrate, so every function is a root.
var Roots = map[string]map[string]bool{
	"core":    {"NextBatch": true, "DrainAgg": true, "splitter": true, "worker": true, "OpenScan": true, "NewScan": true},
	"rawfile": {"*": true},
}

// Analyzer is the errtaxonomy check.
var Analyzer = &nodbvet.Analyzer{
	Name:      "errtaxonomy",
	Directive: "errtaxonomy-ok",
	Doc: "errors constructed on scan paths (core, rawfile) must be typed: use the faults package " +
		"constructors or wrap a faults sentinel with %w; bare errors.New/fmt.Errorf leaves callers " +
		"and on_error policies unable to classify the failure",
	Run: run,
}

func run(pass *nodbvet.Pass) error {
	if path.Base(pass.Pkg.Path()) == "faults" {
		return nil // the taxonomy's home builds errors by design
	}
	g := nodbvet.BuildCallGraph(pass)
	roots, checked := Roots[pass.Pkg.Name()]
	var reach map[*types.Func]bool
	if checked && !roots["*"] {
		reach = g.ReachableFrom(roots)
	}

	if checked {
		for _, f := range pass.Files {
			for _, decl := range f.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Body == nil {
					continue
				}
				if reach != nil {
					obj, ok := pass.TypesInfo.Defs[fn.Name].(*types.Func)
					if !ok || !reach[obj] {
						continue
					}
				}
				checkFunc(pass, g, fn)
			}
		}
	}

	exportFacts(pass, g)
	return nil
}

func checkFunc(pass *nodbvet.Pass, g *nodbvet.CallGraph, fn *ast.FuncDecl) {
	flow := buildFlow(pass, fn.Body)
	type finding struct {
		pos token.Pos
		msg string
	}
	var found []finding
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch calleePath(pass, call) {
		case "errors.New":
			found = append(found, finding{call.Pos(),
				"untyped errors.New on a scan path; construct a faults.ScanError (faults.Malformed, " +
					"faults.IO, ...) or wrap a faults sentinel so the error is errors.Is-classifiable, " +
					"or suppress with //nodbvet:errtaxonomy-ok <why>"})
		case "fmt.Errorf":
			if wrapsFaults(pass, call) {
				return true
			}
			found = append(found, finding{call.Pos(),
				"fmt.Errorf on a scan path does not verifiably wrap the faults taxonomy; wrap a " +
					"faults sentinel with %w, use a faults constructor, or suppress with " +
					"//nodbvet:errtaxonomy-ok <why>"})
		default:
			// Imported untyped-error carrier whose result escapes through
			// this function's return: the taxonomy hole crosses the
			// package boundary right here.
			callee := calleeFunc(pass, call)
			if callee == nil {
				return true
			}
			if _, declared := g.Decl(callee); declared {
				return true // local constructions report at their own site
			}
			if pass.Deps.FuncHas(nodbvet.FuncID(callee), UntypedFact) && flow.flows(call) {
				found = append(found, finding{call.Pos(),
					"call to " + nodbvet.ShortName(callee) + " returns an untyped error " +
						"(errtaxonomy.untyped fact) that flows to this scan-path return — wrap it " +
						"with a faults constructor or %w around a faults sentinel, or suppress with " +
						"//nodbvet:errtaxonomy-ok <why>"})
			}
		}
		return true
	})
	sort.Slice(found, func(i, j int) bool { return found[i].pos < found[j].pos })
	for _, f := range found {
		pass.Reportf(f.pos, "%s", f.msg)
	}
}

// exportFacts publishes the errtaxonomy.untyped fact: a function taints if
// an unsuppressed untyped construction (or a call to a tainted/imported
// carrier) flows to one of its returns.
func exportFacts(pass *nodbvet.Pass, g *nodbvet.CallGraph) {
	flows := map[*types.Func]*flowInfo{}
	for fn, decl := range g.Decls() {
		flows[fn] = buildFlow(pass, decl.Body)
	}
	tainted := map[*types.Func]bool{}
	for fn, decl := range g.Decls() {
		flow := flows[fn]
		ast.Inspect(decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || tainted[fn] {
				return true
			}
			switch calleePath(pass, call) {
			case "errors.New":
			case "fmt.Errorf":
				if wrapsFaults(pass, call) {
					return true
				}
			default:
				return true
			}
			if flow.flows(call) && !pass.SuppressedAt(call.Pos()) {
				tainted[fn] = true
			}
			return true
		})
	}
	for changed := true; changed; {
		changed = false
		for fn, decl := range g.Decls() {
			if tainted[fn] {
				continue
			}
			flow := flows[fn]
			ast.Inspect(decl.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok || tainted[fn] {
					return true
				}
				callee := calleeFunc(pass, call)
				if callee == nil || !flow.flows(call) || pass.SuppressedAt(call.Pos()) {
					return true
				}
				carrier := tainted[callee]
				if _, declared := g.Decl(callee); !declared {
					carrier = pass.Deps.FuncHas(nodbvet.FuncID(callee), UntypedFact)
				}
				if carrier {
					tainted[fn] = true
					changed = true
				}
				return true
			})
		}
	}
	for fn := range tainted {
		pass.Out.AddFunc(nodbvet.FuncID(fn), UntypedFact)
	}
}

// flowInfo records, for one function body, which call results escape
// through a return: either the call sits inside a return statement, or its
// result is assigned to a variable that some return statement mentions.
// One assignment hop is tracked — enough for the `if err := f(); err !=
// nil { return err }` idiom that dominates the tree.
type flowInfo struct {
	direct     map[ast.Node]bool
	assignedTo map[ast.Node][]types.Object
	returned   map[types.Object]bool
}

func buildFlow(pass *nodbvet.Pass, body *ast.BlockStmt) *flowInfo {
	fi := &flowInfo{
		direct:     map[ast.Node]bool{},
		assignedTo: map[ast.Node][]types.Object{},
		returned:   map[types.Object]bool{},
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ReturnStmt:
			// Only top-level result expressions count: `return err` and
			// `return f()` escape raw, while `return wrap(err)` hands the
			// value to a wrapper first — if the wrapper is untyped too, it
			// is flagged on its own.
			for _, res := range n.Results {
				switch r := res.(type) {
				case *ast.CallExpr:
					fi.direct[r] = true
				case *ast.Ident:
					if obj := pass.TypesInfo.ObjectOf(r); obj != nil && isErrorish(obj.Type()) {
						fi.returned[obj] = true
					}
				}
			}
		case *ast.AssignStmt:
			// Only the error-typed targets matter: a multi-value call whose
			// non-error result is returned does not leak its error.
			var lhs []types.Object
			for _, l := range n.Lhs {
				if id, ok := l.(*ast.Ident); ok {
					if obj := pass.TypesInfo.ObjectOf(id); obj != nil && isErrorish(obj.Type()) {
						lhs = append(lhs, obj)
					}
				}
			}
			if len(lhs) == 0 {
				return true
			}
			for _, r := range n.Rhs {
				ast.Inspect(r, func(m ast.Node) bool {
					if call, ok := m.(*ast.CallExpr); ok {
						fi.assignedTo[call] = append(fi.assignedTo[call], lhs...)
					}
					return true
				})
			}
		}
		return true
	})
	return fi
}

func (fi *flowInfo) flows(call ast.Node) bool {
	if fi.direct[call] {
		return true
	}
	for _, obj := range fi.assignedTo[call] {
		if fi.returned[obj] {
			return true
		}
	}
	return false
}

// isErrorish reports whether t is the error interface or a type
// implementing it.
func isErrorish(t types.Type) bool {
	iface, ok := types.Universe.Lookup("error").Type().Underlying().(*types.Interface)
	if !ok {
		return false
	}
	return types.Implements(t, iface)
}

// calleeFunc resolves a call's callee to a *types.Func (package function
// or method), or nil.
func calleeFunc(pass *nodbvet.Pass, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := pass.TypesInfo.Uses[id].(*types.Func)
	return fn
}

// calleePath renders a call's callee as "pkg.Func" for package-level
// functions of imported packages.
func calleePath(pass *nodbvet.Pass, call *ast.CallExpr) string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	pkgID, ok := sel.X.(*ast.Ident)
	if !ok {
		return ""
	}
	pkgName, ok := pass.TypesInfo.Uses[pkgID].(*types.PkgName)
	if !ok {
		return ""
	}
	return pkgName.Imported().Path() + "." + sel.Sel.Name
}

// wrapsFaults reports whether a fmt.Errorf call provably produces a
// faults-classified error: its format string contains %w and at least one
// argument mentions the faults package (a sentinel like faults.ErrIO, a
// constructor call, or a value of a faults type).
func wrapsFaults(pass *nodbvet.Pass, call *ast.CallExpr) bool {
	if len(call.Args) == 0 {
		return false
	}
	tv, ok := pass.TypesInfo.Types[call.Args[0]]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return false
	}
	if !strings.Contains(constant.StringVal(tv.Value), "%w") {
		return false
	}
	for _, arg := range call.Args[1:] {
		if mentionsFaults(pass, arg) {
			return true
		}
	}
	return false
}

func mentionsFaults(pass *nodbvet.Pass, e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || found {
			return true
		}
		if pkgName, ok := pass.TypesInfo.Uses[id].(*types.PkgName); ok &&
			pkgName.Imported().Path() == "nodb/internal/faults" {
			found = true
		}
		// A value whose static type is declared in faults (e.g. a
		// *faults.ScanError variable) counts too.
		if obj := pass.TypesInfo.ObjectOf(id); obj != nil {
			if named, ok := derefNamed(obj.Type()); ok && named.Obj().Pkg() != nil &&
				named.Obj().Pkg().Path() == "nodb/internal/faults" {
				found = true
			}
		}
		return true
	})
	return found
}

func derefNamed(t types.Type) (*types.Named, bool) {
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	return named, ok
}
