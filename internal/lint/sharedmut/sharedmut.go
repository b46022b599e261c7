// Package sharedmut implements the saga-vet analyzer enforcing the COW
// shared-record contract (docs/INVARIANTS.md#cow-shared-records).
//
// The clone-free read paths of the platform — triple.Graph.GetShared,
// triple.Graph.RangeShared (and Range, its alias), construct.KG.KGViewShared,
// live.Snapshot.GetShared, and every other API named *Shared — return
// the stored immutable records without copying. Mutating such a record
// corrupts every concurrent reader, every COW snapshot, and the published
// replica at once, in ways the race detector usually cannot see (the write
// may be temporally far from the reads it poisons).
//
// The analyzer taints values returned by shared read APIs (recognized by the
// *Shared naming convention, which is itself part of the contract) and the
// callback parameters of RangeShared-style iterators, tracks the taint
// through local assignments, field/index selection, range statements, and
// address-taking, and reports:
//
//   - stores to a field, map entry, slice element, or pointee reachable
//     from a tainted value,
//   - calls to the record mutators (Add, AddFact, AddRelFact, Dedup,
//     Rewrite) with a tainted receiver,
//   - delete() on a tainted map.
//
// Cloning breaks the taint (call results are fresh values), so the fix is
// always either `e = e.Clone()` before mutating or switching to the cloning
// read path. An intentional ownership transfer — the API handed the caller
// a private record — is annotated //saga:owns with a justification; the
// triple package itself (the owner of the records) is exempt.
package sharedmut

import (
	"go/ast"
	"go/token"
	"go/types"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"

	"saga/internal/lint"
)

// Analyzer is the sharedmut pass.
var Analyzer = &analysis.Analyzer{
	Name:     "sharedmut",
	Doc:      "report mutations of shared KG records obtained from clone-free *Shared read paths (docs/INVARIANTS.md#cow-shared-records)",
	URL:      "docs/INVARIANTS.md#cow-shared-records",
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      run,
}

// recordMutators are the in-place mutators of triple.Entity; calling one on
// a shared record is as much a store as a direct field write.
var recordMutators = map[string]bool{
	"Add": true, "AddFact": true, "AddRelFact": true, "Dedup": true, "Rewrite": true,
}

func run(pass *analysis.Pass) (any, error) {
	// The triple package owns the record store: its write paths mutate
	// private clones before publication by design.
	if pass.Pkg.Name() == "triple" {
		return nil, nil
	}
	markers := lint.NewMarkers(pass.Fset, pass.Files)
	insp := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	insp.Preorder([]ast.Node{(*ast.FuncDecl)(nil)}, func(n ast.Node) {
		fd := n.(*ast.FuncDecl)
		if fd.Body == nil || lint.IsTestFile(pass.Fset, fd.Pos()) {
			return
		}
		a := &analyzer{pass: pass, markers: markers, tainted: make(map[types.Object]bool)}
		ast.Inspect(fd.Body, a.visit)
	})
	return nil, nil
}

// analyzer tracks, within one function, which local objects alias a shared
// record. The walk is pre-order, which visits statements in source order;
// assignment of a fresh value to a plain identifier clears its taint (so
// `e = e.Clone()` launders correctly).
type analyzer struct {
	pass    *analysis.Pass
	markers *lint.Markers
	tainted map[types.Object]bool
}

func (a *analyzer) visit(n ast.Node) bool {
	switch n := n.(type) {
	case *ast.AssignStmt:
		a.assign(n)
	case *ast.ValueSpec:
		a.valueSpec(n)
	case *ast.RangeStmt:
		a.rangeStmt(n)
	case *ast.IncDecStmt:
		a.checkStore(n.X, n.Pos(), "increment of")
	case *ast.CallExpr:
		a.call(n)
	}
	return true
}

// assign handles both taint bookkeeping and the store check of one
// assignment statement.
func (a *analyzer) assign(n *ast.AssignStmt) {
	for _, lhs := range n.Lhs {
		a.checkStore(lhs, n.Pos(), "store into")
	}
	// Taint propagation. Multi-value RHS (x, ok := call/map/assert) taints
	// every identifier on the left when the single source is tainted.
	if len(n.Rhs) == 1 && len(n.Lhs) > 1 {
		t := a.exprTainted(n.Rhs[0])
		for _, lhs := range n.Lhs {
			a.setIdentTaint(lhs, t)
		}
		return
	}
	if len(n.Rhs) != len(n.Lhs) {
		return
	}
	for i, lhs := range n.Lhs {
		a.setIdentTaint(lhs, a.exprTainted(n.Rhs[i]))
	}
}

func (a *analyzer) valueSpec(n *ast.ValueSpec) {
	if len(n.Values) != len(n.Names) {
		return
	}
	for i, name := range n.Names {
		if obj := a.pass.TypesInfo.Defs[name]; obj != nil && a.exprTainted(n.Values[i]) {
			a.tainted[obj] = true
		}
	}
}

func (a *analyzer) rangeStmt(n *ast.RangeStmt) {
	if !a.exprTainted(n.X) {
		return
	}
	// Iterating a tainted container yields tainted elements (ranging a
	// shared []*Entity hands out the shared records themselves).
	a.setIdentTaint(n.Key, true)
	a.setIdentTaint(n.Value, true)
}

func (a *analyzer) call(n *ast.CallExpr) {
	// delete(m, k) on a tainted map rewrites shared state.
	if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && id.Name == "delete" && len(n.Args) == 2 {
		if _, isBuiltin := a.pass.TypesInfo.Uses[id].(*types.Builtin); isBuiltin && a.exprTainted(n.Args[0]) {
			a.report(n.Pos(), "delete from shared map")
			return
		}
	}
	fn := lint.StaticCallee(a.pass.TypesInfo, n)
	if fn == nil {
		return
	}
	// A shared iterator taking a callback hands the callback shared
	// records: taint the func literal's reference-typed parameters.
	if isSharedSource(fn) {
		for _, arg := range n.Args {
			if lit, ok := ast.Unparen(arg).(*ast.FuncLit); ok {
				a.taintCallbackParams(lit)
			}
		}
		return
	}
	// Record mutator invoked on a tainted receiver.
	if recordMutators[fn.Name()] {
		if recv := lint.Receiver(fn); recv != nil && recv.Obj().Pkg() != nil && lint.PathHasSegment(recv.Obj().Pkg().Path(), "triple") {
			if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok && a.exprTainted(sel.X) {
				a.report(n.Pos(), fn.Name()+" called on")
			}
		}
	}
}

func (a *analyzer) taintCallbackParams(lit *ast.FuncLit) {
	for _, field := range lit.Type.Params.List {
		for _, name := range field.Names {
			obj := a.pass.TypesInfo.Defs[name]
			if obj == nil {
				continue
			}
			switch obj.Type().Underlying().(type) {
			case *types.Pointer, *types.Map, *types.Slice, *types.Interface:
				a.tainted[obj] = true
			}
		}
	}
}

// setIdentTaint records (or clears — a strong update, so cloning launders)
// the taint of a plain identifier target.
func (a *analyzer) setIdentTaint(lhs ast.Expr, tainted bool) {
	id, ok := ast.Unparen(lhs).(*ast.Ident)
	if !ok || id.Name == "_" {
		return
	}
	obj := a.pass.TypesInfo.Defs[id]
	if obj == nil {
		obj = a.pass.TypesInfo.Uses[id]
	}
	if obj == nil {
		return
	}
	if tainted {
		a.tainted[obj] = true
	} else {
		delete(a.tainted, obj)
	}
}

// checkStore reports when an assignment target is a component (field, index,
// pointee) of a tainted value. Rebinding a plain identifier is not a store
// into the record, so bare identifiers are exempt here and handled by the
// taint bookkeeping instead.
func (a *analyzer) checkStore(lhs ast.Expr, at token.Pos, verb string) {
	switch ast.Unparen(lhs).(type) {
	case *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
		if a.exprTainted(lhs) {
			a.report(at, verb+" field of")
		}
	}
}

// exprTainted reports whether the expression's value aliases a shared
// record: it is a shared-source call, derives from a tainted identifier
// through selection/indexing/dereference/address-taking, or is a composite
// literal embedding a tainted value. Other call results are fresh values
// (this is what makes Clone() break the taint).
func (a *analyzer) exprTainted(e ast.Expr) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		obj := a.pass.TypesInfo.Uses[e]
		if obj == nil {
			obj = a.pass.TypesInfo.Defs[e]
		}
		return obj != nil && a.tainted[obj]
	case *ast.SelectorExpr:
		return a.exprTainted(e.X)
	case *ast.IndexExpr:
		return a.exprTainted(e.X)
	case *ast.SliceExpr:
		return a.exprTainted(e.X)
	case *ast.StarExpr:
		return a.exprTainted(e.X)
	case *ast.UnaryExpr:
		return e.Op == token.AND && a.exprTainted(e.X)
	case *ast.TypeAssertExpr:
		return a.exprTainted(e.X)
	case *ast.CompositeLit:
		for _, el := range e.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				el = kv.Value
			}
			if a.exprTainted(el) {
				return true
			}
		}
		return false
	case *ast.CallExpr:
		if fn := lint.StaticCallee(a.pass.TypesInfo, e); fn != nil && isSharedSource(fn) {
			return true
		}
		return false
	}
	return false
}

func (a *analyzer) report(pos token.Pos, what string) {
	if a.markers.Covers(pos, lint.MarkerOwns) {
		return
	}
	a.pass.Reportf(pos, "%s shared KG record: records from *Shared read paths are immutable after insert — clone before mutating, or mark //saga:owns with a justification (docs/INVARIANTS.md#cow-shared-records)", what)
}

// isSharedSource reports whether fn is a clone-free shared read API: any
// function named *Shared (the naming convention the contract mandates), or
// triple.Graph.Range, RangeShared's documented alias.
func isSharedSource(fn *types.Func) bool {
	name := fn.Name()
	if len(name) > len("Shared") && name[len(name)-len("Shared"):] == "Shared" {
		return true
	}
	if name == "Range" {
		if recv := lint.Receiver(fn); recv != nil && recv.Obj().Name() == "Graph" &&
			recv.Obj().Pkg() != nil && lint.PathHasSegment(recv.Obj().Pkg().Path(), "triple") {
			return true
		}
	}
	return false
}
