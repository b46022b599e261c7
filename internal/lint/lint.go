// Package lint holds the shared infrastructure of saga-vet, the platform's
// invariant analyzer suite (cmd/saga-vet): marker-comment indexing, the
// durable-call matcher of the errdrop analyzer, and small type helpers.
//
// The analyzers machine-check contracts that used to live only in doc
// comments — see docs/INVARIANTS.md for the invariant catalogue each
// diagnostic links to:
//
//   - sharedmut: stores to records obtained from the clone-free shared read
//     paths (docs/INVARIANTS.md#cow-shared-records)
//   - budgetgo: raw goroutines bypassing the WorkerBudget bounded pools
//     (docs/INVARIANTS.md#bounded-goroutines)
//   - errdrop: discarded errors from durable storage and publish paths
//     (docs/INVARIANTS.md#durable-errors)
//
// Intentional exceptions are annotated in the source with marker comments
// (//saga:owns, //saga:longlived, //saga:errok), each with a one-line
// justification. A marker covers
// the line it is written on and, when it stands alone, the line below it.
package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Marker names honored by the suite. Each analyzer documents which marker
// suppresses its diagnostics.
const (
	MarkerOwns      = "saga:owns"      // sharedmut: ownership of the record was transferred
	MarkerLonglived = "saga:longlived" // budgetgo: sanctioned out-of-budget goroutine
	MarkerErrOK     = "saga:errok"     // errdrop: the dropped error is intentional
)

// Markers indexes //saga: marker comments of a package by file and line.
type Markers struct {
	fset   *token.FileSet
	byFile map[string]map[int][]string // filename -> line -> marker names
}

// NewMarkers scans the files' comments for //saga: markers.
func NewMarkers(fset *token.FileSet, files []*ast.File) *Markers {
	m := &Markers{fset: fset, byFile: make(map[string]map[int][]string)}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				if !strings.HasPrefix(text, "saga:") {
					continue
				}
				name := text
				if i := strings.IndexAny(text, " \t"); i >= 0 {
					name = text[:i]
				}
				pos := fset.Position(c.Pos())
				lines := m.byFile[pos.Filename]
				if lines == nil {
					lines = make(map[int][]string)
					m.byFile[pos.Filename] = lines
				}
				lines[pos.Line] = append(lines[pos.Line], name)
			}
		}
	}
	return m
}

// Covers reports whether the named marker applies at pos: written on the
// same line (trailing comment) or on the line directly above (standalone
// comment).
func (m *Markers) Covers(pos token.Pos, name string) bool {
	p := m.fset.Position(pos)
	lines := m.byFile[p.Filename]
	if lines == nil {
		return false
	}
	for _, l := range []int{p.Line, p.Line - 1} {
		for _, got := range lines[l] {
			if got == name {
				return true
			}
		}
	}
	return false
}

// IsTestFile reports whether pos lies in a _test.go file. The analyzers
// check production code; test files exercise invariant violations on
// purpose (race harnesses, conformance suites) and are skipped.
func IsTestFile(fset *token.FileSet, pos token.Pos) bool {
	return strings.HasSuffix(fset.Position(pos).Filename, "_test.go")
}

// PathHasSegment reports whether one of the slash-separated segments of an
// import path equals seg. Matching on segments rather than substrings keeps
// "internal/storage/disk" matched by "storage" but not by "tor".
func PathHasSegment(path, seg string) bool {
	for _, s := range strings.Split(path, "/") {
		if s == seg {
			return true
		}
	}
	return false
}

// Receiver returns the named type a method is declared on (through one
// pointer), or nil for plain functions.
func Receiver(fn *types.Func) *types.Named {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

// StaticCallee resolves the called *types.Func of a call expression, or nil
// for calls through function values, built-ins, and conversions.
func StaticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		if sel := info.Selections[fun]; sel != nil {
			fn, _ := sel.Obj().(*types.Func)
			return fn
		}
		// Package-qualified call (pkg.Fn).
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// DurableCall reports whether fn is one of the durable storage/publish
// entry points whose errors must never be dropped (errdrop): methods of types
// declared under internal/storage (the role interfaces and every backend),
// the entitystore wrapper, oplog.Log's append/close, graphengine's
// Engine.Publish*, and os.File.Sync (the disk backend's fsync path). The
// returned label names the callee in diagnostics.
func DurableCall(fn *types.Func) (string, bool) {
	if fn == nil || fn.Pkg() == nil {
		return "", false
	}
	recv := Receiver(fn)
	if recv == nil {
		return "", false
	}
	label := recv.Obj().Name() + "." + fn.Name()
	path := fn.Pkg().Path()
	switch {
	case PathHasSegment(path, "storage"):
		return label, true
	case PathHasSegment(path, "entitystore"):
		return label, true
	case recv.Obj().Name() == "Log" && PathHasSegment(path, "oplog") &&
		(fn.Name() == "Append" || fn.Name() == "Close"):
		return label, true
	case recv.Obj().Name() == "Engine" && PathHasSegment(path, "graphengine") &&
		strings.HasPrefix(fn.Name(), "Publish"):
		return label, true
	case path == "os" && recv.Obj().Name() == "File" && fn.Name() == "Sync":
		return label, true
	}
	return "", false
}
