// Package atomicfields enforces atomic-only access to struct fields that
// are read and written from concurrent paths without a mutex: the node's
// stats counters, its closed/started flags and its persisted seq lease,
// and every other field whose safety argument is "it is only ever
// touched through sync/atomic".
//
// Two kinds of field participate:
//
//   - Fields of a sync/atomic type (atomic.Int64, atomic.Uint64,
//     atomic.Pointer[T], ...) are covered implicitly. The only legal use
//     of such a field is calling a method on it (f.Load(), f.Add(1), ...);
//     copying it, assigning it, comparing it or passing it by value races
//     with concurrent users and is reported (go vet's copylocks catches
//     only a subset of these).
//
//   - Plain integer fields annotated with an //adaptivelint:atomic line
//     comment may only appear as &f arguments to sync/atomic functions
//     (atomic.AddInt64(&f, 1), ...). Every bare read or write is
//     reported.
package atomicfields

import (
	"go/ast"
	"go/token"
	"go/types"

	"adaptivecast/internal/analysis"
)

// Analyzer flags non-atomic access to atomic-designated struct fields.
var Analyzer = &analysis.Analyzer{
	Name:       "atomicfields",
	Doc:        "fields of sync/atomic type (and fields tagged //adaptivelint:atomic) may only be accessed through sync/atomic operations",
	BugClass:   "torn reads and lost updates on lock-free counters",
	Directives: []string{"//adaptivelint:atomic"},
	Run:        run,
}

// fieldClass records how a field is allowed to be used.
type fieldClass int

const (
	atomicTyped  fieldClass = iota // sync/atomic type: methods only
	atomicTagged                   // plain field: &f into sync/atomic calls only
)

func run(pass *analysis.Pass) error {
	marked := collectAtomicFields(pass)
	if len(marked) == 0 {
		return nil
	}
	for _, f := range pass.Files {
		checkFile(pass, f, marked)
	}
	return nil
}

// collectAtomicFields finds every struct field in the package that is
// atomic by type or by directive, keyed by its types.Var identity.
func collectAtomicFields(pass *analysis.Pass) map[*types.Var]fieldClass {
	marked := make(map[*types.Var]fieldClass)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			for _, field := range st.Fields.List {
				tagged := hasAtomicDirective(field)
				for _, name := range field.Names {
					obj, ok := pass.TypesInfo.Defs[name].(*types.Var)
					if !ok {
						continue
					}
					switch {
					case isSyncAtomicType(obj.Type()):
						marked[obj] = atomicTyped
					case tagged:
						marked[obj] = atomicTagged
					}
				}
			}
			return true
		})
	}
	return marked
}

func hasAtomicDirective(field *ast.Field) bool {
	for _, cg := range []*ast.CommentGroup{field.Doc, field.Comment} {
		for _, d := range analysis.CommentDirectives(cg) {
			if d.Verb == "atomic" {
				return true
			}
		}
	}
	return false
}

// isSyncAtomicType reports whether t is a named type from sync/atomic
// (including instantiated generics like atomic.Pointer[T]).
func isSyncAtomicType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	pkg := named.Obj().Pkg()
	return pkg != nil && pkg.Path() == "sync/atomic"
}

// checkFile walks one file with an explicit parent chain so each flagged
// selector can be judged in its syntactic context.
func checkFile(pass *analysis.Pass, f *ast.File, marked map[*types.Var]fieldClass) {
	var stack []ast.Node
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return false
		}
		stack = append(stack, n)
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		selection, ok := pass.TypesInfo.Selections[sel]
		if !ok || selection.Kind() != types.FieldVal {
			return true
		}
		field, ok := selection.Obj().(*types.Var)
		if !ok {
			return true
		}
		class, ok := marked[field]
		if !ok {
			return true
		}
		if !allowedUse(pass, stack, class) {
			switch class {
			case atomicTyped:
				pass.Reportf(sel.Sel.Pos(),
					"atomic field %s must only be used through its sync/atomic methods (Load/Store/Add/Swap/CompareAndSwap)", field.Name())
			case atomicTagged:
				pass.Reportf(sel.Sel.Pos(),
					"field %s is tagged //adaptivelint:atomic and must only be passed as &%s to sync/atomic functions", field.Name(), field.Name())
			}
		}
		return true
	})
}

// allowedUse judges the selector at the top of the stack against its
// field class.
func allowedUse(pass *analysis.Pass, stack []ast.Node, class fieldClass) bool {
	// stack[len-1] is the field selector itself.
	if len(stack) < 2 {
		return false
	}
	parent := stack[len(stack)-2]
	switch class {
	case atomicTyped:
		// Allowed: x.f.Method(...) — the selector is the receiver of a
		// method call on the atomic type.
		methodSel, ok := parent.(*ast.SelectorExpr)
		if !ok || len(stack) < 3 {
			return false
		}
		mSel, ok := pass.TypesInfo.Selections[methodSel]
		if !ok || mSel.Kind() != types.MethodVal {
			return false
		}
		call, ok := stack[len(stack)-3].(*ast.CallExpr)
		return ok && call.Fun == methodSel
	case atomicTagged:
		// Allowed: atomicpkg.Fn(..., &x.f, ...).
		unary, ok := parent.(*ast.UnaryExpr)
		if !ok || unary.Op != token.AND || len(stack) < 3 {
			return false
		}
		call, ok := stack[len(stack)-3].(*ast.CallExpr)
		if !ok {
			return false
		}
		for _, arg := range call.Args {
			if arg == ast.Expr(unary) {
				return calleeIsSyncAtomic(pass, call)
			}
		}
		return false
	}
	return false
}

func calleeIsSyncAtomic(pass *analysis.Pass, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	obj := pass.TypesInfo.Uses[sel.Sel]
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "sync/atomic"
}
