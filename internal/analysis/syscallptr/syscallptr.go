// Package syscallptr checks the unsafe.Pointer/uintptr discipline the
// batched UDP engine depends on: a uintptr made from an unsafe.Pointer
// is not a reference — the GC can move or free the object the moment
// the statement ends — so such conversions must stay inline in the
// consuming call (in practice a Syscall6 argument) or in uintptr
// arithmetic that converts straight back. Storing one in a variable,
// field, slice, return value or channel is flagged, as is materializing
// an unsafe.Pointer from a uintptr that was not derived in the same
// expression.
package syscallptr

import (
	"go/ast"
	"go/types"

	"repro/internal/analysis"
)

// Analyzer flags unsafe.Pointer/uintptr conversions that outlive their
// statement.
var Analyzer = &analysis.Analyzer{
	Name: "syscallptr",
	Doc:  "flag uintptr(unsafe.Pointer) values stored across statements",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		// parents[n] is the innermost enclosing node of n.
		parents := map[ast.Node]ast.Node{}
		var stack []ast.Node
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return false
			}
			if len(stack) > 0 {
				parents[n] = stack[len(stack)-1]
			}
			stack = append(stack, n)
			return true
		})

		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) != 1 {
				return true
			}
			switch {
			case isConversionTo(pass, call, types.Uintptr) && isUnsafePointer(pass, call.Args[0]):
				// uintptr(unsafe.Pointer(...)) — legal only as a call
				// argument (or in arithmetic that stays one).
				if dest := storeContext(pass, parents, call); dest != "" {
					pass.Reportf(call.Pos(),
						"uintptr(unsafe.Pointer(...)) %s: the uintptr does not keep the object alive; keep the conversion inline in the syscall argument", dest)
				}
			case isConversionToUnsafePointer(pass, call) && isUintptr(pass, call.Args[0]):
				// unsafe.Pointer(u) where u is uintptr — legal only when
				// u is derived from uintptr(unsafe.Pointer(...)) within
				// the same expression (pointer arithmetic pattern).
				if !containsPtrToUintptr(pass, call.Args[0]) {
					pass.Reportf(call.Pos(),
						"unsafe.Pointer converted from a uintptr not derived in the same expression: the original object may have moved or been freed")
				}
			}
			return true
		})
	}
	return nil
}

func isConversionTo(pass *analysis.Pass, call *ast.CallExpr, basic types.BasicKind) bool {
	tv, ok := pass.TypesInfo.Types[call.Fun]
	if !ok || !tv.IsType() {
		return false
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	return ok && b.Kind() == basic
}

func isConversionToUnsafePointer(pass *analysis.Pass, call *ast.CallExpr) bool {
	tv, ok := pass.TypesInfo.Types[call.Fun]
	if !ok || !tv.IsType() {
		return false
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	return ok && b.Kind() == types.UnsafePointer
}

func typeKindOf(pass *analysis.Pass, e ast.Expr, kind types.BasicKind) bool {
	tv, ok := pass.TypesInfo.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	return ok && b.Kind() == kind
}

func isUnsafePointer(pass *analysis.Pass, e ast.Expr) bool {
	return typeKindOf(pass, e, types.UnsafePointer)
}

func isUintptr(pass *analysis.Pass, e ast.Expr) bool {
	return typeKindOf(pass, e, types.Uintptr)
}

// storeContext climbs from the conversion through value-preserving
// nodes (parens, arithmetic, further conversions between integer
// types) and reports a non-empty description when the first meaningful
// ancestor stores the value: an assignment, var declaration, composite
// literal, return, or channel send. A call argument position — the
// legal use — returns "".
func storeContext(pass *analysis.Pass, parents map[ast.Node]ast.Node, n ast.Node) string {
	for {
		p := parents[n]
		if p == nil {
			return ""
		}
		switch p := p.(type) {
		case *ast.ParenExpr:
			n = p
		case *ast.BinaryExpr, *ast.UnaryExpr:
			// Arithmetic keeps the naked address flowing; a comparison
			// or mask that yields a non-integer (bool) does not.
			if !integerLike(pass, p.(ast.Expr)) {
				return ""
			}
			n = p
		case *ast.CallExpr:
			if tv, ok := pass.TypesInfo.Types[p.Fun]; ok && tv.IsType() {
				// A further integer conversion (uint64(...)) preserves
				// the naked address — keep climbing. A conversion back
				// to a pointer type re-materializes a real reference,
				// which rule 2 audits separately.
				if !integerLike(pass, p) {
					return ""
				}
				n = p
				continue
			}
			// Argument of a genuine call (syscall.Syscall6, ...): the
			// value lives for the duration of the call — legal.
			return ""
		case *ast.AssignStmt:
			return "stored in a variable"
		case *ast.ValueSpec:
			return "stored in a variable declaration"
		case *ast.KeyValueExpr, *ast.CompositeLit:
			return "stored in a composite literal"
		case *ast.ReturnStmt:
			return "returned"
		case *ast.SendStmt:
			return "sent on a channel"
		case *ast.IndexExpr:
			n = p
		default:
			// Expression/if/for statement context: the value dies with
			// the statement; comparisons and masks are fine.
			return ""
		}
	}
}

// integerLike reports whether e's type is an integer (including
// uintptr): the forms through which a naked address keeps flowing.
func integerLike(pass *analysis.Pass, e ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}

// containsPtrToUintptr reports whether e contains a
// uintptr(unsafe.Pointer(...)) conversion — the marker that a
// same-expression unsafe.Pointer round trip is in progress.
func containsPtrToUintptr(pass *analysis.Pass, e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if ok && len(call.Args) == 1 &&
			isConversionTo(pass, call, types.Uintptr) && isUnsafePointer(pass, call.Args[0]) {
			found = true
			return false
		}
		return true
	})
	return found
}
