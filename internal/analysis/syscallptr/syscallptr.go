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
	"go/token"
	"go/types"

	"repro/internal/analysis"
)

// Check reports, in source order, every unsafe.Pointer/uintptr
// conversion in pkg that outlives its statement.
func Check(pkg *analysis.Package) []analysis.Diagnostic {
	var diags []analysis.Diagnostic
	report := func(pos token.Pos, msg string) {
		diags = append(diags, analysis.Diagnostic{Pos: pos, Message: msg})
	}
	info := pkg.Info
	for _, f := range pkg.Files {
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
			case isConversionTo(info, call, types.Uintptr) && isUnsafePointer(info, call.Args[0]):
				// uintptr(unsafe.Pointer(...)) — legal only as a call
				// argument (or in arithmetic that stays one).
				if dest := storeContext(info, parents, call); dest != "" {
					report(call.Pos(), "uintptr(unsafe.Pointer(...)) "+dest+
						": the uintptr does not keep the object alive; keep the conversion inline in the syscall argument")
				}
			case isConversionToUnsafePointer(info, call) && isUintptr(info, call.Args[0]):
				// unsafe.Pointer(u) where u is uintptr — legal only when
				// u is derived from uintptr(unsafe.Pointer(...)) within
				// the same expression (pointer arithmetic pattern).
				if !containsPtrToUintptr(info, call.Args[0]) {
					report(call.Pos(),
						"unsafe.Pointer converted from a uintptr not derived in the same expression: the original object may have moved or been freed")
				}
			}
			return true
		})
	}
	return diags
}

func isConversionTo(info *types.Info, call *ast.CallExpr, basic types.BasicKind) bool {
	tv, ok := info.Types[call.Fun]
	if !ok || !tv.IsType() {
		return false
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	return ok && b.Kind() == basic
}

func isConversionToUnsafePointer(info *types.Info, call *ast.CallExpr) bool {
	tv, ok := info.Types[call.Fun]
	if !ok || !tv.IsType() {
		return false
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	return ok && b.Kind() == types.UnsafePointer
}

func typeKindOf(info *types.Info, e ast.Expr, kind types.BasicKind) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	return ok && b.Kind() == kind
}

func isUnsafePointer(info *types.Info, e ast.Expr) bool {
	return typeKindOf(info, e, types.UnsafePointer)
}

func isUintptr(info *types.Info, e ast.Expr) bool {
	return typeKindOf(info, e, types.Uintptr)
}

// storeContext climbs from the conversion through value-preserving
// nodes (parens, arithmetic, further conversions between integer
// types) and reports a non-empty description when the first meaningful
// ancestor stores the value: an assignment, var declaration, composite
// literal, return, or channel send. A call argument position — the
// legal use — returns "".
func storeContext(info *types.Info, parents map[ast.Node]ast.Node, n ast.Node) string {
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
			if !integerLike(info, p.(ast.Expr)) {
				return ""
			}
			n = p
		case *ast.CallExpr:
			if tv, ok := info.Types[p.Fun]; ok && tv.IsType() {
				// A further integer conversion (uint64(...)) preserves
				// the naked address — keep climbing. A conversion back
				// to a pointer type re-materializes a real reference,
				// which rule 2 audits separately.
				if !integerLike(info, p) {
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
func integerLike(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}

// containsPtrToUintptr reports whether e contains a
// uintptr(unsafe.Pointer(...)) conversion — the marker that a
// same-expression unsafe.Pointer round trip is in progress.
func containsPtrToUintptr(info *types.Info, e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if ok && len(call.Args) == 1 &&
			isConversionTo(info, call, types.Uintptr) && isUnsafePointer(info, call.Args[0]) {
			found = true
			return false
		}
		return true
	})
	return found
}
