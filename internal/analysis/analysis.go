// Package analysis is a self-contained static-analysis framework for
// the zero-copy ownership invariants of the eRPC datapath. It mirrors
// the golang.org/x/tools/go/analysis API (Analyzer, Pass, Diagnostic)
// on the standard library alone — the build environment is hermetic
// (no module downloads), the same constraint that put the transport's
// batched engine on raw syscall numbers instead of x/sys.
//
// The analyzers it hosts (framerelease, owner, syscallptr; driven by
// cmd/erpcvet) machine-check conventions the compiler cannot see: every
// acquired transport.Frame/pool buffer reaches a release sink on all
// paths, pool fast paths stay on the owning goroutine, and
// unsafe.Pointer/uintptr conversions never outlive their syscall
// argument.
//
// # Directives
//
// The analyzers are directive-driven so the invariants stay local to
// the code that carries them:
//
//	//erpc:owner        this function (or func literal) runs on the
//	                    pool-owning context and may use the single-owner
//	                    fast path (Pool.Get/Put).
//	//erpc:acquire      calls to this function return an owned buffer or
//	                    frame that the caller must release.
//	//erpc:release      calling this function releases (or takes over)
//	                    its buffer/frame arguments.
//	//erpc:owneronly    calls to this function are themselves owner
//	                    fast-path operations (testdata/extension hook;
//	                    transport.Pool.Get/Put are built in).
//	//erpc:ignore <why> suppress diagnostics on this line. The reason
//	                    string is mandatory; a bare //erpc:ignore is
//	                    itself reported.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Analyzer describes one analysis: a name, documentation, and a run
// function applied to one package at a time.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) error
}

// Diagnostic is one finding, anchored to a source position.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string
}

// Pass carries one package's syntax and type information through an
// analyzer, exactly like go/analysis.Pass.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	diags    []Diagnostic
	suppress map[string]map[int]string // filename -> line -> ignore reason
}

// Reportf records a diagnostic at pos unless an //erpc:ignore directive
// suppresses that line.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	if lines, ok := p.suppress[position.Filename]; ok {
		if _, ok := lines[position.Line]; ok {
			return
		}
	}
	p.diags = append(p.diags, Diagnostic{
		Pos:      pos,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

const directivePrefix = "//erpc:"

// directive splits one comment into an erpc directive name and its
// argument string ("" when the comment is not a directive).
func directive(c *ast.Comment) (name, arg string) {
	if !strings.HasPrefix(c.Text, directivePrefix) {
		return "", ""
	}
	rest := strings.TrimPrefix(c.Text, directivePrefix)
	name, arg, _ = strings.Cut(rest, " ")
	return name, strings.TrimSpace(arg)
}

// HasDirective reports whether a comment group carries the named
// directive.
func HasDirective(doc *ast.CommentGroup, want string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if name, _ := directive(c); name == want {
			return true
		}
	}
	return false
}

// buildSuppressions collects //erpc:ignore directives per file line and
// reports (as regular diagnostics) any ignore that is missing its
// mandatory reason. A directive suppresses findings on its own line
// and, when it stands alone on a line, on the following line.
func buildSuppressions(fset *token.FileSet, files []*ast.File) (map[string]map[int]string, []Diagnostic) {
	sup := map[string]map[int]string{}
	var bad []Diagnostic
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				name, arg := directive(c)
				if name != "ignore" {
					continue
				}
				pos := fset.Position(c.Pos())
				if arg == "" {
					bad = append(bad, Diagnostic{
						Pos:      c.Pos(),
						Analyzer: "directive",
						Message:  "//erpc:ignore requires a reason string (//erpc:ignore <why>)",
					})
					continue
				}
				m := sup[pos.Filename]
				if m == nil {
					m = map[int]string{}
					sup[pos.Filename] = m
				}
				m[pos.Line] = arg
				m[pos.Line+1] = arg
			}
		}
	}
	return sup, bad
}

// Package bundles one type-checked package: what a driver loads and
// analyzers consume.
type Package struct {
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
}

// Run applies the analyzers to pkg and returns their combined
// diagnostics in source order. Malformed //erpc:ignore directives
// (missing reason) are reported once, regardless of the analyzer list.
func Run(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	sup, bad := buildSuppressions(pkg.Fset, pkg.Files)
	diags := bad
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Pkg,
			TypesInfo: pkg.Info,
			suppress:  sup,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %w", a.Name, err)
		}
		diags = append(diags, pass.diags...)
	}
	sortDiagnostics(pkg.Fset, diags)
	return diags, nil
}

func sortDiagnostics(fset *token.FileSet, diags []Diagnostic) {
	// Insertion sort by (file, offset): diagnostic counts are tiny.
	for i := 1; i < len(diags); i++ {
		for j := i; j > 0 && diagLess(fset, diags[j], diags[j-1]); j-- {
			diags[j], diags[j-1] = diags[j-1], diags[j]
		}
	}
}

func diagLess(fset *token.FileSet, a, b Diagnostic) bool {
	pa, pb := fset.Position(a.Pos), fset.Position(b.Pos)
	if pa.Filename != pb.Filename {
		return pa.Filename < pb.Filename
	}
	if pa.Line != pb.Line {
		return pa.Line < pb.Line
	}
	return pa.Column < pb.Column
}

// FuncInfo describes one function body under analysis: a declaration
// or a function literal, with the directives that apply to it.
type FuncInfo struct {
	Name string
	Body *ast.BlockStmt
	Decl *ast.FuncDecl // nil for literals
	Lit  *ast.FuncLit  // nil for declarations
	// Owner reports an //erpc:owner directive on the function (doc
	// comment for declarations; a directive comment on the literal's
	// line or the line above for literals).
	Owner bool
}

// Functions yields every function body in the pass's files: named
// declarations and function literals (each literal reported once, with
// its own directive state — a goroutine launched from an annotated
// function does not inherit the annotation).
func Functions(pass *Pass) []FuncInfo {
	var out []FuncInfo
	for _, f := range pass.Files {
		lines := directiveLines(pass.Fset, f, "owner")
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			out = append(out, FuncInfo{
				Name:  fd.Name.Name,
				Body:  fd.Body,
				Decl:  fd,
				Owner: HasDirective(fd.Doc, "owner") || onDirectiveLine(pass.Fset, lines, fd.Pos()),
			})
		}
		ast.Inspect(f, func(n ast.Node) bool {
			lit, ok := n.(*ast.FuncLit)
			if !ok {
				return true
			}
			out = append(out, FuncInfo{
				Name:  "func literal",
				Body:  lit.Body,
				Lit:   lit,
				Owner: onDirectiveLine(pass.Fset, lines, lit.Pos()),
			})
			return true
		})
	}
	return out
}

// directiveLines returns the set of lines carrying the named directive
// in f (the directive's own line plus the following line, so a comment
// directly above a func literal annotates it).
func directiveLines(fset *token.FileSet, f *ast.File, want string) map[int]bool {
	var lines map[int]bool
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if name, _ := directive(c); name == want {
				if lines == nil {
					lines = map[int]bool{}
				}
				line := fset.Position(c.Pos()).Line
				lines[line] = true
				lines[line+1] = true
			}
		}
	}
	return lines
}

func onDirectiveLine(fset *token.FileSet, lines map[int]bool, pos token.Pos) bool {
	return lines != nil && lines[fset.Position(pos).Line]
}

// pathSuffix reports whether the package of obj ends in suffix (the
// module name varies between the real repo and testdata, so built-in
// symbol matching goes by path suffix).
func pkgPathHasSuffix(pkg *types.Package, suffix string) bool {
	if pkg == nil {
		return false
	}
	p := pkg.Path()
	return p == suffix || strings.HasSuffix(p, "/"+suffix)
}

// MethodOn reports whether obj is the named method on a (pointer to)
// named type within a package whose import path ends in pkgSuffix.
func MethodOn(obj types.Object, pkgSuffix, typeName, method string) bool {
	fn, ok := obj.(*types.Func)
	if !ok || fn.Name() != method || !pkgPathHasSuffix(fn.Pkg(), pkgSuffix) {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == typeName
}

// FuncNamed reports whether obj is the named package-level function in
// a package whose import path ends in pkgSuffix.
func FuncNamed(obj types.Object, pkgSuffix, name string) bool {
	fn, ok := obj.(*types.Func)
	if !ok || fn.Name() != name || !pkgPathHasSuffix(fn.Pkg(), pkgSuffix) {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() == nil
}

// CalleeObj resolves the object a call expression invokes (function or
// method), or nil for indirect calls and conversions.
func CalleeObj(info *types.Info, call *ast.CallExpr) types.Object {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return info.Uses[fun]
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			return sel.Obj()
		}
		return info.Uses[fun.Sel] // package-qualified call
	}
	return nil
}

// InspectShallow walks the AST rooted at n without descending into
// nested function literals: their bodies are analyzed as functions in
// their own right (with their own directive state), not as part of the
// enclosing function.
func InspectShallow(n ast.Node, fn func(ast.Node) bool) {
	ast.Inspect(n, func(x ast.Node) bool {
		if _, ok := x.(*ast.FuncLit); ok && x != n {
			return false
		}
		return fn(x)
	})
}

// FuncDirectives maps each function object declared in the pass's
// package to the set of erpc directives on its doc comment, so calls
// to same-package annotated functions (//erpc:acquire, //erpc:release,
// //erpc:owneronly) are recognized by object identity.
func FuncDirectives(pass *Pass) map[types.Object]map[string]bool {
	out := map[types.Object]map[string]bool{}
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Doc == nil {
				continue
			}
			obj := pass.TypesInfo.Defs[fd.Name]
			if obj == nil {
				continue
			}
			for _, c := range fd.Doc.List {
				if name, _ := directive(c); name != "" {
					set := out[obj]
					if set == nil {
						set = map[string]bool{}
						out[obj] = set
					}
					set[name] = true
				}
			}
		}
	}
	return out
}

// RootIdent walks to the base identifier of an expression built from
// selections, indexing, slicing, unary ops and parens (e.g. the buf in
// buf[4:n] or &buf[0]), or nil.
func RootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.ParenExpr:
			e = x.X
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.UnaryExpr:
			e = x.X
		default:
			return nil
		}
	}
}
