// Package analysis is a self-contained static-analysis framework for
// invariants of the eRPC datapath that the compiler cannot see. It
// mirrors the golang.org/x/tools/go/analysis API (Analyzer, Pass,
// Diagnostic) on the standard library alone — the build environment is
// hermetic (no module downloads), the same constraint that put the
// transport's batched engine on raw syscall numbers instead of x/sys.
//
// It hosts one analyzer, syscallptr (driven by cmd/erpcvet): an
// unsafe.Pointer/uintptr conversion never outlives its syscall
// argument. The buffer-ownership rules need no analyzer: a transport
// reclaims an RX burst's buffers itself at the owner's next receive,
// and only the owner sends, so a leaked, doubly returned or foreign
// buffer cannot be written.
//
// # Directives
//
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
