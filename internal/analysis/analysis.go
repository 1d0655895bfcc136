// Package analysis loads one package from source for cmd/erpcvet's one
// check, syscallptr: an unsafe.Pointer/uintptr conversion never
// outlives its syscall argument. It uses the standard library alone —
// the build environment is hermetic (no module downloads), the same
// constraint that put the transport's batched engine on raw syscall
// numbers instead of x/sys.
//
// The buffer-ownership rules need no check: a transport reclaims an RX
// burst's buffers itself at the owner's next receive, and only the
// owner sends, so a leaked, doubly returned or foreign buffer cannot be
// written.
package analysis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"path/filepath"
)

// Diagnostic is one finding, anchored to a source position.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Package is one type-checked package: its files, in go/build's order,
// and the types of their expressions.
type Package struct {
	Fset  *token.FileSet
	Files []*ast.File
	Info  *types.Info
}

// Loader parses and type-checks packages from source, sharing one
// FileSet and one source importer so module-internal imports resolve
// without a build cache or network access.
type Loader struct {
	Fset *token.FileSet
	imp  types.Importer
}

// NewLoader returns a Loader backed by the source importer.
func NewLoader() *Loader {
	fset := token.NewFileSet()
	return &Loader{
		Fset: fset,
		imp:  importer.ForCompiler(fset, "source", nil),
	}
}

// LoadDir loads the package rooted at dir, test files excluded. File
// selection goes through go/build so build tags and GOOS/GOARCH
// constraints are honored — parsing a directory raw would pull both the
// _linux.go and _other.go halves of the transport engines and fail on
// redeclarations. A directory without Go files loads as nil.
func (l *Loader) LoadDir(dir string) (*Package, error) {
	bp, err := build.Default.ImportDir(dir, 0)
	if err != nil {
		if _, ok := err.(*build.NoGoError); ok {
			return nil, nil
		}
		return nil, fmt.Errorf("resolve %s: %w", dir, err)
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, nil
	}

	info := &types.Info{Types: map[ast.Expr]types.TypeAndValue{}}
	conf := types.Config{
		Importer: l.imp,
		Error:    func(error) {}, // collect what we can; first error returned below
	}
	if _, err := conf.Check(bp.ImportPath, l.Fset, files, info); err != nil {
		return nil, fmt.Errorf("typecheck %s: %w", dir, err)
	}
	return &Package{Fset: l.Fset, Files: files, Info: info}, nil
}
