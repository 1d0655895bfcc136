// Package analysistest runs an analyzer over golden testdata packages
// and checks its diagnostics against // want expectations, mirroring
// golang.org/x/tools/go/analysis/analysistest on the standard library.
//
// Expectations are written at the end of the offending line:
//
//	p := uintptr(unsafe.Pointer(&x)) // want `stored in a variable`
//
// The backquoted string is a regular expression matched against the
// diagnostic message; multiple expectations on one line are separated
// by spaces. A line with no // want comment must produce no
// diagnostics.
package analysistest

import (
	"fmt"
	"go/token"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/analysis"
)

// Run loads each named package under dir (typically
// "testdata/src/<name>") and applies the analyzer, failing t on any
// mismatch between reported diagnostics and // want expectations.
func Run(t *testing.T, dir string, a *analysis.Analyzer, pkgs ...string) {
	t.Helper()
	for _, name := range pkgs {
		t.Run(name, func(t *testing.T) {
			runPkg(t, filepath.Join(dir, "src", name), a)
		})
	}
}

type expectation struct {
	re      *regexp.Regexp
	matched bool
}

func runPkg(t *testing.T, dir string, a *analysis.Analyzer) {
	t.Helper()
	loader := analysis.NewLoader()
	pkg, err := loader.LoadDir(dir)
	if err != nil {
		t.Fatalf("load %s: %v", dir, err)
	}
	if pkg == nil {
		t.Fatalf("load %s: no Go files", dir)
	}
	diags, err := analysis.Run(pkg, []*analysis.Analyzer{a})
	if err != nil {
		t.Fatalf("run %s: %v", a.Name, err)
	}

	wants := collectWants(t, loader.Fset, pkg)
	for _, d := range diags {
		pos := loader.Fset.Position(d.Pos)
		key := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
		exps := wants[key]
		found := false
		for _, e := range exps {
			if !e.matched && e.re.MatchString(d.Message) {
				e.matched = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("%s: unexpected diagnostic: %s", posString(pos), d.Message)
		}
	}
	for key, exps := range wants {
		for _, e := range exps {
			if !e.matched {
				t.Errorf("%s: expected diagnostic matching %q, got none", key, e.re)
			}
		}
	}
}

// wantRe captures the expectation list trailing a statement. Each
// expectation is a backquoted regexp.
var wantRe = regexp.MustCompile("// want ((?:`[^`]*`\\s*)+)$")

var expRe = regexp.MustCompile("`([^`]*)`")

func collectWants(t *testing.T, fset *token.FileSet, pkg *analysis.Package) map[string][]*expectation {
	t.Helper()
	wants := map[string][]*expectation{}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					if strings.Contains(c.Text, "// want") {
						t.Errorf("%s: malformed // want comment: %s",
							posString(fset.Position(c.Pos())), c.Text)
					}
					continue
				}
				pos := fset.Position(c.Pos())
				key := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
				for _, em := range expRe.FindAllStringSubmatch(m[1], -1) {
					re, err := regexp.Compile(em[1])
					if err != nil {
						t.Fatalf("%s: bad want regexp %q: %v", posString(pos), em[1], err)
					}
					wants[key] = append(wants[key], &expectation{re: re})
				}
			}
		}
	}
	return wants
}

func posString(p token.Position) string {
	return fmt.Sprintf("%s:%d", p.Filename, p.Line)
}
